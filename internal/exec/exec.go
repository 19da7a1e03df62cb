// Package exec executes logical plans over in-memory tables and accounts the
// compute and IO each operator consumed. The accounting model is the bridge
// to the cluster simulator: "work" is measured in container-seconds, and each
// dataset carries a logical scale factor so that small in-memory tables stand
// in for production-scale inputs (rows execute small, work and bytes account
// big). Spool and ViewScan implement the CloudViews online-materialization
// and reuse operators.
//
// Each operator has one production path, the batch kernels, with the row
// interpreter as fallback and test oracle (see Executor.Vectorized). An
// Executor runs its operators one after another on the calling goroutine:
// concurrency lives across jobs — per-VC workers and batch submission each
// run their own Executor — not within an operator.
package exec

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
	"cloudviews/internal/fault"
	"cloudviews/internal/obs"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
)

// Cost-model constants, in container-seconds per row (or per byte). The
// absolute values are calibrated so that a job over a few-GB logical input
// runs for minutes of simulated time, like a small SCOPE job.
const (
	costScanRow    = 2.0e-6
	costFilterRow  = 1.0e-6
	costProjectRow = 1.5e-6
	costHashRow    = 4.0e-6 // per build+probe row
	costMergeRow   = 2.0e-6 // per input row once sorted
	costSortRow    = 1.0e-6 // per row per log2(n) when merge join must sort
	costLoopOuter  = 1.0e-6 // per outer row, plus a small-side penalty
	costAggRow     = 3.0e-6
	costUDORow     = 8.0e-6 // user code is slow
	costUnionRow   = 0.2e-6
	costSampleRow  = 0.8e-6
	costOrderRow   = 1.2e-6 // per row per log2(n)
	// IO costs per LOGICAL byte.
	costReadByte  = 6.0e-9 // ~160 MB/s effective
	costWriteByte = 9.0e-9
)

// ViewStore is the interface the executor needs from the materialized-view
// storage layer. internal/storage implements it.
type ViewStore interface {
	// Fetch returns the view's table and logical scale multiplier. ok=false
	// when the view does not exist, is unsealed, or has expired.
	Fetch(strict signature.Sig) (t *data.Table, mult float64, ok bool)
	// Materialize stores a freshly computed view. vc is the virtual cluster
	// that owns the bytes; mult is the logical scale multiplier of the
	// producing subexpression.
	Materialize(strict signature.Sig, path, vc string, t *data.Table, mult float64) error
}

// ViewReadWork estimates the container-seconds needed to scan a materialized
// view of the given logical size; the optimizer compares it against the
// historical cost of recomputing the subexpression.
func ViewReadWork(rows, bytes int64) float64 {
	return float64(rows)*costScanRow + float64(bytes)*costReadByte
}

// SpoolWriteWork estimates the container-seconds to write a view of the given
// logical size — the materialization overhead charged to the first job.
func SpoolWriteWork(bytes int64) float64 {
	return float64(bytes) * costWriteByte
}

// NodeStat records what one operator did during a run. Rows/Bytes/Work are
// logical (scale-multiplied) quantities.
type NodeStat struct {
	Node     plan.Node
	Op       string
	Algo     plan.JoinAlgo // joins only
	RowsOut  int64
	BytesOut int64
	Work     float64
	IORead   int64 // logical bytes read from stable storage (scans + views)
	// Batches counts the vectorized batches this operator processed (0 when
	// the operator ran on the row-at-a-time path). Accounting only — it is
	// never rendered into traces or goldens.
	Batches int64
}

// RunResult is the outcome of executing one plan.
type RunResult struct {
	Table *data.Table
	Stats []NodeStat
	// TotalWork is the job's total compute in container-seconds, including
	// materialization overhead.
	TotalWork float64
	// InputBytes counts logical bytes read from base datasets only.
	InputBytes int64
	// ViewBytes counts logical bytes read from materialized views.
	ViewBytes int64
	// TotalRead includes inputs, views, and intermediate exchange reads.
	TotalRead int64
	// SpoolWork is the portion of TotalWork spent writing views; the cluster
	// simulator runs it as a parallel stage off the critical path.
	SpoolWork float64
	// CacheHits counts subexpressions served from the executor result cache.
	CacheHits int
	// ReuseFallbacks counts ViewScans whose artifact could not be read
	// (genuinely missing or fault-injected) and were transparently recomputed
	// from their Fallback subexpression.
	ReuseFallbacks int
	// SpoolWriteFailures counts Spool materializations that failed
	// (fault-injected); the job continues and the staged view is left for the
	// engine to abandon.
	SpoolWriteFailures int
	// TotalBatches sums NodeStat.Batches across operators (replayed cache
	// entries included), exposing how much of the plan ran vectorized.
	TotalBatches int64
	// FallbackSigs lists the strict signature of every ViewScan counted in
	// ReuseFallbacks, in evaluation order — the guard layer correlates them
	// with the optimizer's matched views to charge forfeited savings to the
	// right circuit breaker.
	FallbackSigs []signature.Sig
}

// CacheEntry memoizes the result of a subexpression for replay across
// identical executions (used by the production-window simulator so that
// repeated identical jobs don't recompute — the accounting is still charged
// in full).
type CacheEntry struct {
	Table      *data.Table
	Mult       float64
	Stats      []NodeStat
	InputBytes int64
	ViewBytes  int64
	TotalRead  int64
}

// DefaultCacheEntries bounds the result cache when no explicit limit is
// given. It is deliberately generous — eviction is a memory-safety backstop
// for long simulations, not a tuning knob — so bounded behavior only differs
// from the historical unbounded cache on workloads with >64k distinct
// subexpression signatures.
const DefaultCacheEntries = 65536

// Cache is a strict-signature-keyed result cache with deterministic LRU
// eviction. It is safe for concurrent use: many executors (one per in-flight
// job) share one cache, and identical subexpressions racing to populate an
// entry resolve first-writer-wins, which is sound because equal physical
// signatures imply byte-identical results. Eviction order is the exact
// least-recently-used order of Get/Put calls, so single-threaded runs evict
// deterministically; eviction only ever forces a recompute (identical bytes),
// never a wrong result.
type Cache struct {
	mu    sync.Mutex
	m     map[signature.Sig]*lruEntry
	head  *lruEntry // most recently used
	tail  *lruEntry // least recently used
	limit int       // ≤0 means unbounded
	reg   *obs.Registry
}

type lruEntry struct {
	sig        signature.Sig
	entry      *CacheEntry
	prev, next *lruEntry
}

// NewCache creates an empty cache bounded at DefaultCacheEntries.
func NewCache() *Cache { return NewCacheWithLimit(DefaultCacheEntries) }

// NewCacheWithLimit creates an empty cache holding at most limit entries
// (limit ≤ 0 disables eviction).
func NewCacheWithLimit(limit int) *Cache {
	return &Cache{m: make(map[signature.Sig]*lruEntry), limit: limit}
}

// SetMetrics attaches a registry; the eviction counter family
// cloudviews_result_cache_evictions_total is created lazily on the first
// eviction so metric exports stay byte-identical on runs that never evict.
func (c *Cache) SetMetrics(reg *obs.Registry) {
	c.mu.Lock()
	c.reg = reg
	c.mu.Unlock()
}

// Len returns the number of cached subexpressions.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

func (c *Cache) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) pushFront(e *lruEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// Get returns the entry for a physical signature, if present, marking it most
// recently used.
func (c *Cache) Get(sig signature.Sig) (*CacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[sig]
	if !ok {
		return nil, false
	}
	if c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
	return e.entry, true
}

// Put stores an entry unless one already exists (first writer wins, keeping
// replayed accounting stable across concurrent producers), evicting the
// least-recently-used entries when the bound is exceeded.
func (c *Cache) Put(sig signature.Sig, e *CacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, exists := c.m[sig]; exists {
		if c.head != old {
			c.unlink(old)
			c.pushFront(old)
		}
		return
	}
	le := &lruEntry{sig: sig, entry: e}
	c.m[sig] = le
	c.pushFront(le)
	if c.limit <= 0 {
		return
	}
	evicted := 0
	for len(c.m) > c.limit && c.tail != nil {
		victim := c.tail
		c.unlink(victim)
		delete(c.m, victim.sig)
		evicted++
	}
	if evicted > 0 && c.reg != nil {
		c.reg.Counter("cloudviews_result_cache_evictions_total").Add(float64(evicted))
	}
}

// Executor runs plans. It is not safe for concurrent use; create one per job.
type Executor struct {
	Catalog *catalog.Catalog
	Views   ViewStore                   // nil disables Spool/ViewScan handling
	Cache   *Cache                      // nil disables memoization
	SigMap  map[plan.Node]signature.Sig // strict signatures per node (for cache keys)
	Ctx     *plan.EvalContext
	// PipelineSharing switches cache hits from replay accounting (the job is
	// charged as if it recomputed the subtree — correct for simulating
	// independent jobs) to SHARED accounting: the subtree was computed once
	// by a concurrently running job and its output is pipelined here, so
	// this job is charged only the transfer (paper §5.4, reuse in
	// concurrent queries without pre-materialization).
	PipelineSharing bool
	// Vectorized runs operators on the typed-column batch kernels (batchSize
	// rows per call, selection bitmaps) — the execution path every production
	// caller takes. An operator falls back to the row-at-a-time interpreter
	// whenever an expression, type, or NULL pattern is outside kernel
	// coverage (see vec.go). Kernels reproduce Value semantics bit-for-bit, so
	// results are byte-identical either way; false runs the row interpreter
	// throughout and serves as the oracle the kernels are tested against.
	Vectorized bool
	// Metrics, when set, receives execution totals (cache hits, work,
	// bytes read) once per Run.
	Metrics *obs.Registry
	// Faults, when non-nil, injects spool-write and view-read failures. JobID
	// keys the injection decisions so the fault schedule is a pure function
	// of (seed, job, signature) regardless of execution interleaving.
	Faults *fault.Injector
	JobID  string
	// Trace, when set, receives fault/recovery events (nil-safe).
	Trace *obs.Trace

	res RunResult
	// spoolTainted marks plan nodes whose subtree contains a Spool; those
	// subtrees carry a materialization side effect and bypass the result
	// cache entirely.
	spoolTainted map[plan.Node]bool
}

// markSpoolTainted records every node whose subtree contains a Spool. A
// cached replay of such a subtree would reproduce the accounting but skip the
// view write, leaving a staged view that never materializes — so the Spool
// and all its ancestors must always execute. Spool-free subtrees (including
// the Spool's own child) stay cacheable, so a replayed build remains cheap.
func markSpoolTainted(root plan.Node, out map[plan.Node]bool) bool {
	tainted := false
	if _, ok := root.(*plan.Spool); ok {
		tainted = true
	}
	for _, c := range root.Children() {
		if markSpoolTainted(c, out) {
			tainted = true
		}
	}
	if tainted {
		out[root] = true
	}
	return tainted
}

type nodeResult struct {
	table *data.Table
	mult  float64
}

// Run executes the plan and returns the result table plus accounting.
func (ex *Executor) Run(root plan.Node) (*RunResult, error) {
	if ex.Ctx == nil {
		ex.Ctx = &plan.EvalContext{Rand: data.NewRand(1)}
	}
	if ex.Ctx.Rand == nil {
		ex.Ctx.Rand = data.NewRand(1)
	}
	ex.res = RunResult{}
	ex.spoolTainted = make(map[plan.Node]bool)
	markSpoolTainted(root, ex.spoolTainted)
	r, err := ex.eval(root)
	if err != nil {
		return nil, err
	}
	ex.res.Table = r.table
	for _, s := range ex.res.Stats {
		ex.res.TotalWork += s.Work
	}
	ex.Metrics.Counter("cloudviews_exec_cache_hits_total").Add(float64(ex.res.CacheHits))
	ex.Metrics.Counter("cloudviews_exec_work_seconds_total").Add(ex.res.TotalWork)
	ex.Metrics.Counter("cloudviews_exec_read_bytes_total").Add(float64(ex.res.TotalRead))
	// Fault-related families are created only when they fire, so the metrics
	// export stays byte-identical to seed on fault-free runs.
	if ex.res.ReuseFallbacks > 0 {
		ex.Metrics.Counter("cloudviews_reuse_fallbacks_total").Add(float64(ex.res.ReuseFallbacks))
	}
	return &ex.res, nil
}

func (ex *Executor) record(st NodeStat) {
	ex.res.Stats = append(ex.res.Stats, st)
	ex.res.TotalBatches += st.Batches
}

func logicalBytes(t *data.Table, mult float64) int64 {
	return int64(float64(t.ByteSize()) * mult)
}

func logicalRows(t *data.Table, mult float64) int64 {
	return int64(float64(t.NumRows()) * mult)
}

func (ex *Executor) eval(n plan.Node) (nodeResult, error) {
	// Subtrees containing a Spool bypass the cache (see markSpoolTainted).
	// So do ViewScans while view-read faults are enabled: a cached replay
	// would skip the read entirely and the injection decision (keyed per
	// job and signature) must get a chance to fire.
	tainted := ex.spoolTainted[n]
	if _, isView := n.(*plan.ViewScan); isView && ex.Faults.Enabled(fault.ViewRead) {
		tainted = true
	}

	// Result-cache lookup (strict signature identity ⇒ identical result).
	if !tainted && ex.Cache != nil && ex.SigMap != nil {
		if sig, ok := ex.SigMap[n]; ok {
			if entry, hit := ex.Cache.Get(sig); hit {
				ex.res.CacheHits++
				if ex.PipelineSharing {
					// Shared accounting: the producer already paid for the
					// subtree; this consumer pays only the pipe transfer.
					rows := int64(float64(entry.Table.NumRows()) * entry.Mult)
					bytes := int64(float64(entry.Table.ByteSize()) * entry.Mult)
					work := ViewReadWork(rows, bytes)
					ex.res.Stats = append(ex.res.Stats, NodeStat{
						Node: n, Op: "SharedScan", RowsOut: rows, BytesOut: bytes, Work: work,
					})
					ex.res.TotalRead += bytes
					return nodeResult{table: entry.Table, mult: entry.Mult}, nil
				}
				// Replay the accounting of the cached subtree, remapping each
				// stat onto the corresponding node of THIS plan (the cached
				// subtree is physically identical, so post-order aligns).
				nodes := postOrderNodes(n)
				for i, st := range entry.Stats {
					if len(nodes) == len(entry.Stats) {
						st.Node = nodes[i]
					}
					ex.res.Stats = append(ex.res.Stats, st)
					ex.res.TotalBatches += st.Batches
				}
				ex.res.InputBytes += entry.InputBytes
				ex.res.ViewBytes += entry.ViewBytes
				ex.res.TotalRead += entry.TotalRead
				return nodeResult{table: entry.Table, mult: entry.Mult}, nil
			}
		}
	}

	statsStart := len(ex.res.Stats)
	inputStart, viewStart, readStart := ex.res.InputBytes, ex.res.ViewBytes, ex.res.TotalRead
	fallbackStart := ex.res.ReuseFallbacks

	r, err := ex.evalNode(n)
	if err != nil {
		return nodeResult{}, err
	}

	// A fallback inside this subtree means its recorded accounting reflects
	// recomputation, not a view read — caching it would replay fault costs
	// into healthy jobs, so skip the Put for the whole ancestor chain.
	if ex.res.ReuseFallbacks != fallbackStart {
		tainted = true
	}

	// Populate the cache with the subtree slice (first writer wins).
	if !tainted && ex.Cache != nil && ex.SigMap != nil {
		if sig, ok := ex.SigMap[n]; ok {
			sub := make([]NodeStat, len(ex.res.Stats)-statsStart)
			copy(sub, ex.res.Stats[statsStart:])
			ex.Cache.Put(sig, &CacheEntry{
				Table:      r.table,
				Mult:       r.mult,
				Stats:      sub,
				InputBytes: ex.res.InputBytes - inputStart,
				ViewBytes:  ex.res.ViewBytes - viewStart,
				TotalRead:  ex.res.TotalRead - readStart,
			})
		}
	}
	return r, nil
}

// postOrderNodes lists the subtree's nodes in execution-recording order
// (children left to right, then the node itself) — the order NodeStats are
// appended during a real run.
func postOrderNodes(n plan.Node) []plan.Node {
	var out []plan.Node
	var rec func(m plan.Node)
	rec = func(m plan.Node) {
		for _, c := range m.Children() {
			rec(c)
		}
		out = append(out, m)
	}
	rec(n)
	return out
}

func (ex *Executor) evalNode(n plan.Node) (nodeResult, error) {
	switch x := n.(type) {
	case *plan.Scan:
		return ex.evalScan(x)
	case *plan.ViewScan:
		return ex.evalViewScan(x)
	case *plan.Filter:
		return ex.evalFilter(x)
	case *plan.Project:
		return ex.evalProject(x)
	case *plan.Join:
		return ex.evalJoin(x)
	case *plan.Aggregate:
		return ex.evalAggregate(x)
	case *plan.Union:
		return ex.evalUnion(x)
	case *plan.UDO:
		return ex.evalUDO(x)
	case *plan.Sample:
		return ex.evalSample(x)
	case *plan.Sort:
		return ex.evalSort(x)
	case *plan.Spool:
		return ex.evalSpool(x)
	case *plan.Output:
		return ex.evalOutput(x)
	default:
		return nodeResult{}, fmt.Errorf("exec: unsupported operator %T", n)
	}
}

func (ex *Executor) evalScan(x *plan.Scan) (nodeResult, error) {
	ver, err := ex.Catalog.VersionByGUID(x.GUID)
	if err != nil {
		return nodeResult{}, err
	}
	if ver.Forgotten {
		return nodeResult{}, fmt.Errorf("exec: version %s was forgotten (GDPR)", x.GUID)
	}
	ds, _ := ex.Catalog.Dataset(x.Dataset)
	mult := ds.EffectiveScale()
	t := ver.Table
	lb := logicalBytes(t, mult)
	work := float64(logicalRows(t, mult))*costScanRow + float64(lb)*costReadByte
	ex.record(NodeStat{Node: x, Op: "Scan", RowsOut: logicalRows(t, mult), BytesOut: lb, Work: work, IORead: lb})
	ex.res.InputBytes += lb
	ex.res.TotalRead += lb
	return nodeResult{table: t, mult: mult}, nil
}

func (ex *Executor) evalViewScan(x *plan.ViewScan) (nodeResult, error) {
	if ex.Views == nil {
		return nodeResult{}, fmt.Errorf("exec: ViewScan without a view store")
	}
	sig := signature.Sig(x.StrictSig)
	// The decision key carries the artifact path (which embeds the home VC,
	// see storage.PathFor) so fault filters can target one VC's views.
	injected := ex.Faults.Enabled(fault.ViewRead) &&
		ex.Faults.Should(fault.ViewRead, ex.JobID+"|"+x.StrictSig+"|"+x.Path)
	var t *data.Table
	var mult float64
	ok := false
	if !injected {
		t, mult, ok = ex.Views.Fetch(sig)
	}
	if !ok {
		// The artifact is unreadable — injected corruption or genuinely gone
		// (e.g. expired between compile and execute). Reuse must never fail
		// a job: transparently recompute the replaced subexpression instead.
		if x.Fallback != nil {
			reason := "unavailable"
			if injected {
				reason = "injected"
			}
			ex.Trace.Event("view.fallback", fmt.Sprintf("sig=%s reason=%s", sig.Short(), reason))
			ex.res.ReuseFallbacks++
			ex.res.FallbackSigs = append(ex.res.FallbackSigs, sig)
			return ex.eval(x.Fallback)
		}
		return nodeResult{}, fmt.Errorf("exec: view %s unavailable", sig.Short())
	}
	lb := logicalBytes(t, mult)
	work := float64(logicalRows(t, mult))*costScanRow + float64(lb)*costReadByte
	ex.record(NodeStat{Node: x, Op: "ViewScan", RowsOut: logicalRows(t, mult), BytesOut: lb, Work: work, IORead: lb})
	ex.res.ViewBytes += lb
	ex.res.TotalRead += lb
	return nodeResult{table: t, mult: mult}, nil
}

func (ex *Executor) evalFilter(x *plan.Filter) (nodeResult, error) {
	in, err := ex.eval(x.Child)
	if err != nil {
		return nodeResult{}, err
	}
	out := data.NewTable(in.table.Schema)
	var batches int64
	if nb, ok := ex.vecFilter(in.table, x.Pred, out); ok {
		batches = nb
	} else {
		for _, row := range in.table.Rows {
			if v := x.Pred.Eval(row, ex.Ctx); v.Kind == data.KindBool && v.B {
				out.Append(row)
			}
		}
	}
	work := float64(logicalRows(in.table, in.mult)) * costFilterRow
	ex.record(NodeStat{Node: x, Op: "Filter", RowsOut: logicalRows(out, in.mult), BytesOut: logicalBytes(out, in.mult), Work: work, Batches: batches})
	return nodeResult{table: out, mult: in.mult}, nil
}

func (ex *Executor) evalProject(x *plan.Project) (nodeResult, error) {
	in, err := ex.eval(x.Child)
	if err != nil {
		return nodeResult{}, err
	}
	out := data.NewTable(x.Schema())
	var batches int64
	if nb, ok := ex.vecProject(in.table, x.Exprs, out); ok {
		batches = nb
	} else {
		for _, row := range in.table.Rows {
			nr := make(data.Row, len(x.Exprs))
			for i, e := range x.Exprs {
				nr[i] = e.Eval(row, ex.Ctx)
			}
			out.Append(nr)
		}
	}
	work := float64(logicalRows(in.table, in.mult)) * costProjectRow * float64(max(1, len(x.Exprs)))
	ex.record(NodeStat{Node: x, Op: "Project", RowsOut: logicalRows(out, in.mult), BytesOut: logicalBytes(out, in.mult), Work: work, Batches: batches})
	return nodeResult{table: out, mult: in.mult}, nil
}

// joinKey builds the hash key for a row under the given key expressions,
// using the collision-free length-prefixed encoding (see keys.go).
func (ex *Executor) joinKey(row data.Row, keys []plan.Expr) string {
	var buf [64]byte
	return string(ex.appendJoinKey(buf[:0], row, keys))
}

func (ex *Executor) appendJoinKey(dst []byte, row data.Row, keys []plan.Expr) []byte {
	for _, k := range keys {
		dst = appendKeyValue(dst, k.Eval(row, ex.Ctx))
	}
	return dst
}

// orderedJoinKey is the merge-join variant: collision-free AND order-
// preserving for escape-free values, so merge-join emission order matches
// the historical encoding byte-for-byte (see keys.go).
func (ex *Executor) orderedJoinKey(row data.Row, keys []plan.Expr) string {
	var buf [64]byte
	dst := buf[:0]
	for _, k := range keys {
		dst = appendOrderedKeyValue(dst, k.Eval(row, ex.Ctx))
	}
	return string(dst)
}

func (ex *Executor) evalJoin(x *plan.Join) (nodeResult, error) {
	l, err := ex.eval(x.L)
	if err != nil {
		return nodeResult{}, err
	}
	r, err := ex.eval(x.R)
	if err != nil {
		return nodeResult{}, err
	}
	// Exchange: both inputs are shuffled/read by the join stage.
	ex.res.TotalRead += logicalBytes(l.table, l.mult) + logicalBytes(r.table, r.mult)

	algo := x.Algo
	if algo == plan.JoinAuto {
		switch {
		case len(x.LeftKeys) == 0:
			algo = plan.JoinLoop
		case min(l.table.NumRows(), r.table.NumRows()) <= 64:
			algo = plan.JoinLoop
		default:
			algo = plan.JoinHash
		}
	}
	mult := math.Max(l.mult, r.mult)
	out := data.NewTable(x.Schema())
	lRows, rRows := float64(logicalRows(l.table, l.mult)), float64(logicalRows(r.table, r.mult))
	var work float64

	emit := func(lr, rr data.Row) {
		combined := make(data.Row, 0, len(lr)+len(rr))
		combined = append(combined, lr...)
		combined = append(combined, rr...)
		if x.Residual != nil {
			if v := x.Residual.Eval(combined, ex.Ctx); v.Kind != data.KindBool || !v.B {
				return
			}
		}
		out.Append(combined)
	}

	var batches int64
	switch algo {
	case plan.JoinHash:
		lKeys, lb, lok := ex.vecJoinKeys(l.table, x.LeftKeys)
		rKeys, rb, rok := ex.vecJoinKeys(r.table, x.RightKeys)
		batches = lb + rb
		build := make(map[string][]data.Row, r.table.NumRows())
		for ri, rr := range r.table.Rows {
			var k string
			if rok {
				k = rKeys[ri]
			} else {
				k = ex.joinKey(rr, x.RightKeys)
			}
			build[k] = append(build[k], rr)
		}
		for li, lr := range l.table.Rows {
			var k string
			if lok {
				k = lKeys[li]
			} else {
				k = ex.joinKey(lr, x.LeftKeys)
			}
			for _, rr := range build[k] {
				emit(lr, rr)
			}
		}
		work = (lRows + rRows) * costHashRow

	case plan.JoinMerge:
		ls := sortedByKeys(l.table, x.LeftKeys, ex.Ctx)
		rs := sortedByKeys(r.table, x.RightKeys, ex.Ctx)
		mergeJoin(ls, rs, x, ex, emit)
		sortWork := lRows*costSortRow*log2(lRows) + rRows*costSortRow*log2(rRows)
		work = (lRows+rRows)*costMergeRow + sortWork

	case plan.JoinLoop:
		if len(x.LeftKeys) == 0 {
			for _, lr := range l.table.Rows {
				for _, rr := range r.table.Rows {
					emit(lr, rr)
				}
			}
		} else if rKeys, rb, rok := ex.vecJoinKeys(r.table, x.RightKeys); rok {
			// Hoisting the inner-side key computation out of the O(n·m) pair
			// loop changes no output: key equality is unchanged, only the
			// per-pair re-evaluation is gone.
			lKeys, lb, lok := ex.vecJoinKeys(l.table, x.LeftKeys)
			batches = lb + rb
			for li, lr := range l.table.Rows {
				var lk string
				if lok {
					lk = lKeys[li]
				} else {
					lk = ex.joinKey(lr, x.LeftKeys)
				}
				for ri, rr := range r.table.Rows {
					if lk == rKeys[ri] {
						emit(lr, rr)
					}
				}
			}
		} else {
			for _, lr := range l.table.Rows {
				lk := ex.joinKey(lr, x.LeftKeys)
				for _, rr := range r.table.Rows {
					if lk == ex.joinKey(rr, x.RightKeys) {
						emit(lr, rr)
					}
				}
			}
		}
		// Broadcast nested-loop: the logical outer streams past a small
		// physical inner copied to every container.
		outer := math.Max(lRows, rRows)
		inner := float64(min(l.table.NumRows(), r.table.NumRows()))
		work = outer * costLoopOuter * (1 + 0.05*inner)
	}

	ex.record(NodeStat{Node: x, Op: "Join", Algo: algo, RowsOut: logicalRows(out, mult), BytesOut: logicalBytes(out, mult), Work: work, Batches: batches})
	return nodeResult{table: out, mult: mult}, nil
}

type keyedRows struct {
	rows []data.Row
	keys []string
}

func sortedByKeys(t *data.Table, keys []plan.Expr, ctx *plan.EvalContext) keyedRows {
	kr := keyedRows{rows: append([]data.Row(nil), t.Rows...)}
	kr.keys = make([]string, len(kr.rows))
	ex := &Executor{Ctx: ctx}
	idx := make([]int, len(kr.rows))
	for i := range idx {
		idx[i] = i
		kr.keys[i] = ex.orderedJoinKey(kr.rows[i], keys)
	}
	sort.SliceStable(idx, func(a, b int) bool { return kr.keys[idx[a]] < kr.keys[idx[b]] })
	rows := make([]data.Row, len(idx))
	ks := make([]string, len(idx))
	for i, j := range idx {
		rows[i], ks[i] = kr.rows[j], kr.keys[j]
	}
	return keyedRows{rows: rows, keys: ks}
}

func mergeJoin(l, r keyedRows, x *plan.Join, ex *Executor, emit func(lr, rr data.Row)) {
	i, j := 0, 0
	for i < len(l.rows) && j < len(r.rows) {
		switch {
		case l.keys[i] < r.keys[j]:
			i++
		case l.keys[i] > r.keys[j]:
			j++
		default:
			// Gather the equal run on both sides.
			i2 := i
			for i2 < len(l.rows) && l.keys[i2] == l.keys[i] {
				i2++
			}
			j2 := j
			for j2 < len(r.rows) && r.keys[j2] == r.keys[j] {
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					emit(l.rows[a], r.rows[b])
				}
			}
			i, j = i2, j2
		}
	}
}

func (ex *Executor) evalAggregate(x *plan.Aggregate) (nodeResult, error) {
	in, err := ex.eval(x.Child)
	if err != nil {
		return nodeResult{}, err
	}
	// Exchange: aggregation shuffles its input.
	ex.res.TotalRead += logicalBytes(in.table, in.mult)

	schema := x.Schema()
	out := data.NewTable(schema)
	var batches int64
	if nb, ok := ex.vecAggregate(in.table, x, schema, out); ok {
		batches = nb
	} else {
		states := make(map[string]*aggState)
		var order []string
		for _, row := range in.table.Rows {
			key, groupVals := ex.groupKey(row, x)
			st, ok := states[key]
			if !ok {
				st = newAggState(groupVals, len(x.Aggs))
				states[key] = st
				order = append(order, key)
			}
			st.accumulate(row, x, ex.Ctx)
		}
		for _, key := range order {
			out.Append(states[key].outputRow(x, schema))
		}
	}

	work := float64(logicalRows(in.table, in.mult)) * costAggRow
	// Output multiplicity: grouped outputs don't scale linearly with the
	// logical multiplier — distinct group counts grow sub-linearly. We keep
	// the conservative model of scaling by sqrt(mult).
	outMult := math.Sqrt(in.mult)
	if len(x.GroupBy) == 0 {
		outMult = 1
	}
	ex.record(NodeStat{Node: x, Op: "Aggregate", RowsOut: logicalRows(out, outMult), BytesOut: logicalBytes(out, outMult), Work: work, Batches: batches})
	return nodeResult{table: out, mult: outMult}, nil
}

// aggState accumulates one group's aggregates (shared by the row and
// vectorized hash-aggregate paths).
type aggState struct {
	groupVals data.Row
	sums      []float64
	counts    []int64
	mins      []data.Value
	maxs      []data.Value
}

func newAggState(groupVals data.Row, nAggs int) *aggState {
	st := &aggState{
		groupVals: groupVals,
		sums:      make([]float64, nAggs),
		counts:    make([]int64, nAggs),
		mins:      make([]data.Value, nAggs),
		maxs:      make([]data.Value, nAggs),
	}
	for i := range st.mins {
		st.mins[i] = data.Null()
		st.maxs[i] = data.Null()
	}
	return st
}

func (st *aggState) accumulate(row data.Row, x *plan.Aggregate, ctx *plan.EvalContext) {
	for i, spec := range x.Aggs {
		var v data.Value
		if spec.Arg != nil {
			v = spec.Arg.Eval(row, ctx)
			if v.IsNull() && spec.Kind != plan.AggCount {
				continue
			}
		}
		switch spec.Kind {
		case plan.AggCount:
			st.counts[i]++
		case plan.AggSum, plan.AggAvg:
			st.sums[i] += v.AsFloat()
			st.counts[i]++
		case plan.AggMin:
			if st.mins[i].IsNull() || v.Compare(st.mins[i]) < 0 {
				st.mins[i] = v
			}
		case plan.AggMax:
			if st.maxs[i].IsNull() || v.Compare(st.maxs[i]) > 0 {
				st.maxs[i] = v
			}
		}
	}
}

func (st *aggState) outputRow(x *plan.Aggregate, schema data.Schema) data.Row {
	row := make(data.Row, 0, len(schema))
	row = append(row, st.groupVals...)
	for i, spec := range x.Aggs {
		switch spec.Kind {
		case plan.AggCount:
			row = append(row, data.Int(st.counts[i]))
		case plan.AggSum:
			if spec.Arg != nil && spec.Arg.Kind() == data.KindInt {
				row = append(row, data.Int(int64(st.sums[i])))
			} else {
				row = append(row, data.Float(st.sums[i]))
			}
		case plan.AggAvg:
			if st.counts[i] == 0 {
				row = append(row, data.Null())
			} else {
				row = append(row, data.Float(st.sums[i]/float64(st.counts[i])))
			}
		case plan.AggMin:
			row = append(row, st.mins[i])
		case plan.AggMax:
			row = append(row, st.maxs[i])
		}
	}
	return row
}

// groupKey computes one row's group key and values, using the same
// collision-free length-prefixed encoding as joinKey (keys.go).
func (ex *Executor) groupKey(row data.Row, x *plan.Aggregate) (string, data.Row) {
	groupVals := make(data.Row, len(x.GroupBy))
	var buf [64]byte
	key := buf[:0]
	for i, g := range x.GroupBy {
		v := g.Eval(row, ex.Ctx)
		groupVals[i] = v
		key = appendKeyValue(key, v)
	}
	return string(key), groupVals
}

func (ex *Executor) evalUnion(x *plan.Union) (nodeResult, error) {
	l, err := ex.eval(x.L)
	if err != nil {
		return nodeResult{}, err
	}
	r, err := ex.eval(x.R)
	if err != nil {
		return nodeResult{}, err
	}
	out := data.NewTable(l.table.Schema)
	out.Rows = append(out.Rows, l.table.Rows...)
	out.Rows = append(out.Rows, r.table.Rows...)
	mult := math.Max(l.mult, r.mult)
	work := float64(logicalRows(out, mult)) * costUnionRow
	ex.record(NodeStat{Node: x, Op: "Union", RowsOut: logicalRows(out, mult), BytesOut: logicalBytes(out, mult), Work: work})
	return nodeResult{table: out, mult: mult}, nil
}

func (ex *Executor) evalUDO(x *plan.UDO) (nodeResult, error) {
	in, err := ex.eval(x.Child)
	if err != nil {
		return nodeResult{}, err
	}
	impl, ok := plan.LookupUDO(x.Name)
	if !ok {
		return nodeResult{}, fmt.Errorf("exec: unknown UDO %q", x.Name)
	}
	out := data.NewTable(impl.OutSchema(in.table.Schema))
	for _, row := range in.table.Rows {
		impl.Apply(row, func(r data.Row) { out.Append(r) }, ex.Ctx)
	}
	work := float64(logicalRows(in.table, in.mult)) * costUDORow
	ex.record(NodeStat{Node: x, Op: "UDO", RowsOut: logicalRows(out, in.mult), BytesOut: logicalBytes(out, in.mult), Work: work})
	return nodeResult{table: out, mult: in.mult}, nil
}

func (ex *Executor) evalSample(x *plan.Sample) (nodeResult, error) {
	in, err := ex.eval(x.Child)
	if err != nil {
		return nodeResult{}, err
	}
	out := data.NewTable(in.table.Schema)
	threshold := uint64(x.Percent / 100 * float64(1<<32))
	var batches int64
	if ex.Vectorized {
		batches = ex.vecSample(in.table, threshold, out)
	} else {
		for _, row := range in.table.Rows {
			var h uint64 = 1469598103934665603
			for _, v := range row {
				for _, c := range []byte(v.String()) {
					h = (h ^ uint64(c)) * 1099511628211
				}
			}
			// Finalize: FNV avalanches poorly on short inputs, so mix before
			// thresholding to keep the sample unbiased.
			h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
			h = (h ^ (h >> 27)) * 0x94d049bb133111eb
			h ^= h >> 31
			if (h>>32)%(1<<32) < threshold {
				out.Append(row)
			}
		}
	}
	work := float64(logicalRows(in.table, in.mult)) * costSampleRow
	ex.record(NodeStat{Node: x, Op: "Sample", RowsOut: logicalRows(out, in.mult), BytesOut: logicalBytes(out, in.mult), Work: work, Batches: batches})
	return nodeResult{table: out, mult: in.mult}, nil
}

func (ex *Executor) evalSort(x *plan.Sort) (nodeResult, error) {
	in, err := ex.eval(x.Child)
	if err != nil {
		return nodeResult{}, err
	}
	out := data.NewTable(in.table.Schema)
	batches, ok := ex.vecSort(in.table, x, out)
	if !ok {
		out.Rows = append(out.Rows, in.table.Rows...)
		sort.SliceStable(out.Rows, func(a, b int) bool {
			for i, k := range x.Keys {
				va := k.Eval(out.Rows[a], ex.Ctx)
				vb := k.Eval(out.Rows[b], ex.Ctx)
				cmp := va.Compare(vb)
				if x.Desc[i] {
					cmp = -cmp
				}
				if cmp != 0 {
					return cmp < 0
				}
			}
			return false
		})
	}
	rows := float64(logicalRows(out, in.mult))
	work := rows * costOrderRow * log2(rows)
	ex.record(NodeStat{Node: x, Op: "Sort", RowsOut: logicalRows(out, in.mult), BytesOut: logicalBytes(out, in.mult), Work: work, Batches: batches})
	return nodeResult{table: out, mult: in.mult}, nil
}

func (ex *Executor) evalSpool(x *plan.Spool) (nodeResult, error) {
	in, err := ex.eval(x.Child)
	if err != nil {
		return nodeResult{}, err
	}
	lb := logicalBytes(in.table, in.mult)
	writeWork := float64(lb) * costWriteByte
	if ex.Views != nil && x.StrictSig != "" {
		if ex.Faults.Enabled(fault.SpoolWrite) &&
			ex.Faults.Should(fault.SpoolWrite, ex.JobID+"|"+x.StrictSig) {
			// Injected materialization failure: the write was attempted (its
			// work is still charged) but the artifact never lands. The job
			// carries on — only the view is lost; the engine abandons the
			// staged signature when it sees the failure count.
			ex.Trace.Event("spool.write.failed", fmt.Sprintf("sig=%s reason=injected", signature.Sig(x.StrictSig).Short()))
			ex.res.SpoolWriteFailures++
		} else if err := ex.Views.Materialize(signature.Sig(x.StrictSig), x.Path, x.VC, in.table.Clone(), in.mult); err != nil {
			return nodeResult{}, fmt.Errorf("exec: materializing view: %w", err)
		}
	}
	ex.record(NodeStat{Node: x, Op: "Spool", RowsOut: logicalRows(in.table, in.mult), BytesOut: lb, Work: writeWork})
	ex.res.SpoolWork += writeWork
	return in, nil
}

func (ex *Executor) evalOutput(x *plan.Output) (nodeResult, error) {
	in, err := ex.eval(x.Child)
	if err != nil {
		return nodeResult{}, err
	}
	lb := logicalBytes(in.table, in.mult)
	work := float64(lb) * costWriteByte
	ex.record(NodeStat{Node: x, Op: "Output", RowsOut: logicalRows(in.table, in.mult), BytesOut: lb, Work: work})
	return in, nil
}

// log2 feeds the n·log(n) cost terms. Inputs below 2 — including 0, negative
// row counts from degenerate multipliers, and NaN (for which `x < 2` is
// false, so a plain clamp would leak it through math.Log2 and poison every
// downstream Work total) — all clamp to 1.
func log2(x float64) float64 {
	if !(x >= 2) {
		return 1
	}
	return math.Log2(x)
}
