package core

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"cloudviews/internal/data"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/sqlparser"
	"cloudviews/internal/workload"
)

// DefaultPlanCacheSize bounds the compiled-plan cache. Recurring workloads
// have a small template population (the paper's clusters see tens of
// thousands of templates against millions of jobs), so a modest LRU captures
// nearly all repeats.
const DefaultPlanCacheSize = 512

// planKey identifies one compilable unit: the token-normalized script (so
// whitespace/comment/case-of-keyword variants share an entry), the exact
// parameter bindings, and the runtime version (different runtimes never share
// signatures, so they must not share plans either).
type planKey struct {
	runtime string
	norm    string
	params  string
}

// planEntry caches the two reuse levels for one key. gen pins the catalog
// generation the entry was built against; any catalog mutation invalidates it
// (binding resolves schemas and the estimates sample dataset sizes).
type planEntry struct {
	gen  uint64
	root plan.Node // bound script output (level 1: skips parse + bind)

	// compiled is the full compile product (level 2), present only for jobs
	// the CloudViews controls disabled: their compilation is a pure function
	// of (root, estimates), with no view matching, no spool proposals, and no
	// insights round trip — so replaying it is sound whenever the controls
	// are still off and a fresh estimate pass agrees exactly. It is atomic
	// because concurrent jobs read it outside the cache lock; a reader loads
	// it once per job.
	compiled atomic.Pointer[compiledPlan]

	prev, next *planEntry
	key        planKey
}

// compiledPlan bundles everything CompileAndExecute derives from a compile
// that executions re-derive per submission: the compile result, the physical
// signature map the result cache is keyed by, and the subexpression
// enumeration the repository record is built from.
type compiledPlan struct {
	cr     *optimizer.CompileResult
	sigMap map[plan.Node]signature.Sig
	subs   []signature.Subexpr
	stages *stageTemplate
}

// planCache is a bounded LRU over planEntry. A nil *planCache disables
// caching entirely (every method no-ops).
type planCache struct {
	mu         sync.Mutex
	m          map[planKey]*planEntry
	head, tail *planEntry
	limit      int

	// norms memoizes NormalizeScript by raw script text: recurring workloads
	// resubmit a small population of byte-identical scripts, so a map hit
	// replaces re-lexing the script on every submission.
	normMu sync.Mutex
	norms  map[string]normEntry

	hits, misses atomic.Uint64
}

type normEntry struct {
	norm string
	ok   bool
}

func newPlanCache(limit int) *planCache {
	if limit < 0 {
		return nil
	}
	if limit == 0 {
		limit = DefaultPlanCacheSize
	}
	return &planCache{
		m:     make(map[planKey]*planEntry),
		norms: make(map[string]normEntry),
		limit: limit,
	}
}

// planCacheKey derives the cache key for a job input. ok is false when the
// script does not lex (the parse path will report the real error) — or when
// the cache is disabled.
func (c *planCache) planCacheKey(in workload.JobInput) (planKey, bool) {
	if c == nil {
		return planKey{}, false
	}
	norm, ok := c.normalize(in.Script)
	if !ok {
		return planKey{}, false
	}
	return planKey{runtime: in.Runtime, norm: norm, params: fingerprintParams(in.Params)}, true
}

// normalize returns the memoized token normalization of src. The memo is
// bounded at a small multiple of the entry limit; on overflow it resets
// wholesale (the population of distinct raw scripts in a recurring workload
// is small, so a reset just re-lexes each live script once).
func (c *planCache) normalize(src string) (string, bool) {
	c.normMu.Lock()
	if e, hit := c.norms[src]; hit {
		c.normMu.Unlock()
		return e.norm, e.ok
	}
	c.normMu.Unlock()
	norm, ok := sqlparser.NormalizeScript(src)
	c.normMu.Lock()
	if len(c.norms) >= 4*c.limit {
		c.norms = make(map[string]normEntry)
	}
	c.norms[src] = normEntry{norm: norm, ok: ok}
	c.normMu.Unlock()
	return norm, ok
}

// fingerprintParams renders parameter bindings deterministically. Kind and
// value are both significant (Int(1) vs String("1") bind differently).
func fingerprintParams(params map[string]data.Value) string {
	if len(params) == 0 {
		return ""
	}
	names := make([]string, 0, len(params))
	for n := range params {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		v := params[n]
		sb.WriteString(strconv.Itoa(len(n)))
		sb.WriteByte(':')
		sb.WriteString(n)
		sb.WriteByte('=')
		sb.WriteString(strconv.Itoa(int(v.Kind)))
		sb.WriteByte(':')
		s := v.String()
		sb.WriteString(strconv.Itoa(len(s)))
		sb.WriteByte(':')
		sb.WriteString(s)
	}
	return sb.String()
}

func (c *planCache) unlink(e *planEntry) {
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

func (c *planCache) pushFront(e *planEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// lookup returns the entry for key if it was built against generation gen.
// A stale entry is dropped eagerly so the subsequent store replaces it.
func (c *planCache) lookup(key planKey, gen uint64) *planEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		return nil
	}
	if e.gen != gen {
		c.unlink(e)
		delete(c.m, key)
		return nil
	}
	c.unlink(e)
	c.pushFront(e)
	return e
}

// storeBound records a freshly bound root for key (level 1). First writer
// wins under races; the loser's entry is simply not installed.
func (c *planCache) storeBound(key planKey, gen uint64, root plan.Node) *planEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok && e.gen == gen {
		c.unlink(e)
		c.pushFront(e)
		return e
	}
	e := &planEntry{gen: gen, root: root, key: key}
	if old, ok := c.m[key]; ok {
		c.unlink(old)
	}
	c.m[key] = e
	c.pushFront(e)
	for len(c.m) > c.limit && c.tail != nil {
		victim := c.tail
		c.unlink(victim)
		delete(c.m, victim.key)
	}
	return e
}

// storeCompiled attaches the level-2 compile product to an entry,
// overwriting any previous one: a newer product embeds estimates computed
// against newer history, which is what the hit-time estimate guard will be
// compared against — keeping an older product would wedge the entry in a
// permanent guard miss once history moves.
func (c *planCache) storeCompiled(e *planEntry, cp *compiledPlan) {
	if c == nil || e == nil {
		return
	}
	e.compiled.Store(cp)
}

// stats returns cumulative full-compile cache hits and misses (level 2).
func (c *planCache) stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}
