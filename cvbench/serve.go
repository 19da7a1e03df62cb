package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"cloudviews"
	"cloudviews/internal/cluster"
	"cloudviews/internal/obs"
	"cloudviews/internal/server"
)

// The http-serve workload is an open loop: requests are due at a fixed rate
// whether or not earlier ones have returned, and each is timed from when it
// was due. The mix is sync job submissions plus explain reads and a timed
// /metrics scrape, over keep-alive loopback connections, one per usable CPU,
// from a load generator in its own process (loadgen.go).
const (
	// serveRate is the offered rate of the latency phase, requests/s:
	// about 45% of the capacity measured on a 2-vCPU VM. At 500 and 1000/s,
	// with the CPUs mostly idle between requests, p50 and p99 spread two to
	// three times as much from run to run there.
	serveRate = 2000.0
	// serveRequests is the fixed number of timed requests per round.
	serveRequests = 4000
	// serveWarmup requests run at the same rate before the timed ones in
	// every round, untimed: they open the round's keep-alive connections and
	// take the fresh server's first-request costs.
	serveWarmup = 500
	// serveRounds is the fixed work of a run; the latency percentiles are
	// the medians of the rounds' own. The first capacityRounds rounds also
	// search the capacity ladder; capacity is their median.
	serveRounds    = 12
	capacityRounds = 4
	// serveLimitMS is the p99 latency limit the capacity search holds. It
	// sits above the pauses a garbage collection imposes on every request
	// in flight, so the search finds where the backlog starts to grow.
	serveLimitMS = 25.0
	// keepUp is the share of the offered rate a rung's completions must
	// reach: below it the backlog grew.
	keepUp = 0.95
	// serveLateLimitMS marks a run invalid: when the generator's own p99
	// lateness over every latency-phase request exceeds it, the generator,
	// not the server, fell behind.
	serveLateLimitMS = serveLimitMS / 2
	// Every explainEvery-th request reads the explain report of the most
	// recently finished job. The share is an assumption; no source gives
	// how often clients read explain reports.
	explainEvery = 10
	// scrapeInterval spaces the /metrics scrapes of a phase. It is an
	// assumption, far shorter than a monitoring system's usual interval of
	// 15 s or more, so that every 2 s latency phase holds two scrapes; at
	// 2000 requests/s that is 1 request in 2000, too few to set the p99.
	scrapeInterval = time.Second
	// The capacity ladder: rate k is ladderBase × ladderStep^k, each rung
	// offered for stepSec seconds.
	ladderBase = 250.0
	ladderStep = 1.05
	stepSec    = 0.5
	// serveProbeJobs is how many jobs the traced run posts straight into
	// the handler, with no network.
	serveProbeJobs = 400
)

const adminToken = "bench-admin"

func vcToken(vc string) string { return "token-" + vc }

// serveEnv is a primed system behind a cvserve handler on a loopback
// listener.
type serveEnv struct {
	*hotEnv
	srv  *server.Server
	reg  *obs.Registry
	hs   *http.Server
	done chan struct{}
	url  string
	// gen is the run's load generator, set after set-up.
	gen *loadgen
}

func newServeEnv(seed uint64) (*serveEnv, error) {
	hot, err := newHotEnv(seed, true)
	if err != nil {
		return nil, err
	}
	tokens := make(map[string]string)
	for _, vc := range hotVCs {
		tokens[vcToken(vc)] = vc
	}
	reg := obs.NewRegistry()
	srv, err := server.New(server.Config{
		System: hot.sys, Tokens: tokens, AdminToken: adminToken, Metrics: reg,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &serveEnv{
		hotEnv: hot, srv: srv, reg: reg,
		hs:   &http.Server{Handler: srv.Handler()},
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(e.done)
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return e, nil
}

// close stops the listener, waits for the serving goroutine, and drains the
// system.
func (e *serveEnv) close() error {
	err := e.hs.Close()
	<-e.done
	if serr := e.srv.Shutdown(); err == nil {
		err = serr
	}
	return err
}

// reqResult is what one request left for the checks.
type reqResult struct {
	post   bool
	id     string
	k      int // template index
	reused int
	work   float64
	err    error
}

// phase is one open-loop run at a fixed rate.
type phase struct {
	latMS, lateMS []float64
	results       []reqResult
	wall          time.Duration
	// genCPU is the generator process's CPU time during the phase.
	genCPU float64
}

// run has the generator offer n requests at rate, jobs numbered from first,
// and records a span per request when tr is set.
func (e *serveEnv) run(rate float64, n, first int, tr *tracer) (*phase, error) {
	req := lgPhase{URL: e.url, Rate: rate, N: n, First: first, Base: e.base.Unix()}
	for _, j := range e.jobs {
		req.Templates = append(req.Templates, lgTemplate{VC: j.VC, Pipeline: j.Pipeline, Script: j.Script})
	}
	reply, err := e.gen.run(req)
	if err != nil {
		return nil, err
	}
	ph := &phase{wall: time.Duration(reply.WallNS), genCPU: reply.CPUSec}
	for _, op := range reply.Ops {
		ph.latMS = append(ph.latMS, op.LatMS)
		ph.lateMS = append(ph.lateMS, op.LateMS)
		res := reqResult{post: op.Kind == "post", id: op.ID, k: op.K, reused: op.Reused, work: op.Work}
		if op.Err != "" {
			res.err = errors.New(op.Err)
		}
		ph.results = append(ph.results, res)
		if op.Start != 0 {
			tr.add("http."+op.Kind, op.ID, time.Unix(0, op.Start), time.Unix(0, op.End))
		}
	}
	return ph, nil
}

// check reads every submitted job's rows back from the handler, in process,
// and compares them with the template's reuse-off answer. Replies that carry
// the same rows are rendered as an answer once.
func (e *serveEnv) check(ph *phase, chk *checker) {
	handler := e.srv.Handler()
	want := make([]answer, len(e.want))
	for i, w := range e.want {
		want[i] = tableAnswer(w)
	}
	seen := make(map[string]answer)
	for _, res := range ph.results {
		if res.err != nil {
			chk.fail(res.err)
			continue
		}
		if !res.post {
			continue
		}
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+res.id+"?rows=1000", nil)
		req.Header.Set("Authorization", "Bearer "+vcToken(hotVCs[res.k%len(hotVCs)]))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		var st struct {
			Result *struct {
				Columns []string        `json:"columns"`
				Data    json.RawMessage `json:"data"`
			} `json:"result"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusOK || st.Result == nil {
			chk.fail(fmt.Errorf("reading %s: status %d: %s", res.id, rec.Code, clip(rec.Body.String())))
			continue
		}
		key := strings.Join(st.Result.Columns, ",") + "\n" + string(st.Result.Data)
		got, ok := seen[key]
		if !ok {
			var rows [][]string
			if err := json.Unmarshal(st.Result.Data, &rows); err != nil {
				chk.fail(fmt.Errorf("reading %s: rows: %w", res.id, err))
				continue
			}
			got = newAnswer(st.Result.Columns, rows)
			seen[key] = got
		}
		chk.check(res.id, got, want[res.k])
	}
}

// passes reports whether a ladder rung met the latency limit with no failed
// request and no growing backlog: the last reply came in time for the
// completion rate to keep up with the offered rate.
func (ph *phase) passes(rate float64) bool {
	for _, r := range ph.results {
		if r.err != nil {
			return false
		}
	}
	achieved := float64(len(ph.results)) / ph.wall.Seconds()
	return quantile(ph.latMS, 0.99) <= serveLimitMS && achieved >= keepUp*rate
}

func ladderRate(k int) float64 { return ladderBase * math.Pow(ladderStep, float64(k)) }

// capacity searches the ladder for the highest rung that passes, starting
// at rung k0: up one rung at a time while rungs pass, or down one at a time
// until one does. A rung fails only if it fails twice in a row, so one
// collection pause does not end the search. It returns the rung, the
// completions per second on it, and how many requests it sent. Every rung's
// answers are checked before the next rung starts.
func (e *serveEnv) capacity(k0, first int, chk *checker) (k int, jobsPerSec float64, sent int, err error) {
	try := func(k int) (float64, bool) {
		rate := ladderRate(k)
		n := int(rate * stepSec)
		for attempt := 0; attempt < 2; attempt++ {
			ph, rerr := e.run(rate, n, first+sent, nil)
			if rerr != nil {
				err = rerr
				return 0, false
			}
			sent += n
			e.check(ph, chk)
			if ph.passes(rate) {
				return float64(n) / ph.wall.Seconds(), true
			}
		}
		return 0, false
	}
	if jps, ok := try(k0); ok {
		for k = k0; ; k++ {
			next, ok := try(k + 1)
			if !ok {
				return k, jps, sent, err
			}
			jps = next
		}
	}
	for k = k0 - 1; k >= 0 && err == nil; k-- {
		if jps, ok := try(k); ok {
			return k, jps, sent, nil
		}
	}
	if err != nil {
		return 0, 0, sent, err
	}
	return 0, 0, sent, fmt.Errorf("no ladder rate down to %.0f/s meets the %.1f ms p99 limit", ladderBase, serveLimitMS)
}

// startRung is the first capacity search's starting rung: one below the
// rate at which the latency phase's CPU time per request, server's and
// generator's, would fill every CPU.
func startRung(cpuSec float64, requests int) int {
	saturation := float64(submitters()) * float64(requests) / cpuSec
	return max(int(math.Floor(math.Log(saturation/ladderBase)/math.Log(ladderStep)))-1, 0)
}

// serveStats accumulates one pass of http-serve.
type serveStats struct {
	hotStats
	// lateMS is the pacer's lateness over every timed request.
	lateMS          []float64
	capRate, capJPS []float64
	// capRung is where the next capacity search starts; -1 before the first.
	capRung        int
	shed, requests float64
	// probe is the traced pass's layer probe, run after round 0.
	probe *probe
}

func runServe(cfg runConfig) (out *outcome, err error) {
	st := &serveStats{capRung: -1}
	chk := newChecker()
	gen, err := startLoadgen()
	if err != nil {
		return nil, err
	}
	defer func() {
		if gerr := gen.stop(); err == nil && gerr != nil {
			out, err = nil, gerr
		}
	}()
	err = rounds(cfg, serveRounds, func(r int, fixed bool) error {
		return serveRound(cfg, r, fixed, gen, st, chk)
	})
	if err != nil {
		return nil, err
	}
	if chk.firstErr != nil {
		return nil, chk.firstErr
	}
	err = padSetups(&st.setup, func() error {
		e, err := newServeEnv(cfg.seed)
		if err != nil {
			return err
		}
		return e.close()
	})
	if err != nil {
		return nil, err
	}
	out = hotOutcome(&st.hotStats, chk)
	out.e2e["capacity_jobs_per_s"] = median(st.capRate)
	out.e2e["jobs_per_s"] = median(st.capJPS)
	if share := out.reuseJobShare; share < 0.5 {
		return nil, fmt.Errorf("only %.1f%% of jobs reused a view: the workload no longer exercises reuse", 100*share)
	}
	late := quantile(st.lateMS, 0.99)
	out.layer["loadgen.late_p99_ms"] = late
	out.layer["server.shed_ratio"] = ratio(st.shed, st.requests)
	if late > serveLateLimitMS {
		out.invalid = fmt.Sprintf("the load generator's p99 lateness was %.3f ms, above %.1f ms: the generator, not the server, fell behind", late, serveLateLimitMS)
	}
	out.note = fmt.Sprintf("%d requests, %d answers checked, capacity searches %.0f/s at p99 <= %.0f ms, generator p99 late %.3f ms",
		st.allJobs, chk.checked, st.capRate, serveLimitMS, late)
	if cfg.tr != nil {
		st.probe.fill(out.layer)
		st.probe.fillServer(out.layer)
		cost, err := hotReuseCost(cfg.seed)
		if err != nil {
			return nil, err
		}
		out.layer["core.reuse_cost_ratio"] = cost
	}
	return out, nil
}

// serveRound runs round r on a fresh system, with gen as its load
// generator.
func serveRound(cfg runConfig, r int, fixed bool, gen *loadgen, st *serveStats, chk *checker) (err error) {
	t0 := time.Now()
	e, err := newServeEnv(cfg.seed)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := e.close(); err == nil {
			err = cerr
		}
	}()
	st.setup = append(st.setup, time.Since(t0).Seconds())
	e.gen = gen
	warm, err := e.run(serveRate, serveWarmup, 0, nil)
	if err != nil {
		return err
	}
	e.check(warm, chk)
	heap0 := liveHeap()
	rt0, cpu0 := readRuntime(), cpuSeconds()
	ph, err := e.run(serveRate, serveRequests, serveWarmup, cfg.tr)
	if err != nil {
		return err
	}
	rt1 := readRuntime()
	cpu := cpuSeconds() - cpu0
	st.allJobs += serveWarmup + serveRequests
	st.lateMS = append(st.lateMS, ph.lateMS...)
	e.check(ph, chk)
	st.rt.add(rt0, rt1)
	st.addLatency(ph.latMS)
	heap1 := liveHeap()
	posts := 0
	for _, res := range ph.results {
		if res.post {
			posts++
		}
	}
	st.heapMB = append(st.heapMB, float64(heap1)/(1<<20))
	st.retainedKB = append(st.retainedKB, float64(heap1-min(heap0, heap1))/float64(posts)/1024)
	if fixed {
		st.fixedRounds++
		st.jobs += posts
		// An open loop's wall time is its schedule; what tracing costs
		// shows as CPU time.
		st.loopSec += cpu
		hits, misses := e.sys.Engine().PlanCacheStats()
		st.planHits += hits
		st.planMisses += misses
		snap := e.sys.Metrics().Snapshot()
		st.cacheHits += snap["cloudviews_exec_cache_hits_total"]
		st.engineJobs += snap["cloudviews_jobs_total"]
		st.liveViews = float64(e.sys.ViewCount())
		for _, res := range ph.results {
			st.processing += res.work
			st.reused += res.reused
			if res.reused > 0 {
				st.reuseJobs++
			}
		}
		for name, v := range e.reg.Snapshot() {
			switch {
			case strings.HasPrefix(name, "cvserve_shed_total"):
				st.shed += v
			case strings.HasPrefix(name, "cvserve_requests_total"):
				st.requests += v
			}
		}
	}
	st.analyze = append(st.analyze, e.analyze()...)
	if cfg.tr != nil && r == 0 {
		if st.probe, err = probeServe(cfg.tr, e); err != nil {
			return err
		}
	}
	if r < capacityRounds && !cfg.fixed {
		// Later searches start at the previous one's result.
		if st.capRung < 0 {
			st.capRung = startRung(cpu+ph.genCPU, serveRequests)
		}
		k, jps, sent, err := e.capacity(st.capRung, serveWarmup+serveRequests, chk)
		st.allJobs += sent
		if err != nil {
			return err
		}
		st.capRung = k
		st.capRate = append(st.capRate, ladderRate(k))
		st.capJPS = append(st.capJPS, jps)
	}
	return nil
}

// probeServe runs the layer probe on the templates' jobs after the round.
func probeServe(tr *tracer, e *serveEnv) (*probe, error) {
	p := newProbe(tr, e.sys.Engine(), hotVCs, cluster.Config{Capacity: 400})
	now := e.sys.Clock()
	p.analyze(now.Add(-24*time.Hour), now.Add(time.Hour), "analysis")
	var jobs []cloudviews.Job
	for k := 0; k < serveProbeJobs; k++ {
		j := e.job(1, k)
		if err := p.job(inputOf(hotCluster, j)); err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	if err := p.schedule("schedule"); err != nil {
		return nil, err
	}
	recs := e.sys.Engine().Repo.Jobs()
	if len(recs) > 4*serveProbeJobs {
		recs = recs[len(recs)-4*serveProbeJobs:]
	}
	p.record(recs)
	return p, p.handler(e.srv.Handler(), jobs, adminToken)
}

// server posts jobs straight into a fresh cvserve handler over sys, with no
// network, and reads each one's explain report.
func (p *probe) server(sys *cloudviews.System, jobs []cloudviews.Job) error {
	srv, err := server.New(server.Config{System: sys, AdminToken: adminToken, MaxTrackedJobs: len(jobs) + 1})
	if err != nil {
		return err
	}
	if err := p.handler(srv.Handler(), jobs, adminToken); err != nil {
		return err
	}
	return srv.Shutdown()
}

// handler times h.ServeHTTP on a submission of each job and on a read of
// its explain report.
func (p *probe) handler(h http.Handler, jobs []cloudviews.Job, token string) error {
	for _, j := range jobs {
		id := "probe-" + j.ID
		body, err := json.Marshal(server.SubmitRequest{
			ID: id, VC: j.VC, Pipeline: j.Pipeline, Runtime: j.Runtime, Script: j.Script,
			SubmitUnix: j.Submit.Unix(),
		})
		if err != nil {
			return err
		}
		for _, req := range []*http.Request{
			httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)),
			httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/explain", nil),
		} {
			req.Header.Set("Authorization", "Bearer "+token)
			rec := httptest.NewRecorder()
			name := "server.ServeHTTP." + strings.ToLower(req.Method)
			p.call(name, id, 0, func() float64 {
				h.ServeHTTP(rec, req)
				return float64(rec.Body.Len())
			})
			if rec.Code != http.StatusOK {
				return fmt.Errorf("probe %s %s: status %d: %s", req.Method, req.URL.Path, rec.Code, clip(rec.Body.String()))
			}
		}
	}
	return nil
}

// fillServer reports the handler probe's metrics.
func (p *probe) fillServer(layer map[string]float64) {
	layer["server.handler_us"] = p.tr.medianMicros("server.ServeHTTP.post")
	layer["server.allocs"] = p.tr.meanAllocs("server.ServeHTTP.post")
	layer["server.resp_bytes"] = p.tr.meanCount("server.ServeHTTP.post")
}
