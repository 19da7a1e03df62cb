package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cloudviews"
	"cloudviews/internal/cluster"
	"cloudviews/internal/data"
)

// The submit-hot and http-serve workloads submit a small fixed set of
// templates whose views are already sealed, so nearly every job hits the
// plan cache, reuses a view and is served from the result cache.
const (
	hotCluster = "hot"
	// hotRows is the physical row count of the fact table; its scale factor
	// makes the optimizer find the views worth building.
	hotRows = 4000
	// hotJobs is the fixed number of jobs in one submit-hot round.
	hotJobs = 20000
	// hotRounds is the fixed work of a run; more rounds run while
	// measuring time is left.
	hotRounds = 3
	// primeRuns is how many recurring instances of each template set-up
	// records before the analysis.
	primeRuns = 2
	// hotProbeJobs is how many of a round's jobs the traced run probes.
	hotProbeJobs = 400
	// analyzeReps is how many analyses a round times.
	analyzeReps = 5
)

var hotVCs = []string{"hot-vc0", "hot-vc1"}

// hotEnv is a primed System: datasets published, the templates submitted,
// analysed, their views built and sealed.
type hotEnv struct {
	sys  *cloudviews.System
	jobs []cloudviews.Job // one per template, without ID or submit time
	// want holds each template's reuse-off answer.
	want []*data.Table
	// base is the first submit time after priming.
	base time.Time
}

// hotTemplates returns the templates, with constants drawn from rng. They
// share three filtered prefixes over the fact table, one of them joined with
// a dimension table.
func hotTemplates(rng *data.Rand) []string {
	// Narrow ranges: the seed changes the constants and the data, not how
	// much work a job does.
	a, b, c := 20+rng.Intn(10), 40+rng.Intn(10), 70+rng.Intn(10)
	ev := []string{"click", "view", "purchase"}[rng.Intn(3)]
	p1 := fmt.Sprintf("p = SELECT * FROM Events WHERE Value > %d;\n", a)
	p2 := fmt.Sprintf("p = SELECT * FROM Events JOIN Users ON Events.UserId = Users.Key WHERE Value > %d;\n", b)
	p3 := fmt.Sprintf("p = SELECT * FROM Events WHERE EventType = '%s' AND Value > %d;\n", ev, a)
	return []string{
		p1 + "r = SELECT Region, COUNT(*) AS n, SUM(Value) AS s FROM p GROUP BY Region;\n",
		p1 + "r = SELECT EventType, MAX(Value) AS peak FROM p GROUP BY EventType;\n",
		p1 + fmt.Sprintf("r = SELECT Region, AVG(Value) AS v FROM p WHERE Value > %d GROUP BY Region;\n", c),
		p2 + "r = SELECT Segment, COUNT(*) AS n, AVG(Value) AS v FROM p GROUP BY Segment;\n",
		p2 + "r = SELECT Tier, SUM(Value) AS s FROM p GROUP BY Tier;\n",
		p3 + "r = SELECT Region, EventType, COUNT(*) AS n FROM p GROUP BY Region, EventType;\n",
		p3 + "r = SELECT UserId, SUM(Value) AS s FROM p GROUP BY UserId;\n",
		fmt.Sprintf("r = SELECT Region, COUNT(*) AS n FROM Events WHERE Value <= %d GROUP BY Region;\n", c),
	}
}

func newHotEnv(seed uint64, reuse bool) (*hotEnv, error) {
	sys, err := cloudviews.NewSystem(cloudviews.Config{ClusterName: hotCluster, Capacity: 400})
	if err != nil {
		return nil, err
	}
	rng := data.NewRand(seed)
	events := cloudviews.Schema{
		{Name: "Id", Kind: data.KindInt},
		{Name: "UserId", Kind: data.KindInt},
		{Name: "Region", Kind: data.KindString},
		{Name: "EventType", Kind: data.KindString},
		{Name: "Value", Kind: data.KindFloat},
	}
	users := cloudviews.Schema{
		{Name: "Key", Kind: data.KindInt},
		{Name: "Segment", Kind: data.KindString},
		{Name: "Tier", Kind: data.KindInt},
	}
	regions := []string{"us", "eu", "asia", "latam", "apac"}
	kinds := []string{"click", "view", "purchase", "error"}
	segments := []string{"consumer", "enterprise", "education", "public"}
	ev := &cloudviews.Table{Schema: events}
	for i := 0; i < hotRows; i++ {
		ev.Append(cloudviews.Row{
			data.Int(int64(i)),
			data.Int(int64(rng.Intn(500))),
			data.String_(regions[rng.Intn(len(regions))]),
			data.String_(kinds[rng.Intn(len(kinds))]),
			data.Float(float64(rng.Intn(10000)) / 50),
		})
	}
	us := &cloudviews.Table{Schema: users}
	for k := 0; k < 500; k++ {
		us.Append(cloudviews.Row{
			data.Int(int64(k)),
			data.String_(segments[rng.Intn(len(segments))]),
			data.Int(int64(1 + rng.Intn(4))),
		})
	}
	for _, d := range []struct {
		name   string
		schema cloudviews.Schema
		t      *cloudviews.Table
		scale  float64
	}{{"Events", events, ev, 10_000}, {"Users", users, us, 1}} {
		if err := sys.DefineDataset(d.name, d.schema); err != nil {
			return nil, err
		}
		if err := sys.PublishDataset(d.name, d.t); err != nil {
			return nil, err
		}
		sys.SetScaleFactor(d.name, d.scale)
	}

	env := &hotEnv{sys: sys}
	for i, script := range hotTemplates(rng) {
		env.jobs = append(env.jobs, cloudviews.Job{
			VC:       hotVCs[i%len(hotVCs)],
			Pipeline: fmt.Sprintf("hot-%d", i),
			Script:   script + fmt.Sprintf("OUTPUT r TO \"out/hot-%d\";", i),
			OptOut:   !reuse,
		})
	}
	for _, vc := range hotVCs {
		sys.OnboardVC(vc)
	}
	// Recurring instances a minute apart, the nightly analysis, one
	// instance that builds the selected views, and an hour for them to seal.
	submit := func(tag string) error {
		for i, j := range env.jobs {
			j.ID = fmt.Sprintf("prime-%s-%d", tag, i)
			if _, err := sys.SubmitScript(j); err != nil {
				return err
			}
		}
		sys.AdvanceClock(time.Minute)
		return nil
	}
	for i := 0; i < primeRuns; i++ {
		if err := submit(fmt.Sprint(i)); err != nil {
			return nil, err
		}
	}
	sys.Analyze(time.Hour)
	if err := submit("build"); err != nil {
		return nil, err
	}
	sys.AdvanceClock(time.Hour)
	env.base = sys.Clock()

	for i, j := range env.jobs {
		in := inputOf(hotCluster, j)
		in.ID = "oracle"
		want, err := replay(sys.Engine().Catalog, hotCluster, in)
		if err != nil {
			return nil, fmt.Errorf("template %d: %w", i, err)
		}
		env.want = append(env.want, want)
	}
	return env, nil
}

// analyze times the nightly analysis over everything the round recorded,
// analyzeReps times: one call takes a few milliseconds, too short to time
// alone. Each call re-selects the templates' views, which exist already.
func (e *hotEnv) analyze() []float64 {
	d := make([]float64, analyzeReps)
	for i := range d {
		t0 := time.Now()
		e.sys.Analyze(24 * time.Hour)
		d[i] = time.Since(t0).Seconds()
	}
	return d
}

// job returns the k-th job of round r: template k mod T, submitted k
// milliseconds after priming so the clock keeps moving.
func (e *hotEnv) job(r, k int) cloudviews.Job {
	j := e.jobs[k%len(e.jobs)]
	j.ID = fmt.Sprintf("hot-r%d-%d", r, k)
	j.Submit = e.base.Add(time.Duration(k) * time.Millisecond)
	return j
}

// hotResult is what one job of the timed loop left for the checks.
type hotResult struct {
	out    *data.Table
	reused int
	work   float64
	err    error
}

// submitters returns the closed loop's concurrency: one per usable CPU.
func submitters() int { return runtime.NumCPU() }

// closedLoop submits n jobs of round r from submitters() goroutines, each
// sending its next job when the previous one returns. It returns the
// per-job latencies in milliseconds and the loop's wall time.
func (e *hotEnv) closedLoop(r, n int, tr *tracer) ([]hotResult, []float64, time.Duration) {
	results := make([]hotResult, n)
	lat := make([]float64, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < submitters(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				j := e.job(r, k)
				s := tr.begin("cloudviews.System.SubmitScript", j.ID, 0)
				j0 := time.Now()
				res, err := e.sys.SubmitScript(j)
				lat[k] = float64(time.Since(j0).Nanoseconds()) / 1e6
				s.done()
				if err != nil {
					results[k] = hotResult{err: err}
					continue
				}
				results[k] = hotResult{out: res.Output, reused: res.ViewsReused, work: res.Work}
			}
		}()
	}
	wg.Wait()
	return results, lat, time.Since(t0)
}

// check compares every job's answer with its template's reuse-off answer.
// Outputs served from the result cache share one table, so each distinct
// table is rendered once.
func (e *hotEnv) check(r int, results []hotResult, chk *checker) {
	want := make([]answer, len(e.want))
	for i, w := range e.want {
		want[i] = tableAnswer(w)
	}
	seen := make(map[*data.Table]answer)
	for k, res := range results {
		id := fmt.Sprintf("hot-r%d-%d", r, k)
		if res.err != nil {
			chk.fail(fmt.Errorf("job %s: %w", id, res.err))
			continue
		}
		got, ok := seen[res.out]
		if !ok {
			got = tableAnswer(res.out)
			seen[res.out] = got
		}
		chk.check(id, got, want[k%len(want)])
	}
}

// hotStats accumulates one pass of submit-hot.
type hotStats struct {
	setup, jobsPerSec, heapMB, analyze, retainedKB []float64
	// p50MS and p99MS hold each round's latency percentiles; the reported
	// ones are their medians, so one disturbed round does not move them.
	p50MS, p99MS []float64

	fixedRounds, jobs, allJobs, built, reused, reuseJobs int
	processing                                           float64
	planHits, planMisses                                 uint64
	cacheHits, engineJobs, liveViews                     float64
	loopSec                                              float64
	rt                                                   runtimeDelta
}

func (st *hotStats) addLatency(ms []float64) {
	st.p50MS = append(st.p50MS, quantile(ms, 0.5))
	st.p99MS = append(st.p99MS, quantile(ms, 0.99))
}

func runHot(cfg runConfig) (*outcome, error) {
	st := &hotStats{}
	chk := newChecker()
	var p *probe
	err := rounds(cfg, hotRounds, func(r int, fixed bool) error {
		t0 := time.Now()
		env, err := newHotEnv(cfg.seed, true)
		if err != nil {
			return err
		}
		st.setup = append(st.setup, time.Since(t0).Seconds())
		eng := env.sys.Engine()
		heap0 := liveHeap()
		built0 := env.sys.Metrics().Snapshot()["cloudviews_views_built_total"]

		rt0 := readRuntime()
		results, lat, wall := env.closedLoop(r, hotJobs, cfg.tr)
		st.rt.add(rt0, readRuntime())

		st.jobsPerSec = append(st.jobsPerSec, hotJobs/wall.Seconds())
		st.addLatency(lat)
		st.allJobs += hotJobs
		env.check(r, results, chk)
		heap1 := liveHeap()
		st.heapMB = append(st.heapMB, float64(heap1)/(1<<20))
		st.retainedKB = append(st.retainedKB, float64(heap1-min(heap0, heap1))/hotJobs/1024)
		st.analyze = append(st.analyze, env.analyze()...)
		if fixed {
			snap := env.sys.Metrics().Snapshot()
			hits, misses := eng.PlanCacheStats()
			st.fixedRounds++
			st.jobs += hotJobs
			st.loopSec += wall.Seconds()
			st.planHits += hits
			st.planMisses += misses
			st.cacheHits += snap["cloudviews_exec_cache_hits_total"]
			st.engineJobs += snap["cloudviews_jobs_total"]
			st.built += int(snap["cloudviews_views_built_total"] - built0)
			st.liveViews = float64(env.sys.ViewCount())
			for _, res := range results {
				st.processing += res.work
				st.reused += res.reused
				if res.reused > 0 {
					st.reuseJobs++
				}
			}
		}
		if cfg.tr != nil && r == 0 {
			p, err = probeHot(cfg.tr, env, results)
			if err != nil {
				return err
			}
		}
		runtime.KeepAlive(env)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if chk.firstErr != nil {
		return nil, chk.firstErr
	}
	err = padSetups(&st.setup, func() error {
		_, err := newHotEnv(cfg.seed, true)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := hotOutcome(st, chk)
	if share := out.reuseJobShare; share < 0.5 {
		return nil, fmt.Errorf("only %.1f%% of jobs reused a view: the workload no longer exercises reuse", 100*share)
	}
	out.note = fmt.Sprintf("%d rounds, %d answers checked", len(st.jobsPerSec), chk.checked)
	out.e2e["capacity_jobs_per_s"] = out.e2e["jobs_per_s"]
	if cfg.tr != nil {
		p.fill(out.layer)
		p.fillServer(out.layer)
		cost, err := hotReuseCost(cfg.seed)
		if err != nil {
			return nil, err
		}
		out.layer["core.reuse_cost_ratio"] = cost
	}
	return out, nil
}

// hotOutcome assembles the metrics shared by submit-hot and http-serve.
func hotOutcome(st *hotStats, chk *checker) *outcome {
	out := &outcome{
		e2e: map[string]float64{
			"setup_s":               median(st.setup),
			"jobs_per_s":            median(st.jobsPerSec),
			"latency_p50_ms":        median(st.p50MS),
			"latency_p99_ms":        median(st.p99MS),
			"analyze_s":             median(st.analyze),
			"heap_mb":               median(st.heapMB),
			"processing_cs_per_job": st.processing / float64(st.jobs),
		},
		layer:                 map[string]float64{},
		attempted:             st.allJobs,
		failed:                chk.failed,
		planCacheHitShare:     ratio(float64(st.planHits), float64(st.planHits+st.planMisses)),
		reuseJobShare:         ratio(float64(st.reuseJobs), float64(st.jobs)),
		resultCacheHitsPerJob: ratio(st.cacheHits, st.engineJobs),
		det: determinism{
			Jobs: st.jobs, ViewsBuilt: st.built, ViewsReused: st.reused,
			PlanHits: st.planHits, ProcessingCS: st.processing, Answers: chk.answers(),
		},
		measuredSec: st.loopSec,
	}
	l := out.layer
	l["storage.live_views"] = st.liveViews
	l["storage.views_built"] = float64(st.built) / float64(st.fixedRounds)
	l["storage.views_reused"] = float64(st.reused) / float64(st.fixedRounds)
	l["core.plancache_hit_ratio"] = out.planCacheHitShare
	l["repository.retained_kb_per_job"] = median(st.retainedKB)
	l["loadgen.late_p99_ms"] = 0
	l["server.shed_ratio"] = 0
	st.rt.fill(l, st.jobs)
	return out
}

// probeHot runs the layer probe on a sample of the round's jobs, after the
// round's counts are taken.
func probeHot(tr *tracer, env *hotEnv, results []hotResult) (*probe, error) {
	eng := env.sys.Engine()
	p := newProbe(tr, eng, hotVCs, cluster.Config{Capacity: 400})
	now := env.sys.Clock()
	p.analyze(now.Add(-24*time.Hour), now.Add(time.Hour), "analysis")
	var jobs []cloudviews.Job
	for k := 0; k < hotProbeJobs; k++ {
		j := env.job(0, k*(len(results)/hotProbeJobs))
		if err := p.job(inputOf(hotCluster, j)); err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	if err := p.schedule("schedule"); err != nil {
		return nil, err
	}
	recs := eng.Repo.Jobs()
	if len(recs) > 4*hotProbeJobs {
		recs = recs[len(recs)-4*hotProbeJobs:]
	}
	p.record(recs)
	if err := p.server(env.sys, jobs); err != nil {
		return nil, err
	}
	return p, nil
}

// hotReuseCost submits the same job list to two fresh systems, one with
// reuse on and one with every job opted out, and returns the ratio of their
// wall time per job.
func hotReuseCost(seed uint64) (float64, error) {
	var perJob [2]float64
	for i, reuse := range []bool{true, false} {
		env, err := newHotEnv(seed, reuse)
		if err != nil {
			return 0, err
		}
		results, _, wall := env.closedLoop(0, hotJobs/4, nil)
		for _, res := range results {
			if res.err != nil {
				return 0, res.err
			}
		}
		perJob[i] = wall.Seconds() / float64(len(results))
	}
	return perJob[0] / perJob[1], nil
}
