package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"cloudviews"
	"cloudviews/internal/cluster"
	"cloudviews/internal/data"
	"cloudviews/internal/experiments"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/workload"
)

// The fleet-days workload is the paper's daily feedback loop over a
// generated fleet of recurring jobs shaped like the production deployment.
const (
	// fleetScale shrinks experiments.DeploymentProfile (619 pipelines, 21
	// VCs) so one simulated fleet runs in about three seconds.
	fleetScale = 0.1
	// fleetDays is longer than one 7-day view TTL, so views are built,
	// reused and expire within every round.
	fleetDays = 8
	// fleetWindowDays is the nightly analysis window.
	fleetWindowDays = 7
	// fleetRounds is the fixed work every run does: that many fleets, each
	// from its own seed derived from the workload seed, so a run's figures
	// average over fleets of different shapes. More rounds run while
	// measuring time is left; deterministic figures come from these.
	fleetRounds = 10
	// fleetCheckEvery resubmits and checks one in this many of each day's
	// non-cooking jobs, on an untimed twin of every fleet.
	fleetCheckEvery = 4
)

// fleet is one generated cluster on a System with every VC onboarded.
type fleet struct {
	sys *cloudviews.System
	gen *workload.Generator
	cfg experiments.ProductionConfig
	vcs []string
	// cluster is the simulator configuration, for the probe's own
	// scheduler.
	cluster cluster.Config
}

func fleetSeed(seed uint64, round int) uint64 { return seed*1_000_003 + uint64(round) }

func newFleet(seed uint64, reuse bool) (*fleet, error) {
	cfg := experiments.DefaultProduction().Scale(fleetScale)
	cfg.Profile.Seed = seed
	vcs := workload.NewGenerator(nil, cfg.Profile).VCNames()
	var vcCfgs []cloudviews.VCConfig
	for _, vc := range vcs {
		vcCfgs = append(vcCfgs, cloudviews.VCConfig{Name: vc, Tokens: cfg.VCTokens})
	}
	sys, err := cloudviews.NewSystem(cloudviews.Config{
		ClusterName: cfg.Profile.Name,
		Capacity:    cfg.Capacity,
		VCs:         vcCfgs,
		Selection:   cfg.Selection,
	})
	if err != nil {
		return nil, err
	}
	gen := workload.NewGenerator(sys.Engine().Catalog, cfg.Profile)
	if err := gen.Bootstrap(); err != nil {
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	if reuse {
		for _, vc := range vcs {
			sys.OnboardVC(vc)
		}
	}
	return &fleet{sys: sys, gen: gen, cfg: cfg, vcs: vcs, cluster: cluster.Config{Capacity: cfg.Capacity, VCs: vcCfgs}}, nil
}

// fleetStats accumulates one pass of the workload.
type fleetStats struct {
	setup, heapMB, analyze, retainedKB []float64
	// p50MS and p99MS hold each twin's percentiles of its resubmissions'
	// latencies; the reported ones are their medians, so a stretch of a run
	// disturbed by other load on the machine does not move them.
	p50MS, p99MS []float64
	samples      int
	liveViews    []float64

	// jobs counts the fixed rounds' RunDay jobs; allJobs every round's.
	fixedRounds, jobs, allJobs, built, reused, reuseJobs int
	processing                                           float64
	planHits, planMisses                                 uint64
	cacheHits, engineJobs                                float64
	// runDaySec is the fixed rounds' RunDay wall time, allRunDaySec every
	// round's.
	runDaySec, allRunDaySec float64
	rt                      runtimeDelta
}

func runFleet(cfg runConfig) (*outcome, error) {
	st := &fleetStats{}
	chk := newChecker()
	var p *probe
	err := rounds(cfg, fleetRounds, func(r int, fixed bool) error {
		rp, err := fleetRound(cfg, r, fixed, st, chk)
		if r == 0 {
			p = rp
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if chk.firstErr != nil {
		return nil, chk.firstErr
	}
	err = padSetups(&st.setup, func() error {
		_, err := newFleet(fleetSeed(cfg.seed, len(st.setup)), true)
		return err
	})
	if err != nil {
		return nil, err
	}
	jps := float64(st.allJobs) / st.allRunDaySec
	out := &outcome{
		e2e: map[string]float64{
			"setup_s":               median(st.setup),
			"jobs_per_s":            jps,
			"latency_p50_ms":        median(st.p50MS),
			"latency_p99_ms":        median(st.p99MS),
			"capacity_jobs_per_s":   jps,
			"analyze_s":             median(st.analyze),
			"heap_mb":               median(st.heapMB),
			"processing_cs_per_job": st.processing / float64(st.jobs),
		},
		layer:                 map[string]float64{},
		attempted:             st.allJobs + chk.checked,
		failed:                chk.failed,
		planCacheHitShare:     ratio(float64(st.planHits), float64(st.planHits+st.planMisses)),
		reuseJobShare:         ratio(float64(st.reuseJobs), float64(st.jobs)),
		resultCacheHitsPerJob: ratio(st.cacheHits, st.engineJobs),
		det: determinism{
			Jobs: st.jobs, ViewsBuilt: st.built, ViewsReused: st.reused,
			PlanHits: st.planHits, ProcessingCS: st.processing, Answers: chk.answers(),
		},
		measuredSec: st.runDaySec,
	}
	out.note = fmt.Sprintf("%d fleets, %d latency samples, %d answers checked", len(st.heapMB), st.samples, chk.checked)
	l := out.layer
	l["storage.live_views"] = median(st.liveViews)
	l["storage.views_built"] = float64(st.built) / float64(st.fixedRounds)
	l["storage.views_reused"] = float64(st.reused) / float64(st.fixedRounds)
	l["core.plancache_hit_ratio"] = out.planCacheHitShare
	l["repository.retained_kb_per_job"] = median(st.retainedKB)
	l["loadgen.late_p99_ms"] = 0
	l["server.shed_ratio"] = 0
	st.rt.fill(l, st.jobs)
	if cfg.tr != nil {
		p.fill(l)
		cost, err := fleetReuseCost(cfg.seed)
		if err != nil {
			return nil, err
		}
		l["core.reuse_cost_ratio"] = cost
		p.fillServer(l)
	}
	return out, nil
}

// fleetRound runs one fleet for fleetDays days. Deterministic totals are
// accumulated for the fixed rounds only.
func fleetRound(cfg runConfig, r int, fixed bool, st *fleetStats, chk *checker) (*probe, error) {
	t0 := time.Now()
	f, err := newFleet(fleetSeed(cfg.seed, r), true)
	if err != nil {
		return nil, err
	}
	st.setup = append(st.setup, time.Since(t0).Seconds())
	heap0 := liveHeap()
	eng := f.sys.Engine()

	var p *probe
	if cfg.tr != nil && r == 0 {
		p = newProbe(cfg.tr, eng, f.vcs, f.cluster)
	}
	var checkJobs []cloudviews.Job
	for day := 0; day < fleetDays; day++ {
		if day > 0 {
			if err := f.gen.AdvanceDay(day); err != nil {
				return nil, err
			}
		}
		jobs := f.gen.JobsForDay(day)
		dayTrace := fmt.Sprintf("round%d-day%d", r, day)
		s := cfg.tr.begin("core.Engine.RunDay", dayTrace, 0)
		rt0 := readRuntime()
		d0 := time.Now()
		m, err := eng.RunDay(day, jobs)
		dt := time.Since(d0).Seconds()
		st.rt.add(rt0, readRuntime())
		s.done()
		if err != nil {
			return nil, fmt.Errorf("day %d: %w", day, err)
		}
		st.allJobs += len(jobs)
		st.allRunDaySec += dt
		if fixed {
			st.jobs += len(jobs)
			st.built += m.ViewsBuilt
			st.reused += m.ViewsReused
			st.processing += m.ProcessingSec
			st.runDaySec += dt
		}
		if p != nil {
			for _, in := range jobs {
				if err := p.job(in); err != nil {
					return nil, err
				}
			}
			if err := p.schedule(dayTrace); err != nil {
				return nil, err
			}
			// The handler probe posts the day's check sample, less the
			// parameterised scripts, into this fleet after its counts.
			for _, job := range checkSample(cfg.seed, r, day, jobs) {
				if !strings.Contains(job.Script, "@") {
					checkJobs = append(checkJobs, job)
				}
			}
		}

		to := fixtures.Epoch.AddDate(0, 0, day+1)
		from := to.AddDate(0, 0, -fleetWindowDays)
		s = cfg.tr.begin("core.Engine.RunAnalysis", dayTrace, 0)
		a0 := time.Now()
		eng.RunAnalysis(from, to)
		st.analyze = append(st.analyze, time.Since(a0).Seconds())
		s.done()
		if p != nil {
			p.record(eng.Repo.JobsBetween(to.AddDate(0, 0, -1), to))
			p.analyze(from, to, dayTrace)
		}
	}
	st.liveViews = append(st.liveViews, float64(f.sys.ViewCount()))

	recorded := eng.Repo.Len()
	heap1 := liveHeap()
	st.heapMB = append(st.heapMB, float64(heap1)/(1<<20))
	st.retainedKB = append(st.retainedKB, float64(heap1-min(heap0, heap1))/float64(recorded)/1024)
	if fixed {
		st.fixedRounds++
		hits, misses := eng.PlanCacheStats()
		st.planHits += hits
		st.planMisses += misses
		snap := f.sys.Metrics().Snapshot()
		st.cacheHits += snap["cloudviews_exec_cache_hits_total"]
		st.engineJobs += snap["cloudviews_jobs_total"]
		for _, rec := range eng.Repo.Jobs() {
			if rec.ViewsReused > 0 {
				st.reuseJobs++
			}
		}
	}
	if p != nil {
		if err := p.server(f.sys, checkJobs); err != nil {
			return nil, err
		}
	}
	runtime.KeepAlive(f)
	if err := checkTwin(cfg, r, st, chk); err != nil {
		return nil, err
	}
	return p, nil
}

// checkSample picks the seeded sample of a day's non-cooking jobs that the
// answer check resubmits, stamped at the end of the day, when the day's
// views have sealed.
func checkSample(seed uint64, r, day int, jobs []workload.JobInput) []cloudviews.Job {
	dayEnd := fixtures.Epoch.AddDate(0, 0, day+1).Add(-time.Second)
	rng := data.NewRand(fleetSeed(seed, r) ^ uint64(day+1)*0x9e3779b97f4a7c15)
	var out []cloudviews.Job
	for _, in := range jobs {
		if in.Cooking || rng.Intn(fleetCheckEvery) != 0 {
			continue
		}
		out = append(out, cloudviews.Job{
			ID: "chk-" + in.ID, VC: in.VC, Pipeline: in.Pipeline, User: in.User,
			Runtime: in.Runtime, Script: in.Script, Params: in.Params, Submit: dayEnd,
		})
	}
	return out
}

// checkTwin runs round r's fleet again, untimed, on a twin built from the
// same seed, and checks answers there: after each day's RunDay it resubmits
// the day's check sample through System.SubmitScript, times each
// submission, and compares each answer with the reuse-off replay. The check
// jobs enter only the twin's repository, analysis and view store, so the
// timed fleet's figures describe RunDay jobs alone.
func checkTwin(cfg runConfig, r int, st *fleetStats, chk *checker) error {
	g, err := newFleet(fleetSeed(cfg.seed, r), true)
	if err != nil {
		return err
	}
	eng := g.sys.Engine()
	var latMS []float64
	for day := 0; day < fleetDays; day++ {
		if day > 0 {
			if err := g.gen.AdvanceDay(day); err != nil {
				return err
			}
		}
		jobs := g.gen.JobsForDay(day)
		if _, err := eng.RunDay(day, jobs); err != nil {
			return fmt.Errorf("twin day %d: %w", day, err)
		}
		for _, job := range checkSample(cfg.seed, r, day, jobs) {
			s := cfg.tr.begin("cloudviews.System.SubmitScript", job.ID, 0)
			j0 := time.Now()
			res, err := g.sys.SubmitScript(job)
			lat := time.Since(j0)
			s.done()
			if err != nil {
				chk.fail(fmt.Errorf("resubmit %s: %w", job.ID, err))
				continue
			}
			latMS = append(latMS, float64(lat.Nanoseconds())/1e6)
			want, err := replay(eng.Catalog, g.cfg.Profile.Name, inputOf(g.cfg.Profile.Name, job))
			if err != nil {
				chk.fail(err)
				continue
			}
			chk.check(job.ID, tableAnswer(res.Output), tableAnswer(want))
		}
		to := fixtures.Epoch.AddDate(0, 0, day+1)
		eng.RunAnalysis(to.AddDate(0, 0, -fleetWindowDays), to)
	}
	st.p50MS = append(st.p50MS, quantile(latMS, 0.5))
	st.p99MS = append(st.p99MS, quantile(latMS, 0.99))
	st.samples += len(latMS)
	return nil
}

// fleetReuseCost runs round 0's fleet twice, reuse on and reuse off (no VC
// onboarded), and returns the ratio of their RunDay µs per job.
func fleetReuseCost(seed uint64) (float64, error) {
	var perJob [2]float64
	for i, reuse := range []bool{true, false} {
		f, err := newFleet(fleetSeed(seed, 0), reuse)
		if err != nil {
			return 0, err
		}
		var jobs int
		var sec float64
		for day := 0; day < fleetDays; day++ {
			if day > 0 {
				if err := f.gen.AdvanceDay(day); err != nil {
					return 0, err
				}
			}
			in := f.gen.JobsForDay(day)
			t0 := time.Now()
			if _, err := f.sys.Engine().RunDay(day, in); err != nil {
				return 0, err
			}
			sec += time.Since(t0).Seconds()
			jobs += len(in)
			to := fixtures.Epoch.AddDate(0, 0, day+1)
			f.sys.Engine().RunAnalysis(to.AddDate(0, 0, -fleetWindowDays), to)
		}
		perJob[i] = sec / float64(jobs)
	}
	return perJob[0] / perJob[1], nil
}

// inputOf is the engine input a System submission becomes.
func inputOf(clusterName string, j cloudviews.Job) workload.JobInput {
	in := workload.JobInput{
		ID: j.ID, Cluster: clusterName, VC: j.VC, Pipeline: j.Pipeline, User: j.User,
		Runtime: j.Runtime, Script: j.Script, Params: j.Params, Submit: j.Submit, OptIn: !j.OptOut,
	}
	if in.Runtime == "" {
		in.Runtime = "scope-r1"
	}
	return in
}

// liveHeap is the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
