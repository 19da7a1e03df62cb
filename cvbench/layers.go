package main

import (
	"fmt"
	"runtime"
	"time"

	"cloudviews/internal/analysis"
	"cloudviews/internal/catalog"
	"cloudviews/internal/cluster"
	"cloudviews/internal/core"
	"cloudviews/internal/data"
	"cloudviews/internal/exec"
	"cloudviews/internal/explain"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/insights"
	"cloudviews/internal/obs"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/plan"
	"cloudviews/internal/repository"
	"cloudviews/internal/signature"
	"cloudviews/internal/sqlparser"
	"cloudviews/internal/stats"
	"cloudviews/internal/storage"
	"cloudviews/internal/telemetry"
	"cloudviews/internal/workload"
)

// engineRandSeed is the seed core.NewEngine gives the randomness of
// user-defined operators; each job forks it by jobHash of its ID. The replay
// does the same, so operators that draw random numbers agree with the engine.
const engineRandSeed = 99

// jobHash mirrors the engine's per-job fork key.
func jobHash(s string) uint64 {
	var h uint64 = 1469598103934665603
	for _, c := range []byte(s) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// replay computes a job's answer with reuse off, one layer at a time: parse,
// bind, compile with no views and no history, execute with no result cache.
// It is the oracle every reuse-on answer is checked against.
func replay(cat *catalog.Catalog, clusterName string, in workload.JobInput) (*data.Table, error) {
	script, err := sqlparser.Parse(in.Script)
	if err != nil {
		return nil, fmt.Errorf("replay %s: parse: %w", in.ID, err)
	}
	outs, err := (&plan.Binder{Catalog: cat, Params: in.Params}).BindScript(script)
	if err != nil {
		return nil, fmt.Errorf("replay %s: bind: %w", in.ID, err)
	}
	if len(outs) != 1 {
		return nil, fmt.Errorf("replay %s: %d outputs", in.ID, len(outs))
	}
	signer := &signature.Signer{EngineVersion: clusterName + "/" + in.Runtime}
	opt := &optimizer.Optimizer{Signer: signer, Est: stats.NewEstimator(), History: stats.NewHistory()}
	cr := opt.Compile(outs[0], optimizer.CompileOptions{JobID: in.ID, Cluster: clusterName, VC: in.VC})
	ex := &exec.Executor{
		Catalog:    cat,
		SigMap:     signer.Physical(cr.Plan),
		Vectorized: true,
		Ctx: &plan.EvalContext{
			NowNanos: in.Submit.UnixNano(),
			Rand:     data.NewRand(engineRandSeed).Fork(jobHash(in.ID)),
		},
	}
	res, err := ex.Run(cr.Plan)
	if err != nil {
		return nil, fmt.Errorf("replay %s: exec: %w", in.ID, err)
	}
	return res.Table, nil
}

// probe calls each layer's public function on job inputs the workload also
// submitted, with a span around every call. It never mutates the system
// under test: it reads the live engine's catalog, statistics and repository,
// and keeps private copies of everything a compile or execute writes to
// (view store, insights service, result cache, repository, cluster
// simulator, telemetry collector).
type probe struct {
	tr      *tracer
	eng     *core.Engine
	cluster string
	vcs     []string
	simCfg  cluster.Config

	store   *storage.Store
	ins     *insights.Service
	cache   *exec.Cache
	repo    *repository.Repo
	coll    *telemetry.Collector
	signers map[string]*signature.Signer
	specs   []cluster.JobSpec

	jobs, reuseJobs, cacheHitJobs int
	matched, decisions            float64
	candidates                    []float64
}

func newProbe(tr *tracer, eng *core.Engine, vcs []string, simCfg cluster.Config) *probe {
	return &probe{
		tr:      tr,
		eng:     eng,
		cluster: eng.ClusterName,
		vcs:     vcs,
		simCfg:  simCfg,
		repo:    repository.New(),
		coll:    telemetry.NewCollector(telemetry.Config{}),
		signers: make(map[string]*signature.Signer),
	}
}

// memAllocs is the exact heap allocation count (stops the world; probes
// only, never inside a timed section).
func memAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// call runs fn inside a span with its allocations counted.
func (p *probe) call(name, trace string, parent int64, fn func() float64) {
	s := p.tr.begin(name, trace, parent)
	a0 := memAllocs()
	s.restart()
	count := fn()
	s.stop()
	s.finish(memAllocs()-a0, count)
}

// analyze runs the nightly analysis the way core.Engine.RunAnalysis does,
// from outside, over the live repository: group by recurring signature,
// select views, and publish the annotations into the probe's private
// insights service. It also snapshots the live view store, so the probe's
// compiles see the views the engine's next jobs see.
func (p *probe) analyze(from, to time.Time, trace string) {
	p.call("repository.GroupByRecurring", trace, 0, func() float64 {
		return float64(len(p.eng.Repo.GroupByRecurring(from, to)))
	})
	var byVC map[string][]analysis.Candidate
	p.call("analysis.SelectViews", trace, 0, func() float64 {
		byVC, _ = analysis.SelectViews(p.eng.Repo, from, to, p.eng.Selection)
		n := 0
		for _, c := range byVC {
			n += len(c)
		}
		return float64(n)
	})
	n := 0
	perTag := make(map[signature.Tag][]insights.Annotation)
	for vc, cands := range byVC {
		n += len(cands)
		for _, c := range cands {
			ann := insights.Annotation{
				Recurring: c.Recurring, VC: vc, ExpectedRows: c.ExpectedRows,
				ExpectedBytes: c.ExpectedBytes, ExpectedWork: c.ExpectedWork, Utility: c.Utility,
			}
			for _, tmpl := range c.JobTemplates {
				tag := signature.TagForTemplate(tmpl)
				perTag[tag] = append(perTag[tag], ann)
			}
		}
	}
	p.candidates = append(p.candidates, float64(n))
	p.ins = insights.NewService()
	p.ins.SetClusterEnabled(p.cluster, true)
	for _, vc := range p.vcs {
		p.ins.SetVCEnabled(vc, true)
	}
	p.ins.ReplaceAllAnnotations(perTag)
	p.snapshotStore()
}

// snapshotStore copies the live view store and starts a fresh result cache
// (the engine starts one every simulated day).
func (p *probe) snapshotStore() {
	p.store = storage.NewStore(p.eng.Clock)
	if live, ok := p.eng.Store.(*storage.Store); ok {
		p.store.RestoreState(live.ExportState())
	}
	p.cache = exec.NewCache()
}

func (p *probe) signer(rt string) *signature.Signer {
	s, ok := p.signers[rt]
	if !ok {
		s = &signature.Signer{EngineVersion: p.cluster + "/" + rt}
		p.signers[rt] = s
	}
	return s
}

// job runs one input through parse, bind, sign, compile (reuse on, against
// the store snapshot and the probe's annotations), execute, telemetry, and
// queues it for the next schedule call.
func (p *probe) job(in workload.JobInput) error {
	if p.store == nil {
		p.snapshotStore()
	}
	if p.ins == nil {
		p.ins = insights.NewService()
		p.ins.SetClusterEnabled(p.cluster, true)
	}
	top := p.tr.begin("probe.job", in.ID, 0)
	defer top.done()
	id := top.id()

	var script *sqlparser.Script
	var err error
	p.call("sqlparser.Parse", in.ID, id, func() float64 {
		script, err = sqlparser.Parse(in.Script)
		return 0
	})
	if err != nil {
		return fmt.Errorf("probe %s: parse: %w", in.ID, err)
	}
	var outs []*plan.Output
	p.call("plan.Binder.BindScript", in.ID, id, func() float64 {
		outs, err = (&plan.Binder{Catalog: p.eng.Catalog, Params: in.Params}).BindScript(script)
		return 0
	})
	if err != nil || len(outs) != 1 {
		return fmt.Errorf("probe %s: bind: %v (%d outputs)", in.ID, err, len(outs))
	}
	signer := p.signer(in.Runtime)
	p.call("signature.Signer.Subexpressions", in.ID, id, func() float64 {
		return float64(len(signer.Subexpressions(outs[0])))
	})

	tr := obs.NewTrace(in.ID, in.Submit)
	rec := explain.NewRecorder(in.ID, in.VC)
	opt := &optimizer.Optimizer{
		Signer: signer, Est: p.eng.Est, History: p.eng.History, Store: p.store,
		Insights: p.ins, Trace: tr, Explain: rec,
	}
	var cr *optimizer.CompileResult
	p.call("optimizer.Optimizer.Compile", in.ID, id, func() float64 {
		cr = opt.Compile(outs[0], optimizer.CompileOptions{JobID: in.ID, Cluster: in.Cluster, VC: in.VC, OptIn: in.OptIn})
		return float64(len(cr.Matched))
	})
	ex := &exec.Executor{
		Catalog: p.eng.Catalog, Views: p.store, Cache: p.cache, SigMap: signer.Physical(cr.Plan),
		Vectorized: true, Trace: tr, JobID: in.ID,
		Ctx: &plan.EvalContext{NowNanos: in.Submit.UnixNano(), Rand: data.NewRand(engineRandSeed).Fork(jobHash(in.ID))},
	}
	var res *exec.RunResult
	p.call("exec.Executor.Run", in.ID, id, func() float64 {
		res, err = ex.Run(cr.Plan)
		if err != nil {
			return 0
		}
		return float64(res.CacheHits)
	})
	if err != nil {
		return fmt.Errorf("probe %s: exec: %w", in.ID, err)
	}
	// Views the probe builds are sealed in its private store at once, so
	// the probe's later jobs can reuse them as the engine's later jobs do.
	for _, pv := range cr.Proposed {
		p.store.SealAt(pv.Strict, in.Submit)
		p.ins.ReleaseViewLock(pv.Strict, in.ID)
	}
	day := int(in.Submit.Sub(fixtures.Epoch) / (24 * time.Hour))
	p.call("telemetry.Collector.Observe", in.ID, id, func() float64 {
		p.coll.ObserveJob(day, in.VC, tr)
		p.coll.ObserveDecisions(day, in.VC, rec)
		return 0
	})

	p.jobs++
	if len(cr.Matched) > 0 {
		p.reuseJobs++
	}
	if res.CacheHits > 0 {
		p.cacheHitJobs++
	}
	p.matched += float64(len(cr.Matched))
	p.decisions += float64(rec.Len())
	p.top(in.ID, "obs.spans", float64(len(tr.Spans())))
	p.top(in.ID, "explain.decisions", float64(rec.Len()))
	p.specs = append(p.specs, stageSpecs(in, cr, res))
	return nil
}

// top records a zero-length count span for a per-job count read at a
// layer boundary.
func (p *probe) top(trace, name string, count float64) {
	p.tr.begin(name, trace, 0).finish(0, count)
}

// stageSpecs lowers a probed job into the cluster simulator's input, the way
// the engine does: the stage DAG from optimizer.BuildStages, with the
// executed work spread over its stages.
func stageSpecs(in workload.JobInput, cr *optimizer.CompileResult, res *exec.RunResult) cluster.JobSpec {
	pp := optimizer.BuildStages(cr.Plan, cr.Estimates)
	specs := make([]cluster.StageSpec, len(pp.Stages))
	spools := 0
	for _, st := range pp.Stages {
		if st.IsSpool {
			spools++
		}
	}
	plain := len(pp.Stages) - spools
	for i, st := range pp.Stages {
		spec := cluster.StageSpec{Width: st.Width, IsSpool: st.IsSpool}
		for _, d := range st.Deps {
			spec.Deps = append(spec.Deps, d.ID)
		}
		if st.IsSpool {
			spec.Work = res.SpoolWork / float64(spools)
		} else if plain > 0 {
			spec.Work = (res.TotalWork - res.SpoolWork) / float64(plain)
		}
		specs[i] = spec
	}
	return cluster.JobSpec{ID: in.ID, VC: in.VC, Submit: in.Submit, Stages: specs, Compile: cr.CompileLatency, Attempt: 1}
}

// schedule runs the queued jobs through a private cluster simulator.
func (p *probe) schedule(trace string) error {
	if len(p.specs) == 0 {
		return nil
	}
	var err error
	p.call("cluster.Simulator.Run", trace, 0, func() float64 {
		_, err = cluster.New(p.simCfg).Run(p.specs)
		return float64(len(p.specs))
	})
	p.specs = p.specs[:0]
	if err != nil {
		return fmt.Errorf("probe schedule: %w", err)
	}
	return nil
}

// record adds copies of the live repository's records to the probe's
// private repository, one span per Repo.Add.
func (p *probe) record(recs []*repository.JobRecord) {
	for _, r := range recs {
		cp := *r
		s := p.tr.begin("repository.Repo.Add", r.JobID, 0)
		p.repo.Add(&cp)
		s.done()
	}
}

// fill reports the probe's per-layer metrics.
func (p *probe) fill(layer map[string]float64) {
	t := p.tr
	layer["sqlparser.parse_us"] = t.medianMicros("sqlparser.Parse")
	layer["plan.bind_us"] = t.medianMicros("plan.Binder.BindScript")
	layer["signature.sign_us"] = t.medianMicros("signature.Signer.Subexpressions")
	layer["signature.allocs"] = t.meanAllocs("signature.Signer.Subexpressions")
	layer["signature.subexprs"] = t.meanCount("signature.Signer.Subexpressions")
	layer["optimizer.compile_us"] = t.medianMicros("optimizer.Optimizer.Compile")
	layer["optimizer.allocs"] = t.meanAllocs("optimizer.Optimizer.Compile")
	layer["optimizer.match_ratio"] = ratio(p.matched, p.decisions)
	layer["optimizer.reuse_job_share"] = ratio(float64(p.reuseJobs), float64(p.jobs))
	layer["telemetry.observe_us"] = t.medianMicros("telemetry.Collector.Observe")
	layer["explain.decisions_per_job"] = t.meanCount("explain.decisions")
	layer["obs.spans_per_job"] = t.meanCount("obs.spans")
	layer["exec.run_us"] = t.medianMicros("exec.Executor.Run")
	layer["exec.allocs"] = t.meanAllocs("exec.Executor.Run")
	layer["exec.result_cache_hit_ratio"] = ratio(float64(p.cacheHitJobs), float64(p.jobs))
	layer["repository.add_us"] = t.medianMicros("repository.Repo.Add")
	layer["repository.groupby_ms"] = t.medianMillis("repository.GroupByRecurring")
	layer["analysis.select_ms"] = t.medianMillis("analysis.SelectViews")
	layer["analysis.candidates"] = median(p.candidates)
	layer["cluster.schedule_ms"] = t.medianMillis("cluster.Simulator.Run")
}
