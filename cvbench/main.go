// Command cvbench is the repository benchmark. It drives the CloudViews
// reproduction from outside, through its public functions, on one of three
// seeded workloads, checks every answer it samples against a reuse-off
// replay, and prints each metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run is
// repeated with spans recorded around every layer call, and the metrics are
// the per-layer ones. README.md in this directory explains the workloads and
// which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees, reported by every
// workload (README.md defines each one per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"capacity_jobs_per_s", "1/s"},
	{"analyze_s", "s"},
	{"heap_mb", "MB"},
	{"processing_cs_per_job", "cs/job"},
}

// perLayer lists the metrics of single layers, measured by the traced run.
var perLayer = []metricDef{
	{"sqlparser.parse_us", "us"},
	{"plan.bind_us", "us"},
	{"signature.sign_us", "us"},
	{"signature.allocs", "count"},
	{"signature.subexprs", "count"},
	{"optimizer.compile_us", "us"},
	{"optimizer.allocs", "count"},
	{"optimizer.match_ratio", "ratio"},
	{"optimizer.reuse_job_share", "ratio"},
	{"telemetry.observe_us", "us"},
	{"explain.decisions_per_job", "count"},
	{"obs.spans_per_job", "count"},
	{"core.plancache_hit_ratio", "ratio"},
	{"core.reuse_cost_ratio", "ratio"},
	{"exec.run_us", "us"},
	{"exec.allocs", "count"},
	{"exec.result_cache_hit_ratio", "ratio"},
	{"storage.live_views", "count"},
	{"storage.views_built", "count"},
	{"storage.views_reused", "count"},
	{"repository.add_us", "us"},
	{"repository.retained_kb_per_job", "KB"},
	{"repository.groupby_ms", "ms"},
	{"analysis.select_ms", "ms"},
	{"analysis.candidates", "count"},
	{"cluster.schedule_ms", "ms"},
	{"server.handler_us", "us"},
	{"server.allocs", "count"},
	{"server.resp_bytes", "bytes"},
	{"server.shed_ratio", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"runtime.gc_cpu_pct", "%"},
	{"runtime.allocs_per_job", "count"},
	{"tracing.overhead_pct", "%"},
}

// untracedLayerMetrics are per-layer metrics of the whole run, taken from
// the second untraced pass of a traced run.
var untracedLayerMetrics = []string{
	"runtime.gc_cpu_pct", "runtime.allocs_per_job", "loadgen.late_p99_ms",
	"repository.retained_kb_per_job", "server.shed_ratio",
}

// workloads maps each workload name to the function that runs it.
// BENCHMARK.json lists all but unlistedWorkload, whose latency p99 spread
// more between runs than the benchmark's bound (README.md, "Steadiness").
var workloads = map[string]func(cfg runConfig) (*outcome, error){
	"fleet-days": runFleet,
	"submit-hot": runHot,
	"http-serve": runServe,
}

const unlistedWorkload = "http-serve"

// runConfig carries one invocation's settings into a workload.
type runConfig struct {
	seed    uint64
	seconds float64
	// tr is non-nil only in the traced pass.
	tr *tracer
	// fixed makes the workload do exactly its fixed rounds, ignoring seconds:
	// every pass of a traced run must do the same work.
	fixed bool
	// rounds, when positive, overrides the workload's number of fixed
	// rounds (the self-test uses fewer).
	rounds int
}

// outcome is what one pass of a workload produced.
type outcome struct {
	e2e   map[string]float64
	layer map[string]float64

	attempted, failed int
	// invalid, when set, says why the run cannot be trusted even though
	// every answer was right (the open-loop generator fell behind).
	invalid string
	// note summarises the run's size for the printed report.
	note string

	// shares are the traffic shares a later performance claim must cite.
	planCacheHitShare, reuseJobShare, resultCacheHitsPerJob float64

	det determinism
	// measuredSec is the wall time of the timed top-level calls of the
	// fixed rounds; the traced run compares it with the untraced run's.
	measuredSec float64
}

// determinism holds the per-seed facts that must repeat exactly across runs
// and must not change when tracing is on.
type determinism struct {
	Jobs         int
	ViewsBuilt   int
	ViewsReused  int
	PlanHits     uint64
	ProcessingCS float64
	// Answers digests every checked answer, in check order.
	Answers string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if os.Getenv(loadgenEnv) == "1" {
		os.Exit(loadgenMain(os.Stdin, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cvbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fleet-days, submit-hot or http-serve")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spanDir := fs.String("span-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "cvbench: unknown workload %q\n", *name)
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds}
	var res result
	var err error
	if *traced == 1 {
		res, err = tracedRun(*name, drive, cfg, *spanDir, stdout)
	} else {
		res, err = plainRun(*name, drive, cfg, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "cvbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "cvbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// plainRun measures the end-to-end metrics with tracing off.
func plainRun(name string, drive func(runConfig) (*outcome, error), cfg runConfig, w io.Writer) (result, error) {
	out, err := drive(cfg)
	if err != nil {
		return result{}, err
	}
	printShares(w, name, out)
	return assemble(w, out, endToEnd, out.e2e), nil
}

// tracedRounds is how many rounds each pass of a traced run does: the
// per-layer figures need no more, and both passes do the same work.
const tracedRounds = 2

// tracedRun runs the fixed rounds of the workload three times with one
// seed, untraced, traced and untraced again, checks that all three produced
// the same jobs, views and answers, and reports the per-layer metrics of the
// traced pass. The untraced passes bracket the traced one, so the tracing
// overhead is not confused with the process warming up.
func tracedRun(name string, drive func(runConfig) (*outcome, error), cfg runConfig, spanDir string, w io.Writer) (result, error) {
	cfg.fixed = true
	if cfg.rounds == 0 {
		cfg.rounds = tracedRounds
	}
	plain, err := drive(cfg)
	if err != nil {
		return result{}, fmt.Errorf("untraced pass: %w", err)
	}
	traceCfg := cfg
	traceCfg.tr = newTracer()
	traced, err := drive(traceCfg)
	if err != nil {
		return result{}, fmt.Errorf("traced pass: %w", err)
	}
	again, err := drive(cfg)
	if err != nil {
		return result{}, fmt.Errorf("second untraced pass: %w", err)
	}
	for _, o := range []*outcome{traced, again} {
		if o.det != plain.det {
			return result{}, fmt.Errorf("passes diverged:\nuntraced %+v\nother    %+v", plain.det, o.det)
		}
	}
	// Whole-run figures come from an untraced pass, so span recording and
	// the layer probes do not inflate them.
	for _, m := range untracedLayerMetrics {
		traced.layer[m] = again.layer[m]
	}
	traced.attempted += plain.attempted + again.attempted
	traced.failed += plain.failed + again.failed
	for _, o := range []*outcome{plain, again} {
		if traced.invalid == "" {
			traced.invalid = o.invalid
		}
	}
	untraced := (plain.measuredSec + again.measuredSec) / 2
	traced.layer["tracing.overhead_pct"] = 100 * (traced.measuredSec - untraced) / untraced
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.json", name, cfg.seed))
	if err := traceCfg.tr.writeFile(path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "spans %d written to %s\n", traceCfg.tr.count(), path)
	printShares(w, name, traced)
	return assemble(w, traced, perLayer, traced.layer), nil
}

func printShares(w io.Writer, name string, out *outcome) {
	fmt.Fprintf(w, "workload %s: %s\n", name, out.note)
	fmt.Fprintf(w, "fixed rounds: %d jobs, %d views built, %d reused, %d plan-cache hits\n",
		out.det.Jobs, out.det.ViewsBuilt, out.det.ViewsReused, out.det.PlanHits)
	fmt.Fprintf(w, "share plan_cache_hit %.4f\n", out.planCacheHitShare)
	fmt.Fprintf(w, "share jobs_reusing_a_view %.4f\n", out.reuseJobShare)
	fmt.Fprintf(w, "share result_cache_hits_per_job %.4f\n", out.resultCacheHitsPerJob)
}

// assemble prints every metric of defs by name and unit, then the failure
// accounting, and builds the JSON result.
func assemble(w io.Writer, out *outcome, defs []metricDef, values map[string]float64) result {
	res := result{
		Correct:   out.failed == 0 && out.invalid == "",
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("cvbench: metric " + d.name + " was not measured")
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "metric %-32s %14.6f %s\n", d.name, v, d.unit)
	}
	failedRatio := float64(out.failed) / float64(max(out.attempted, 1))
	fmt.Fprintf(w, "metric %-32s %14.6f %s\n", "failed_ratio", failedRatio, "ratio")
	if out.invalid != "" {
		fmt.Fprintf(w, "INVALID: %s\n", out.invalid)
	}
	return res
}

// rounds repeats one fixed-size round until the measuring time is spent.
// The first n rounds (the workload's default unless cfg.rounds is set) are
// the run's fixed work and always run; the deterministic figures come from
// them alone. With cfg.fixed no other round runs.
func rounds(cfg runConfig, n int, round func(i int, fixed bool) error) error {
	if cfg.rounds > 0 {
		n = cfg.rounds
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		if i >= n && (cfg.fixed || time.Now().After(deadline)) {
			return nil
		}
		if err := round(i, i < n); err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
	}
}

// setupReps is how many set-ups a run times at least; setup_s is their
// median.
const setupReps = 7

// padSetups times extra set-ups until samples holds setupReps of them.
func padSetups(samples *[]float64, setup func() error) error {
	for len(*samples) < setupReps {
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		*samples = append(*samples, time.Since(t0).Seconds())
	}
	return nil
}

// median returns the middle value of xs (mean of the middle two).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
