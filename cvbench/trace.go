package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"
)

// span is one timed call recorded by the traced run. Spans of one job share
// its job ID as their trace ID; Parent is 0 for a top-level call.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Allocs is the heap objects allocated during the span (probe calls
	// only, where nothing else runs concurrently).
	Allocs uint64 `json:"allocs,omitempty"`
	// Count is the layer's own work count at the boundary: subexpressions
	// signed, views matched, decisions recorded, response bytes.
	Count float64 `json:"count,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pay one pointer check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle; end closes it.
func (t *tracer) begin(name, trace string, parent int64) *openSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &openSpan{t: t, s: span{ID: id, Parent: parent, Trace: trace, Name: name}, start: time.Now()}
}

type openSpan struct {
	t          *tracer
	s          span
	start, end time.Time
}

// id returns the span's ID, or 0 for a nil span (no parent).
func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// restart moves the span's start to now (after set-up the span should not
// cover, such as reading the allocation counter).
func (o *openSpan) restart() {
	if o != nil {
		o.start = time.Now()
	}
}

// stop fixes the span's end time; finish may then run after more set-up.
func (o *openSpan) stop() {
	if o != nil && o.end.IsZero() {
		o.end = time.Now()
	}
}

// done closes the span.
func (o *openSpan) done() { o.finish(0, 0) }

// finish closes the span with an allocation count and a work count.
func (o *openSpan) finish(allocs uint64, count float64) {
	if o == nil {
		return
	}
	o.stop()
	o.s.Start = o.start.Sub(o.t.t0).Nanoseconds()
	o.s.End = o.end.Sub(o.t.t0).Nanoseconds()
	o.s.Allocs, o.s.Count = allocs, count
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// add records a top-level span timed elsewhere (by the load generator).
func (t *tracer) add(name, trace string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Trace: trace, Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// byName returns the recorded spans with the given name.
func (t *tracer) byName(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// medianMicros is the median duration of the named spans in microseconds.
func (t *tracer) medianMicros(name string) float64 {
	var d []float64
	for _, s := range t.byName(name) {
		d = append(d, float64(s.End-s.Start)/1e3)
	}
	return median(d)
}

// medianMillis is the median duration of the named spans in milliseconds.
func (t *tracer) medianMillis(name string) float64 { return t.medianMicros(name) / 1e3 }

// meanAllocs is the mean allocation count of the named spans.
func (t *tracer) meanAllocs(name string) float64 {
	var a []float64
	for _, s := range t.byName(name) {
		a = append(a, float64(s.Allocs))
	}
	return mean(a)
}

// meanCount is the mean work count of the named spans.
func (t *tracer) meanCount(name string) float64 {
	var c []float64
	for _, s := range t.byName(name) {
		c = append(c, s.Count)
	}
	return mean(c)
}

// writeFile writes every span as one JSON array.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}

// runtimeSample reads the process counters the whole-run metrics derive
// from, without stopping the world.
type runtimeSample struct {
	allocs         uint64
	gcCPU, busyCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocs:  s[0].Value.Uint64(),
		gcCPU:   s[1].Value.Float64(),
		busyCPU: s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

// runtimeDelta accumulates GC CPU share and allocations over timed sections.
// The runtime's CPU classes are estimates it refreshes at each collection.
type runtimeDelta struct {
	allocs         uint64
	gcCPU, busyCPU float64
}

func (d *runtimeDelta) add(from, to runtimeSample) {
	d.allocs += to.allocs - from.allocs
	d.gcCPU += to.gcCPU - from.gcCPU
	d.busyCPU += to.busyCPU - from.busyCPU
}

// fill reports the whole-run runtime metrics for jobs timed jobs.
func (d *runtimeDelta) fill(layer map[string]float64, jobs int) {
	layer["runtime.gc_cpu_pct"] = 100 * ratio(d.gcCPU, d.busyCPU)
	layer["runtime.allocs_per_job"] = ratio(float64(d.allocs), float64(jobs))
}
