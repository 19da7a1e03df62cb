package fault

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudviews/internal/obs"
)

func TestNilInjectorIsFree(t *testing.T) {
	var inj *Injector
	if inj.Should(StageFail, "job/s00/a1") {
		t.Fatal("nil injector injected a fault")
	}
	if inj.Enabled(ViewRead) {
		t.Fatal("nil injector reports enabled point")
	}
	if inj.Count(StageFail) != 0 || inj.Total() != 0 {
		t.Fatal("nil injector reports nonzero counts")
	}
	inj.SetMetrics(obs.NewRegistry()) // must not panic
}

func TestNewDisabledReturnsNil(t *testing.T) {
	if New(Config{}) != nil {
		t.Fatal("zero config should yield nil injector")
	}
	if New(Config{Rates: map[Point]float64{StageFail: 0}}) != nil {
		t.Fatal("all-zero rates should yield nil injector")
	}
	if New(Config{Rates: map[Point]float64{StageFail: 0.1}}) == nil {
		t.Fatal("positive rate should yield an injector")
	}
}

func TestShouldIsDeterministicAndKeyed(t *testing.T) {
	cfg := Config{Seed: 42, Rates: map[Point]float64{StageFail: 0.3, ViewRead: 0.3}}
	a, b := New(cfg), New(cfg)
	keys := []string{"j1/s00/a1", "j1/s00/a2", "j1/s01/a1", "j2/s00/a1", "x", ""}
	for _, k := range keys {
		for _, p := range []Point{StageFail, ViewRead} {
			if a.Should(p, k) != b.Should(p, k) {
				t.Fatalf("same (seed,point,key) disagreed: %s %q", p, k)
			}
		}
	}
	// Decisions must be pure: re-asking yields the same answer.
	for _, k := range keys {
		if a.Should(StageFail, k) != b.Should(StageFail, k) {
			t.Fatalf("re-roll changed decision for %q", k)
		}
	}
	// Different seed must produce a different schedule on a large key set.
	c := New(Config{Seed: 43, Rates: cfg.Rates})
	diff := 0
	for i := 0; i < 512; i++ {
		k := strings.Repeat("k", i%7) + string(rune('a'+i%26))
		if a.roll(StageFail, k) != c.roll(StageFail, k) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seed has no effect on decision hash")
	}
}

func TestRollRateCalibration(t *testing.T) {
	inj := New(Config{Seed: 7, Rates: map[Point]float64{StageFail: 0.2}})
	const n = 20000
	hits := 0
	for i := 0; i < n; i++ {
		key := "job" + strings.Repeat("x", i%5) + string(rune('0'+i%10)) + "/" + itoa(i)
		if inj.Should(StageFail, key) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.2) > 0.02 {
		t.Fatalf("rate 0.2 produced %.4f over %d rolls", got, n)
	}
	if inj.Count(StageFail) != int64(hits) || inj.Total() != int64(hits) {
		t.Fatalf("counts mismatch: count=%d total=%d hits=%d",
			inj.Count(StageFail), inj.Total(), hits)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestRateBoundaries(t *testing.T) {
	always := New(Config{Rates: map[Point]float64{JobFail: 1.0}})
	for i := 0; i < 100; i++ {
		if !always.Should(JobFail, itoa(i)) {
			t.Fatal("rate 1.0 must always inject")
		}
	}
	if always.Should(StageFail, "k") {
		t.Fatal("unconfigured point must never inject")
	}
}

func TestConcurrentDecisionsAreInterleavingIndependent(t *testing.T) {
	cfg := Config{Seed: 99, Rates: map[Point]float64{SpoolWrite: 0.5}}
	serial := New(cfg)
	want := make(map[string]bool)
	for i := 0; i < 200; i++ {
		k := "job-" + itoa(i)
		want[k] = serial.Should(SpoolWrite, k)
	}
	conc := New(cfg)
	var mu sync.Mutex
	got := make(map[string]bool)
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		k := "job-" + itoa(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := conc.Should(SpoolWrite, k)
			mu.Lock()
			got[k] = d
			mu.Unlock()
		}()
	}
	wg.Wait()
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("concurrent decision for %q diverged from serial", k)
		}
	}
	if conc.Total() != serial.Total() {
		t.Fatalf("totals diverged: %d vs %d", conc.Total(), serial.Total())
	}
}

func TestBackoffCappedExponential(t *testing.T) {
	cfg := Config{RetryBackoff: 2 * time.Second, RetryBackoffCap: 30 * time.Second}
	want := []time.Duration{
		2 * time.Second, 4 * time.Second, 8 * time.Second,
		16 * time.Second, 30 * time.Second, 30 * time.Second,
	}
	for i, w := range want {
		if got := cfg.Backoff(i + 1); got != w {
			t.Fatalf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Defaults kick in on a zero config.
	if got := (Config{}).Backoff(1); got != DefaultRetryBackoff {
		t.Fatalf("zero-config Backoff(1) = %v", got)
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	cfg, err := ParseSpec("stage=0.05, preempt=0.2,spool=0.1,read=0.1,job=0.02,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 {
		t.Fatalf("seed = %d, want 7", cfg.Seed)
	}
	wantRates := map[Point]float64{
		StageFail: 0.05, BonusPreempt: 0.2, SpoolWrite: 0.1, ViewRead: 0.1, JobFail: 0.02,
	}
	for p, w := range wantRates {
		if cfg.Rates[p] != w {
			t.Fatalf("rate for %s = %v, want %v", p, cfg.Rates[p], w)
		}
	}
	spec := cfg.Spec()
	back, err := ParseSpec(spec)
	if err != nil {
		t.Fatalf("re-parsing %q: %v", spec, err)
	}
	if back.Seed != 7 {
		t.Fatalf("round-trip seed = %d, want 7", back.Seed)
	}
	for p, w := range wantRates {
		if back.Rates[p] != w {
			t.Fatalf("round-trip rate for %s = %v, want %v", p, back.Rates[p], w)
		}
	}
	// Full point names also work.
	cfg2, err := ParseSpec("cluster.stage.fail=0.5")
	if err != nil || cfg2.Rates[StageFail] != 0.5 {
		t.Fatalf("full point name spec: cfg=%+v err=%v", cfg2, err)
	}
	// Empty spec disables.
	cfg3, err := ParseSpec("  ")
	if err != nil || cfg3.Enabled() {
		t.Fatalf("empty spec: cfg=%+v err=%v", cfg3, err)
	}
}

func TestParseSpecRejectsBadInput(t *testing.T) {
	for _, spec := range []string{"stage", "bogus=0.1", "stage=1.5", "stage=-0.1", "stage=abc"} {
		if _, err := ParseSpec(spec); err == nil {
			t.Fatalf("ParseSpec(%q) should error", spec)
		}
	}
}

func TestInjectedErrorTyped(t *testing.T) {
	inj := New(Config{Rates: map[Point]float64{JobFail: 1}})
	err := inj.Err(JobFail, "job-1/a1")
	var ie *InjectedError
	if !errors.As(err, &ie) {
		t.Fatalf("error %v is not *InjectedError", err)
	}
	if ie.Point != JobFail || ie.Key != "job-1/a1" {
		t.Fatalf("bad InjectedError fields: %+v", ie)
	}
	if !strings.Contains(err.Error(), string(JobFail)) {
		t.Fatalf("error text %q omits point", err.Error())
	}
}

func TestMetricsWiredLazily(t *testing.T) {
	reg := obs.NewRegistry()
	inj := New(Config{Rates: map[Point]float64{StageFail: 1}})
	inj.SetMetrics(reg)
	inj.Should(StageFail, "a")
	inj.Should(StageFail, "b")
	out := reg.ExportString()
	if !strings.Contains(out, "cloudviews_faults_injected_total 2") {
		t.Fatalf("export missing total counter:\n%s", out)
	}
	if !strings.Contains(out, `point="cluster.stage.fail"`) {
		t.Fatalf("export missing per-point counter:\n%s", out)
	}
}

func TestWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.MaxStageAttempts != DefaultMaxStageAttempts ||
		c.StageRetryBudget != DefaultStageRetryBudget ||
		c.MaxJobAttempts != DefaultMaxJobAttempts ||
		c.RetryBackoff != DefaultRetryBackoff ||
		c.RetryBackoffCap != DefaultRetryBackoffCap {
		t.Fatalf("defaults not applied: %+v", c)
	}
	custom := Config{MaxStageAttempts: 2, MaxJobAttempts: 5}.WithDefaults()
	if custom.MaxStageAttempts != 2 || custom.MaxJobAttempts != 5 {
		t.Fatalf("explicit values overridden: %+v", custom)
	}
}

// TestJitteredBackoffBoundsAndPinning: jittered backoff stays within
// ±pct/2 of the base value, is a pure function of (seed, key), and with the
// jitter disabled is exactly Backoff.
func TestJitteredBackoffBoundsAndPinning(t *testing.T) {
	c := Config{Seed: 9, RetryJitterPct: 0.5}.WithDefaults()
	base := c.Backoff(1)
	varied := false
	var first time.Duration
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("job-%d/s00/a1", i)
		d := c.JitteredBackoff(1, key)
		lo := time.Duration(float64(base) * (1 - c.RetryJitterPct/2))
		hi := time.Duration(float64(base) * (1 + c.RetryJitterPct/2))
		if d < lo || d > hi {
			t.Fatalf("jittered backoff %v outside [%v, %v] for key %q", d, lo, hi, key)
		}
		if d != c.JitteredBackoff(1, key) {
			t.Fatalf("jittered backoff not pinned for key %q", key)
		}
		if i == 0 {
			first = d
		} else if d != first {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jitter produced the identical backoff for 40 distinct keys")
	}
	plain := Config{Seed: 9}.WithDefaults()
	for a := 1; a <= 4; a++ {
		if plain.JitteredBackoff(a, "any") != plain.Backoff(a) {
			t.Fatalf("zero jitter diverged from Backoff at attempt %d", a)
		}
	}
}
