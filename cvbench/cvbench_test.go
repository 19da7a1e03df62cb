package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"

	"cloudviews/internal/data"
)

// TestMain lets the test binary serve as http-serve's load generator
// process, as the benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(loadgenEnv) == "1" {
		os.Exit(loadgenMain(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

// TestDeterministicPerSeed runs fleet-days' fixed work twice with one seed
// and once with another: the per-seed facts repeat exactly, and another seed
// gives other inputs.
func TestDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) determinism {
		t.Helper()
		out, err := runFleet(runConfig{seed: seed, fixed: true, rounds: 1})
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 || out.det.ViewsReused == 0 {
			t.Fatalf("seed %d: %d failed answers, %d views reused", seed, out.failed, out.det.ViewsReused)
		}
		return out.det
	}
	a, b, c := run(7), run(7), run(8)
	if a != b {
		t.Fatalf("one seed, two runs:\n%+v\n%+v", a, b)
	}
	if a.ProcessingCS == c.ProcessingCS || a.ViewsBuilt == c.ViewsBuilt && a.ViewsReused == c.ViewsReused || a.Answers == c.Answers {
		t.Fatalf("seeds 7 and 8 gave the same run:\n%+v\n%+v", a, c)
	}
}

// TestTracedMatchesUntraced runs every workload traced; tracedRun fails
// when the traced pass differs from the untraced one in jobs, views built or
// reused, plan-cache hits, processing or answers.
func TestTracedMatchesUntraced(t *testing.T) {
	for name, drive := range workloads {
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{seed: 3, rounds: 1}
			res, err := tracedRun(name, drive, cfg, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || len(res.Metrics) != len(perLayer) {
				t.Fatalf("correct=%v failed=%d metrics=%d", res.Correct, res.Failed, len(res.Metrics))
			}
		})
	}
}

// TestCheckerCatchesWrongAnswers: a changed value fails the check; a
// reordered answer or a float differing in its last bits does not.
func TestCheckerCatchesWrongAnswers(t *testing.T) {
	mk := func(rows ...data.Row) answer {
		tb := data.NewTable(data.Schema{{Name: "k", Kind: data.KindString}, {Name: "v", Kind: data.KindFloat}})
		for _, r := range rows {
			tb.Append(r)
		}
		return tableAnswer(tb)
	}
	want := mk(data.Row{data.String_("a"), data.Float(1.5)}, data.Row{data.String_("b"), data.Float(1.0 / 3)})
	for _, tc := range []struct {
		name string
		got  answer
		ok   bool
	}{
		{"same", mk(data.Row{data.String_("a"), data.Float(1.5)}, data.Row{data.String_("b"), data.Float(1.0 / 3)}), true},
		{"reordered", mk(data.Row{data.String_("b"), data.Float(1.0 / 3)}, data.Row{data.String_("a"), data.Float(1.5)}), true},
		{"last bits", mk(data.Row{data.String_("a"), data.Float(1.5)}, data.Row{data.String_("b"), data.Float(1.0/3 + 1e-15)}), true},
		{"value", mk(data.Row{data.String_("a"), data.Float(1.5)}, data.Row{data.String_("b"), data.Float(0.34)}), false},
		{"key", mk(data.Row{data.String_("a"), data.Float(1.5)}, data.Row{data.String_("c"), data.Float(1.0 / 3)}), false},
		{"missing row", mk(data.Row{data.String_("a"), data.Float(1.5)}), false},
	} {
		chk := newChecker()
		chk.check(tc.name, tc.got, want)
		if ok := chk.failed == 0; ok != tc.ok {
			t.Errorf("%s: check passed=%v, want %v", tc.name, ok, tc.ok)
		}
	}
}

// TestBenchmarkFileMatches: BENCHMARK.json declares exactly the metrics the
// benchmark reports, with the same units, and every workload but
// http-serve.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		declared []struct{ Name, Unit string }
		reported []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(tc.declared) != len(tc.reported) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the benchmark reports %d", len(tc.declared), len(tc.reported))
		}
		for i, d := range tc.declared {
			if d.Name != tc.reported[i].name || d.Unit != tc.reported[i].unit {
				t.Errorf("metric %d: declared %s [%s], reported %s [%s]", i, d.Name, d.Unit, tc.reported[i].name, tc.reported[i].unit)
			}
		}
	}
	declared := map[string]bool{}
	for _, w := range spec.Workloads {
		declared[w.Name] = true
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %q is not run", w.Name)
		}
	}
	for name := range workloads {
		if !declared[name] && name != unlistedWorkload {
			t.Errorf("workload %q is run but not declared", name)
		}
	}
}
