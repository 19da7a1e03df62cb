package main

import (
	"strings"
	"testing"
)

var gateBaseline = []Result{
	{Name: "BenchmarkConcurrentSubmit/workers=1", AllocsPerOp: 43, HasAllocs: true},
	{Name: "BenchmarkConcurrentSubmit/workers=16", AllocsPerOp: 43, HasAllocs: true},
	{Name: "BenchmarkLexer", AllocsPerOp: 0, HasAllocs: true},
}

func TestGateAllocs(t *testing.T) {
	cases := []struct {
		name  string
		bench string
		fails []string // substrings, one per expected failure
	}{
		{
			name: "no suffix",
			bench: `BenchmarkConcurrentSubmit/workers=1   	  100000	     23204 ns/op	     43097 jobs/sec	    7563 B/op	      45 allocs/op
BenchmarkConcurrentSubmit/workers=16  	  100000	     20408 ns/op	     49001 jobs/sec	    7572 B/op	      46 allocs/op`,
		},
		{
			name: "suffix -2",
			bench: `BenchmarkConcurrentSubmit/workers=1-2   	  100000	     23204 ns/op	    7563 B/op	      45 allocs/op
BenchmarkConcurrentSubmit/workers=16-2  	  100000	     20408 ns/op	    7572 B/op	      46 allocs/op`,
		},
		{
			name: "suffix -4",
			bench: `BenchmarkConcurrentSubmit/workers=1-4   	  100000	     23204 ns/op	    7563 B/op	      45 allocs/op
BenchmarkConcurrentSubmit/workers=16-4  	  100000	     20408 ns/op	    7572 B/op	      46 allocs/op`,
		},
		{
			name: "-cpu 1,2 output gates both core counts",
			bench: `BenchmarkConcurrentSubmit/workers=1   	  100000	     23204 ns/op	    7563 B/op	      45 allocs/op
BenchmarkConcurrentSubmit/workers=1-2 	  100000	     23204 ns/op	    7563 B/op	      48 allocs/op
BenchmarkConcurrentSubmit/workers=16  	  100000	     20408 ns/op	    7572 B/op	      46 allocs/op
BenchmarkConcurrentSubmit/workers=16-2	  100000	     20408 ns/op	    7572 B/op	      46 allocs/op`,
			fails: []string{"workers=1: allocs/op 48 exceeds baseline 43"},
		},
		{
			name: "missing arm",
			bench: `BenchmarkConcurrentSubmit/workers=1-2   	  100000	     23204 ns/op	    7563 B/op	      45 allocs/op
BenchmarkLexer-2	 1000000	      1509 ns/op	 135.90 MB/s	       0 B/op	       0 allocs/op`,
			fails: []string{"workers=16: present in baseline but missing from this run"},
		},
		{
			name: "over tolerance",
			bench: `BenchmarkConcurrentSubmit/workers=1-2   	  100000	     23204 ns/op	    7563 B/op	      48 allocs/op
BenchmarkConcurrentSubmit/workers=16-2  	  100000	     20408 ns/op	    7572 B/op	      47 allocs/op`,
			fails: []string{"workers=1: allocs/op 48 exceeds baseline 43 by more than 10% (limit 47.3)"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur, err := parseBench(strings.NewReader(tc.bench))
			if err != nil {
				t.Fatal(err)
			}
			got := gateAllocs(gateBaseline, cur, "BenchmarkConcurrentSubmit", 0.10)
			if len(got) != len(tc.fails) {
				t.Fatalf("failures = %q, want %d matching %q", got, len(tc.fails), tc.fails)
			}
			for i, want := range tc.fails {
				if !strings.Contains(got[i], want) {
					t.Errorf("failure %d = %q, want it to contain %q", i, got[i], want)
				}
			}
		})
	}
}

func TestTrimProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkLexer":                        "BenchmarkLexer",
		"BenchmarkLexer-8":                      "BenchmarkLexer",
		"BenchmarkConcurrentSubmit/workers=16":  "BenchmarkConcurrentSubmit/workers=16",
		"BenchmarkConcurrentSubmit/workers=4-2": "BenchmarkConcurrentSubmit/workers=4",
		"BenchmarkExecuteVectorized/row-2":      "BenchmarkExecuteVectorized/row",
		"BenchmarkX/a-b":                        "BenchmarkX/a-b",
		"BenchmarkX-":                           "BenchmarkX-",
	} {
		if got := trimProcs(in); got != want {
			t.Errorf("trimProcs(%q) = %q, want %q", in, got, want)
		}
	}
}
