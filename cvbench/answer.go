package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"

	"cloudviews/internal/data"
)

// answer is a job's output rendered cell by cell, rows in a canonical order.
// Row order is not part of an answer. Floating-point cells compare within a
// relative 1e-9: the replay may pick another join algorithm than the engine
// did (it has no statistics history), and summing the same floats in
// another order changes the last bits of an average.
type answer struct {
	cols string
	rows [][]string
	// exact is the canonical rendering, digested for determinism checks.
	exact string
}

func tableAnswer(t *data.Table) answer {
	rows := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		cells := make([]string, len(r))
		for c, v := range r {
			cells[c] = v.String()
		}
		rows[i] = cells
	}
	return newAnswer(t.Schema.Names(), rows)
}

func newAnswer(cols []string, rows [][]string) answer {
	type keyed struct {
		key   string
		cells []string
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		key := make([]string, len(r))
		for c, cell := range r {
			key[c] = cell
			if f, ok := fraction(cell); ok {
				key[c] = strconv.FormatFloat(f, 'g', 6, 64)
			}
		}
		ks[i] = keyed{strings.Join(key, "|"), r}
	}
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	a := answer{cols: strings.Join(cols, ","), rows: make([][]string, len(ks))}
	lines := make([]string, len(ks))
	for i, k := range ks {
		a.rows[i] = k.cells
		lines[i] = strings.Join(k.cells, "|")
	}
	sort.Strings(lines)
	a.exact = a.cols + "\n" + strings.Join(lines, "\n")
	return a
}

// fraction parses a cell that renders a non-integral number.
func fraction(cell string) (float64, bool) {
	if !strings.ContainsAny(cell, ".eE") {
		return 0, false
	}
	f, err := strconv.ParseFloat(cell, 64)
	return f, err == nil
}

// sameAnswer reports whether two answers hold the same rows.
func sameAnswer(a, b answer) bool {
	if a.cols != b.cols || len(a.rows) != len(b.rows) {
		return false
	}
	for i := range a.rows {
		ra, rb := a.rows[i], b.rows[i]
		if len(ra) != len(rb) {
			return false
		}
		for c := range ra {
			if ra[c] == rb[c] {
				continue
			}
			fa, okA := fraction(ra[c])
			fb, okB := fraction(rb[c])
			if !okA || !okB || math.Abs(fa-fb) > 1e-9*math.Max(1, math.Max(math.Abs(fa), math.Abs(fb))) {
				return false
			}
		}
	}
	return true
}

// checker counts answer checks and digests the reuse-on answers in check
// order.
type checker struct {
	checked, failed int
	// digested answers are folded into digest.
	digested int
	digest   uint64
	firstErr error
}

func newChecker() *checker { return &checker{digest: 14695981039346656037} }

// check compares one reuse-on answer with the reuse-off answer.
func (c *checker) check(id string, got, want answer) {
	c.checked++
	if !sameAnswer(got, want) {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("job %s: reuse changed the answer:\nreuse on:\n%s\nreuse off:\n%s", id, clip(got.exact), clip(want.exact))
		}
	}
	h := fnv.New64a()
	h.Write([]byte(got.exact))
	c.digest = (c.digest ^ h.Sum64()) * 1099511628211
	c.digested++
}

// fail counts a check that could not be made (the job failed).
func (c *checker) fail(err error) {
	c.checked++
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

func (c *checker) answers() string { return fmt.Sprintf("%d:%016x", c.digested, c.digest) }

func clip(s string) string {
	if len(s) > 600 {
		return s[:600] + "..."
	}
	return s
}
