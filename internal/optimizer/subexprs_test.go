package optimizer_test

import (
	"reflect"
	"testing"

	"cloudviews/internal/explain"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/stats"
)

// TestCompileSubexprsDescribeFinalPlan pins the enumeration Compile hands to
// its callers: Subexprs is exactly the signing of the plan Compile returns,
// the tag is the rewritten input's template, and attaching an explain
// recorder changes neither the plan nor the proposals. Each case compiles in
// two fresh rigs (explain off, then on) because building stages views and
// takes view locks.
func TestCompileSubexprsDescribeFinalPlan(t *testing.T) {
	onJoin := func(s signature.Subexpr) bool { return s.Op == "Join" }
	// sealJoinView runs a first job that builds and seals the join's view,
	// recording its runtime history so later compiles can match it.
	sealJoinView := func(t *testing.T, r *rig, root plan.Node) {
		r.publishFor(t, root, onJoin)
		cr1 := r.opt.Compile(root, optimizer.CompileOptions{JobID: "j1", Cluster: "c1", VC: "vc1", OptIn: true})
		res1 := r.execute(t, cr1)
		for _, st := range res1.Stats {
			if sig, ok := cr1.RecurringMap[st.Node]; ok && st.Op != "ViewScan" {
				r.hist.Record(sig, stats.Observation{Rows: st.RowsOut, Bytes: st.BytesOut, Work: st.Work})
			}
		}
	}
	cases := []struct {
		name  string
		setup func(t *testing.T, r *rig) (plan.Node, optimizer.CompileOptions)
		check func(t *testing.T, cr *optimizer.CompileResult, rec *explain.Recorder)
	}{
		{
			name: "reuse-off",
			setup: func(t *testing.T, r *rig) (plan.Node, optimizer.CompileOptions) {
				root := r.bind(t, sharedQuery)
				r.publishFor(t, root, onJoin)
				return root, optimizer.CompileOptions{JobID: "j", Cluster: "c1", VC: "vc1", OptIn: false}
			},
			check: func(t *testing.T, cr *optimizer.CompileResult, _ *explain.Recorder) {
				if cr.ReuseEnabled || len(cr.Matched) != 0 || len(cr.Proposed) != 0 {
					t.Errorf("reuse-off compile: enabled=%v matched=%d proposed=%d", cr.ReuseEnabled, len(cr.Matched), len(cr.Proposed))
				}
			},
		},
		{
			name: "matched",
			setup: func(t *testing.T, r *rig) (plan.Node, optimizer.CompileOptions) {
				root := r.bind(t, sharedQuery)
				sealJoinView(t, r, root)
				return root, optimizer.CompileOptions{JobID: "j2", Cluster: "c1", VC: "vc1", OptIn: true}
			},
			check: func(t *testing.T, cr *optimizer.CompileResult, _ *explain.Recorder) {
				if len(cr.Matched) != 1 || len(cr.Proposed) != 0 {
					t.Errorf("matched = %d, proposed = %d; want 1, 0", len(cr.Matched), len(cr.Proposed))
				}
			},
		},
		{
			// The aggregate is selected after the join's view sealed: building
			// reads the signatures of a node matching rebuilt above a ViewScan.
			name: "proposed-above-match",
			setup: func(t *testing.T, r *rig) (plan.Node, optimizer.CompileOptions) {
				root := r.bind(t, sharedQuery)
				sealJoinView(t, r, root)
				r.publishFor(t, root, func(s signature.Subexpr) bool {
					return s.Op == "Join" || s.Op == "Aggregate"
				})
				return root, optimizer.CompileOptions{JobID: "j2", Cluster: "c1", VC: "vc1", OptIn: true}
			},
			check: func(t *testing.T, cr *optimizer.CompileResult, _ *explain.Recorder) {
				if len(cr.Matched) != 1 || len(cr.Proposed) != 1 {
					t.Fatalf("matched = %d, proposed = %d; want 1, 1", len(cr.Matched), len(cr.Proposed))
				}
				if cr.Matched[0].ReplacedOp != "Join" {
					t.Errorf("matched %s, want the join", cr.Matched[0].ReplacedOp)
				}
			},
		},
		{
			name: "proposed",
			setup: func(t *testing.T, r *rig) (plan.Node, optimizer.CompileOptions) {
				root := r.bind(t, sharedQuery)
				r.publishFor(t, root, onJoin)
				return root, optimizer.CompileOptions{JobID: "j1", Cluster: "c1", VC: "vc1", OptIn: true}
			},
			check: func(t *testing.T, cr *optimizer.CompileResult, _ *explain.Recorder) {
				if len(cr.Proposed) != 1 || len(cr.Matched) != 0 {
					t.Errorf("proposed = %d, matched = %d; want 1, 0", len(cr.Proposed), len(cr.Matched))
				}
			},
		},
		{
			// Two selected, unbuilt candidates under a one-view budget: the
			// join below is built, the aggregate above it is forfeited.
			name: "budget",
			setup: func(t *testing.T, r *rig) (plan.Node, optimizer.CompileOptions) {
				r.opt.MaxViewsPerJob = 1
				root := r.bind(t, sharedQuery)
				r.publishFor(t, root, func(s signature.Subexpr) bool {
					return s.Op == "Join" || s.Op == "Aggregate"
				})
				return root, optimizer.CompileOptions{JobID: "j1", Cluster: "c1", VC: "vc1", OptIn: true}
			},
			check: func(t *testing.T, cr *optimizer.CompileResult, rec *explain.Recorder) {
				if len(cr.Proposed) != 1 {
					t.Errorf("proposed = %d, want 1 (budget)", len(cr.Proposed))
				}
				if rec == nil {
					return
				}
				budget := 0
				for _, d := range rec.Decisions() {
					if d.Reason == explain.ReasonBudget {
						budget++
						if d.Candidate != "Aggregate" {
							t.Errorf("budget decision names %q, want Aggregate", d.Candidate)
						}
					}
				}
				if budget != 1 {
					t.Errorf("budget decisions = %d, want 1:\n%s", budget, explain.RenderDecisions("j1", rec.Decisions()))
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var formats [2]string
			var proposed [2][]optimizer.ProposedView
			for i, explainOn := range []bool{false, true} {
				r := newRig(t)
				root, opts := tc.setup(t, r)
				var rec *explain.Recorder
				if explainOn {
					rec = explain.NewRecorder(opts.JobID, opts.VC)
					r.opt.Explain = rec
				}
				cr := r.opt.Compile(root, opts)
				if !reflect.DeepEqual(cr.Subexprs, r.signer.Subexpressions(cr.Plan)) {
					t.Errorf("explain=%v: Subexprs is not the enumeration of the final plan:\n%s", explainOn, plan.Format(cr.Plan))
				}
				if want := r.signer.JobTag(optimizer.Rewrite(plan.CloneNode(root))); cr.Tag != want {
					t.Errorf("explain=%v: tag = %s, want %s", explainOn, cr.Tag, want)
				}
				tc.check(t, cr, rec)
				formats[i], proposed[i] = plan.Format(cr.Plan), cr.Proposed
			}
			if formats[0] != formats[1] {
				t.Errorf("explain changed the plan:\noff:\n%s\non:\n%s", formats[0], formats[1])
			}
			if !reflect.DeepEqual(proposed[0], proposed[1]) {
				t.Errorf("explain changed the proposals: off %+v, on %+v", proposed[0], proposed[1])
			}
		})
	}
}
