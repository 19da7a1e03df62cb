// Vectorized expression evaluation: typed column vectors, a small expression
// compiler, and window-at-a-time kernels. The contract with the row-at-a-time
// interpreter is BIT-IDENTICAL results: every kernel reproduces the exact
// Value semantics of plan.Binary/Unary.Eval (float-compare ordering for all
// numerics, exact int equality for same-kind ints, NULL comparisons yielding
// false, NULL-as-zero arithmetic, Float-or-NULL division). Anything outside
// kernel coverage — Calls (including all nondeterministic builtins, whose
// PRNG consumption order must match the row path), LIKE, string arithmetic
// beyond concatenation, NULL constants, or columns whose cells don't match
// their declared schema kind — makes compilation or extraction fail and the
// operator falls back to the row path, preserving correctness by
// construction.
package exec

import (
	"cloudviews/internal/data"
	"cloudviews/internal/plan"
)

// batchSize is the number of rows a kernel processes per call. 1024 keeps a
// window's working set (a few KB per column) inside L1/L2 while amortizing
// per-batch overhead to noise.
const batchSize = 1024

// vcol is a typed column vector. Exactly one payload slice is populated,
// selected by kind (ints doubles for KindTime). null, when non-nil, marks
// rows whose logical value is NULL (produced only by the division and modulo
// kernels); masked rows have their payload slot zeroed so that downstream
// AsFloat/AsInt-style reads see 0, exactly like Value.AsFloat on NULL.
type vcol struct {
	kind data.Kind
	ints []int64
	fs   []float64
	ss   []string
	bs   []bool
	null []bool
}

// value reconstructs the data.Value at index i (used when materializing
// kernel output back into rows).
func (c *vcol) value(i int) data.Value {
	if c.null != nil && c.null[i] {
		return data.Value{}
	}
	switch c.kind {
	case data.KindInt, data.KindTime:
		return data.Value{Kind: c.kind, I: c.ints[i]}
	case data.KindFloat:
		return data.Value{Kind: data.KindFloat, F: c.fs[i]}
	case data.KindString:
		return data.Value{Kind: data.KindString, S: c.ss[i]}
	case data.KindBool:
		return data.Value{Kind: data.KindBool, B: c.bs[i]}
	default:
		return data.Value{}
	}
}

// floats returns a float64 view of the first n entries with Value.AsFloat
// semantics. scratch must have capacity ≥ n.
func (c *vcol) floats(scratch []float64, n int) []float64 {
	switch c.kind {
	case data.KindFloat:
		return c.fs[:n]
	case data.KindInt, data.KindTime:
		s := scratch[:n]
		for i := 0; i < n; i++ {
			s[i] = float64(c.ints[i])
		}
		return s
	case data.KindBool:
		s := scratch[:n]
		for i := 0; i < n; i++ {
			if c.bs[i] {
				s[i] = 1
			} else {
				s[i] = 0
			}
		}
		return s
	}
	return scratch[:0]
}

// intsView returns an int64 view of the first n entries with Value.AsInt
// semantics. scratch must have capacity ≥ n.
func (c *vcol) intsView(scratch []int64, n int) []int64 {
	switch c.kind {
	case data.KindInt, data.KindTime:
		return c.ints[:n]
	case data.KindFloat:
		s := scratch[:n]
		for i := 0; i < n; i++ {
			s[i] = int64(c.fs[i])
		}
		return s
	case data.KindBool:
		s := scratch[:n]
		for i := 0; i < n; i++ {
			if c.bs[i] {
				s[i] = 1
			} else {
				s[i] = 0
			}
		}
		return s
	}
	return scratch[:0]
}

// extractCols decomposes a row-oriented table into full-height typed columns.
// ok=false (fall back to the row path) when any cell's runtime kind differs
// from the declared schema kind — which also covers NULL cells, so kernels
// never see NULL inputs except through their own null masks.
func extractCols(t *data.Table) ([]vcol, bool) {
	n := len(t.Rows)
	cols := make([]vcol, len(t.Schema))
	for j, col := range t.Schema {
		c := &cols[j]
		c.kind = col.Kind
		switch col.Kind {
		case data.KindInt, data.KindTime:
			c.ints = make([]int64, n)
		case data.KindFloat:
			c.fs = make([]float64, n)
		case data.KindString:
			c.ss = make([]string, n)
		case data.KindBool:
			c.bs = make([]bool, n)
		default:
			return nil, false
		}
	}
	for i, row := range t.Rows {
		if len(row) != len(t.Schema) {
			return nil, false
		}
		for j := range cols {
			c := &cols[j]
			v := row[j]
			if v.Kind != c.kind {
				return nil, false
			}
			switch c.kind {
			case data.KindInt, data.KindTime:
				c.ints[i] = v.I
			case data.KindFloat:
				c.fs[i] = v.F
			case data.KindString:
				c.ss[i] = v.S
			case data.KindBool:
				c.bs[i] = v.B
			}
		}
	}
	return cols, true
}

// vnode is one compiled expression node. run fills out[0:n] for the window
// starting at absolute row lo; kids have already run for the same window.
type vnode struct {
	out vcol
	run func(lo, n int) // nil for constants (out prefilled at compile)
}

// vecProg is a compiled expression: nodes in post-order (kids before
// parents) over a fixed set of input columns.
type vecProg struct {
	nodes []*vnode
	root  *vnode
}

// eval runs the program for the window [lo, lo+n) and returns the root's
// output column (valid until the next eval).
func (p *vecProg) eval(lo, n int) *vcol {
	for _, nd := range p.nodes {
		if nd.run != nil {
			nd.run(lo, n)
		}
	}
	return &p.root.out
}

type vecCompiler struct {
	cols  []vcol
	ctx   *plan.EvalContext
	nodes []*vnode
}

// compileVec compiles e against the extracted input columns. ok=false means
// the expression is outside kernel coverage and the caller must use the row
// path.
func compileVec(e plan.Expr, cols []vcol, ctx *plan.EvalContext) (*vecProg, bool) {
	vc := &vecCompiler{cols: cols, ctx: ctx}
	root, ok := vc.compile(e)
	if !ok {
		return nil, false
	}
	return &vecProg{nodes: vc.nodes, root: root}, true
}

func (vc *vecCompiler) add(n *vnode) *vnode {
	vc.nodes = append(vc.nodes, n)
	return n
}

func (vc *vecCompiler) compile(e plan.Expr) (*vnode, bool) {
	switch x := e.(type) {
	case *plan.ColRef:
		if x.Index < 0 || x.Index >= len(vc.cols) {
			return nil, false
		}
		src := &vc.cols[x.Index]
		nd := &vnode{}
		nd.out.kind = src.kind
		nd.run = func(lo, n int) {
			switch src.kind {
			case data.KindInt, data.KindTime:
				nd.out.ints = src.ints[lo : lo+n]
			case data.KindFloat:
				nd.out.fs = src.fs[lo : lo+n]
			case data.KindString:
				nd.out.ss = src.ss[lo : lo+n]
			case data.KindBool:
				nd.out.bs = src.bs[lo : lo+n]
			}
		}
		return vc.add(nd), true

	case *plan.Const:
		return vc.compileConst(x.Val)
	case *plan.Param:
		return vc.compileConst(x.Val)
	case *plan.Binary:
		return vc.compileBinary(x)
	case *plan.Unary:
		return vc.compileUnary(x)
	default:
		// Calls (and any future node) fall back: builtins may allocate, and
		// the nondeterministic ones consume per-job PRNG state in row order.
		return nil, false
	}
}

func (vc *vecCompiler) compileConst(v data.Value) (*vnode, bool) {
	if v.IsNull() {
		return nil, false
	}
	nd := &vnode{}
	nd.out.kind = v.Kind
	switch v.Kind {
	case data.KindInt, data.KindTime:
		nd.out.ints = make([]int64, batchSize)
		for i := range nd.out.ints {
			nd.out.ints[i] = v.I
		}
	case data.KindFloat:
		nd.out.fs = make([]float64, batchSize)
		for i := range nd.out.fs {
			nd.out.fs[i] = v.F
		}
	case data.KindString:
		nd.out.ss = make([]string, batchSize)
		for i := range nd.out.ss {
			nd.out.ss[i] = v.S
		}
	case data.KindBool:
		nd.out.bs = make([]bool, batchSize)
		for i := range nd.out.bs {
			nd.out.bs[i] = v.B
		}
	default:
		return nil, false
	}
	return vc.add(nd), true
}

func isNumericKind(k data.Kind) bool {
	return k == data.KindInt || k == data.KindFloat || k == data.KindTime || k == data.KindBool
}

// applyNullGuard forces out[i]=false wherever an operand is masked,
// reproducing `!l.IsNull() && !r.IsNull() && …` comparison semantics.
func applyNullGuard(l, r *vcol, out []bool, n int) {
	if l.null != nil {
		for i := 0; i < n; i++ {
			if l.null[i] {
				out[i] = false
			}
		}
	}
	if r.null != nil {
		for i := 0; i < n; i++ {
			if r.null[i] {
				out[i] = false
			}
		}
	}
}

func (vc *vecCompiler) compileBinary(x *plan.Binary) (*vnode, bool) {
	l, ok := vc.compile(x.L)
	if !ok {
		return nil, false
	}
	r, ok := vc.compile(x.R)
	if !ok {
		return nil, false
	}
	lk, rk := l.out.kind, r.out.kind
	nd := &vnode{}

	switch x.Op {
	case "AND", "OR":
		// Eager evaluation of both sides is observationally identical to the
		// row path's short-circuit because Calls never compile (kernels are
		// side-effect-free), and truthy() on the guaranteed-Bool operands is
		// just the bool payload.
		if lk != data.KindBool || rk != data.KindBool {
			return nil, false
		}
		nd.out.kind = data.KindBool
		nd.out.bs = make([]bool, batchSize)
		and := x.Op == "AND"
		nd.run = func(lo, n int) {
			lb, rb := l.out.bs, r.out.bs
			out := nd.out.bs
			if and {
				for i := 0; i < n; i++ {
					out[i] = lb[i] && rb[i]
				}
			} else {
				for i := 0; i < n; i++ {
					out[i] = lb[i] || rb[i]
				}
			}
		}
		return vc.add(nd), true

	case "=", "!=":
		nd.out.kind = data.KindBool
		nd.out.bs = make([]bool, batchSize)
		neg := x.Op == "!="
		switch {
		case lk == data.KindString && rk == data.KindString:
			nd.run = func(lo, n int) {
				ls, rs, out := l.out.ss, r.out.ss, nd.out.bs
				for i := 0; i < n; i++ {
					out[i] = (ls[i] == rs[i]) != neg
				}
				applyNullGuard(&l.out, &r.out, out, n)
			}
		case lk == rk && (lk == data.KindInt || lk == data.KindTime):
			// Same-kind integer equality is exact (Value.Equal compares I
			// directly, no float round-trip).
			nd.run = func(lo, n int) {
				li, ri, out := l.out.ints, r.out.ints, nd.out.bs
				for i := 0; i < n; i++ {
					out[i] = (li[i] == ri[i]) != neg
				}
				applyNullGuard(&l.out, &r.out, out, n)
			}
		case lk == data.KindBool && rk == data.KindBool:
			nd.run = func(lo, n int) {
				lb, rb, out := l.out.bs, r.out.bs, nd.out.bs
				for i := 0; i < n; i++ {
					out[i] = (lb[i] == rb[i]) != neg
				}
				applyNullGuard(&l.out, &r.out, out, n)
			}
		case isNumericKind(lk) && isNumericKind(rk):
			// Cross-kind (and float) equality goes through AsFloat, exactly
			// like Value.Equal's numeric branch.
			sl := make([]float64, batchSize)
			sr := make([]float64, batchSize)
			nd.run = func(lo, n int) {
				lf := l.out.floats(sl, n)
				rf := r.out.floats(sr, n)
				out := nd.out.bs
				for i := 0; i < n; i++ {
					out[i] = (lf[i] == rf[i]) != neg
				}
				applyNullGuard(&l.out, &r.out, out, n)
			}
		default:
			return nil, false
		}
		return vc.add(nd), true

	case "<", "<=", ">", ">=":
		nd.out.kind = data.KindBool
		nd.out.bs = make([]bool, batchSize)
		op := x.Op
		switch {
		case lk == data.KindString && rk == data.KindString:
			nd.run = func(lo, n int) {
				ls, rs, out := l.out.ss, r.out.ss, nd.out.bs
				switch op {
				case "<":
					for i := 0; i < n; i++ {
						out[i] = ls[i] < rs[i]
					}
				case "<=":
					for i := 0; i < n; i++ {
						out[i] = ls[i] <= rs[i]
					}
				case ">":
					for i := 0; i < n; i++ {
						out[i] = ls[i] > rs[i]
					}
				case ">=":
					for i := 0; i < n; i++ {
						out[i] = ls[i] >= rs[i]
					}
				}
				applyNullGuard(&l.out, &r.out, out, n)
			}
		case isNumericKind(lk) && isNumericKind(rk):
			// Value.Compare orders ALL numerics (ints included) via AsFloat,
			// so ordering is always the float comparison.
			sl := make([]float64, batchSize)
			sr := make([]float64, batchSize)
			nd.run = func(lo, n int) {
				lf := l.out.floats(sl, n)
				rf := r.out.floats(sr, n)
				out := nd.out.bs
				switch op {
				case "<":
					for i := 0; i < n; i++ {
						out[i] = lf[i] < rf[i]
					}
				case "<=":
					for i := 0; i < n; i++ {
						out[i] = lf[i] <= rf[i]
					}
				case ">":
					for i := 0; i < n; i++ {
						out[i] = lf[i] > rf[i]
					}
				case ">=":
					for i := 0; i < n; i++ {
						out[i] = lf[i] >= rf[i]
					}
				}
				applyNullGuard(&l.out, &r.out, out, n)
			}
		default:
			return nil, false
		}
		return vc.add(nd), true

	case "+", "-", "*":
		// Row-path arithmetic branches on RUNTIME kinds, so a masked operand
		// (runtime NULL from a nested division/modulo) flips the result kind
		// on exactly those rows (Float static + NULL runtime → Int branch).
		// Kernels are statically typed — bail if either operand can be NULL.
		if l.out.null != nil || r.out.null != nil {
			return nil, false
		}
		if lk == data.KindString || rk == data.KindString {
			// Row semantics: "+" with ANY string operand concatenates the
			// String() renderings. Kernels support the string+string case;
			// mixed stringification falls back.
			if x.Op != "+" || lk != data.KindString || rk != data.KindString {
				return nil, false
			}
			nd.out.kind = data.KindString
			nd.out.ss = make([]string, batchSize)
			nd.run = func(lo, n int) {
				ls, rs, out := l.out.ss, r.out.ss, nd.out.ss
				for i := 0; i < n; i++ {
					out[i] = ls[i] + rs[i]
				}
			}
			return vc.add(nd), true
		}
		if !isNumericKind(lk) || !isNumericKind(rk) {
			return nil, false
		}
		op := x.Op
		if lk == data.KindFloat || rk == data.KindFloat {
			nd.out.kind = data.KindFloat
			nd.out.fs = make([]float64, batchSize)
			sl := make([]float64, batchSize)
			sr := make([]float64, batchSize)
			nd.run = func(lo, n int) {
				lf := l.out.floats(sl, n)
				rf := r.out.floats(sr, n)
				out := nd.out.fs
				switch op {
				case "+":
					for i := 0; i < n; i++ {
						out[i] = lf[i] + rf[i]
					}
				case "-":
					for i := 0; i < n; i++ {
						out[i] = lf[i] - rf[i]
					}
				case "*":
					for i := 0; i < n; i++ {
						out[i] = lf[i] * rf[i]
					}
				}
			}
			return vc.add(nd), true
		}
		nd.out.kind = data.KindInt
		nd.out.ints = make([]int64, batchSize)
		sl := make([]int64, batchSize)
		sr := make([]int64, batchSize)
		nd.run = func(lo, n int) {
			li := l.out.intsView(sl, n)
			ri := r.out.intsView(sr, n)
			out := nd.out.ints
			switch op {
			case "+":
				for i := 0; i < n; i++ {
					out[i] = li[i] + ri[i]
				}
			case "-":
				for i := 0; i < n; i++ {
					out[i] = li[i] - ri[i]
				}
			case "*":
				for i := 0; i < n; i++ {
					out[i] = li[i] * ri[i]
				}
			}
		}
		return vc.add(nd), true

	case "/":
		if !isNumericKind(lk) || !isNumericKind(rk) {
			return nil, false
		}
		nd.out.kind = data.KindFloat
		nd.out.fs = make([]float64, batchSize)
		nd.out.null = make([]bool, batchSize)
		sl := make([]float64, batchSize)
		sr := make([]float64, batchSize)
		nd.run = func(lo, n int) {
			lf := l.out.floats(sl, n)
			rf := r.out.floats(sr, n)
			out, mask := nd.out.fs, nd.out.null
			for i := 0; i < n; i++ {
				// A masked divisor reads 0 (AsFloat on NULL), so NULL
				// divisors yield NULL exactly like the row path.
				if rf[i] == 0 {
					out[i], mask[i] = 0, true
				} else {
					out[i], mask[i] = lf[i]/rf[i], false
				}
			}
		}
		return vc.add(nd), true

	case "%":
		if !isNumericKind(lk) || !isNumericKind(rk) {
			return nil, false
		}
		nd.out.kind = data.KindInt
		nd.out.ints = make([]int64, batchSize)
		nd.out.null = make([]bool, batchSize)
		sl := make([]int64, batchSize)
		sr := make([]int64, batchSize)
		nd.run = func(lo, n int) {
			li := l.out.intsView(sl, n)
			ri := r.out.intsView(sr, n)
			out, mask := nd.out.ints, nd.out.null
			for i := 0; i < n; i++ {
				if ri[i] == 0 {
					out[i], mask[i] = 0, true
				} else {
					out[i], mask[i] = li[i]%ri[i], false
				}
			}
		}
		return vc.add(nd), true

	default:
		// LIKE and anything unrecognized (which the row path maps to NULL)
		// fall back.
		return nil, false
	}
}

func (vc *vecCompiler) compileUnary(x *plan.Unary) (*vnode, bool) {
	kid, ok := vc.compile(x.E)
	if !ok {
		return nil, false
	}
	nd := &vnode{}
	switch x.Op {
	case "NOT":
		if kid.out.kind != data.KindBool {
			return nil, false
		}
		nd.out.kind = data.KindBool
		nd.out.bs = make([]bool, batchSize)
		nd.run = func(lo, n int) {
			kb, out := kid.out.bs, nd.out.bs
			for i := 0; i < n; i++ {
				out[i] = !kb[i]
			}
		}
		return vc.add(nd), true
	case "-":
		// Same runtime-kind branching hazard as binary arithmetic: a NULL
		// operand negates to Int(0) on the row path regardless of static
		// kind, so maskable kids fall back.
		if kid.out.null != nil {
			return nil, false
		}
		if kid.out.kind == data.KindFloat {
			nd.out.kind = data.KindFloat
			nd.out.fs = make([]float64, batchSize)
			nd.run = func(lo, n int) {
				kf, out := kid.out.fs, nd.out.fs
				for i := 0; i < n; i++ {
					out[i] = -kf[i]
				}
			}
			return vc.add(nd), true
		}
		if !isNumericKind(kid.out.kind) {
			return nil, false
		}
		nd.out.kind = data.KindInt
		nd.out.ints = make([]int64, batchSize)
		scratch := make([]int64, batchSize)
		nd.run = func(lo, n int) {
			ki := kid.out.intsView(scratch, n)
			out := nd.out.ints
			for i := 0; i < n; i++ {
				out[i] = -ki[i]
			}
		}
		return vc.add(nd), true
	default:
		return nil, false
	}
}
