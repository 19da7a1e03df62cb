package exec_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
	"cloudviews/internal/exec"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/plan"
	"cloudviews/internal/sqlparser"
)

// vecEquivalenceQueries is the lock-step corpus: every operator the vectorized
// path touches, plus expressions that must fall back (LIKE, Calls, string
// arithmetic on mixed kinds) so the dispatch seam itself is exercised.
var vecEquivalenceQueries = []string{
	`SELECT * FROM Sales WHERE Price > 50`,
	`SELECT * FROM Sales WHERE Price > 50 AND Quantity < 5`,
	`SELECT * FROM Sales WHERE Price * 2 + 1 >= 100 OR Quantity = 3`,
	`SELECT * FROM Sales WHERE NOT (Price <= 50)`,
	`SELECT * FROM Customer WHERE MktSegment = 'Asia'`,
	`SELECT * FROM Customer WHERE Name >= 'customer-0100'`,
	`SELECT * FROM Customer WHERE Name LIKE 'customer-00%'`,
	`SELECT SaleId, Price * Quantity AS revenue FROM Sales`,
	`SELECT SaleId + 1 AS s, Price / Quantity AS unit, SaleId % 7 AS m FROM Sales`,
	`SELECT -Price AS np, -(SaleId) AS ns FROM Sales`,
	`SELECT Name + '!' AS n FROM Customer`,
	`SELECT Quantity, COUNT(*) AS n, SUM(Price) AS s, AVG(Price) AS a, MIN(Price) AS lo, MAX(Price) AS hi FROM Sales GROUP BY Quantity`,
	`SELECT COUNT(*) AS n, SUM(Quantity) AS q FROM Sales`,
	`SELECT CustomerId, SUM(Price / Quantity) AS s FROM Sales GROUP BY CustomerId`,
	`SELECT Name, Price FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id`,
	`SELECT Name, Price FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id WHERE MktSegment = 'Asia'`,
	`SELECT Name, Price FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id AND Sales.Quantity > 2`,
	`SELECT CustomerId, COUNT(*) AS n, SUM(Price) AS total, AVG(Discount) AS avgd, MIN(Quantity) AS mn, MAX(Quantity) AS mx FROM Sales GROUP BY CustomerId`,
	`SELECT MktSegment, COUNT(*) AS n FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id GROUP BY MktSegment`,
	`SELECT DISTINCT CustomerId FROM Sales`,
	`SELECT CustomerId, SUM(Price*Quantity) AS rev FROM Sales WHERE Discount < 0.3 GROUP BY CustomerId ORDER BY rev DESC`,
	`SELECT * FROM Sales ORDER BY Price DESC, SaleId`,
	`SELECT * FROM Customer ORDER BY MktSegment, Name DESC`,
	`SELECT * FROM Sales SAMPLE 25 PERCENT`,
	`SELECT SaleId FROM Sales WHERE Price > 90 UNION ALL SELECT SaleId FROM Sales WHERE Price < 10`,
	`SELECT DISTINCT MktSegment FROM Customer`,
	`SELECT MktSegment, COUNT(*) AS n FROM Customer GROUP BY MktSegment HAVING n > 10`,
	`SELECT x FROM (SELECT SaleId AS x FROM Sales WHERE Price > 20) AS sub WHERE x % 2 = 0`,
}

// adversarialQueries run against a hand-built table holding separator bytes,
// extreme numerics, times, bools, and NULL-producing expressions.
var adversarialQueries = []string{
	`SELECT K1, K2, COUNT(*) AS n FROM Adv GROUP BY K1, K2`,
	`SELECT * FROM Adv WHERE Big > 1000000000000`,
	`SELECT * FROM Adv WHERE F != 0.1`,
	`SELECT * FROM Adv ORDER BY F, Big DESC`,
	`SELECT * FROM Adv ORDER BY K1 DESC, K2`,
	`SELECT Big / N AS d, Big % N AS m FROM Adv`,
	`SELECT * FROM Adv WHERE Flag = TRUE`,
	`SELECT a.K1, b.K2 FROM Adv AS a JOIN Adv AS b ON a.K1 = b.K1`,
	`SELECT K1, MIN(F) AS lo, MAX(Big) AS hi FROM Adv GROUP BY K1`,
	`SELECT * FROM Adv WHERE Ts >= Ts`,
	`SELECT * FROM Adv SAMPLE 50 PERCENT`,
}

func adversarialCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat, err := fixtures.Retail(fixtures.DefaultRetail())
	if err != nil {
		t.Fatal(err)
	}
	schema := data.Schema{
		{Name: "K1", Kind: data.KindString},
		{Name: "K2", Kind: data.KindString},
		{Name: "Big", Kind: data.KindInt},
		{Name: "N", Kind: data.KindInt},
		{Name: "F", Kind: data.KindFloat},
		{Name: "Flag", Kind: data.KindBool},
		{Name: "Ts", Kind: data.KindTime},
	}
	if _, err := cat.Define("Adv", schema); err != nil {
		t.Fatal(err)
	}
	tb := data.NewTable(schema)
	ts := time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)
	rows := []data.Row{
		// The historical "%d:%s"+"\x00" key encoding made these two rows
		// collide on (K1, K2): both rendered "3:x\x003:y\x003:z".
		{data.String_("x\x003:y"), data.String_("z"), data.Int(1 << 60), data.Int(3), data.Float(0.1), data.Bool(true), data.Time(ts)},
		{data.String_("x"), data.String_("y\x003:z"), data.Int(-(1 << 60)), data.Int(0), data.Float(-0.1), data.Bool(false), data.Time(ts.Add(time.Hour))},
		{data.String_("x\x01"), data.String_("\x00"), data.Int(9007199254740993), data.Int(7), data.Float(2.5), data.Bool(true), data.Time(ts)},
		{data.String_(""), data.String_(""), data.Int(0), data.Int(1), data.Float(0), data.Bool(false), data.Time(ts)},
		{data.String_("x"), data.String_("z"), data.Int(42), data.Int(5), data.Float(0.1), data.Bool(true), data.Time(ts)},
	}
	for _, r := range rows {
		tb.Append(r)
	}
	if _, err := cat.BulkUpdate("Adv", fixtures.Epoch, tb); err != nil {
		t.Fatal(err)
	}
	return cat
}

func bindQuery(t *testing.T, cat *catalog.Catalog, src string) plan.Node {
	t.Helper()
	q, err := sqlparser.ParseQuery(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", src, err)
	}
	n, err := (&plan.Binder{Catalog: cat}).BindQuery(q)
	if err != nil {
		t.Fatalf("%s: bind: %v", src, err)
	}
	return n
}

func valueExactEqual(a, b data.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case data.KindNull:
		return true
	case data.KindInt, data.KindTime:
		return a.I == b.I
	case data.KindFloat:
		// Bit-level comparison distinguishes -0.0 and NaN payloads.
		return a.F == b.F || (a.F != a.F && b.F != b.F)
	case data.KindString:
		return a.S == b.S
	case data.KindBool:
		return a.B == b.B
	}
	return false
}

// requireRunsEqual asserts results AND accounting are identical, ignoring
// only NodeStat.Batches (definitionally 0 on the row path).
func requireRunsEqual(t *testing.T, src string, row, vec *exec.RunResult) {
	t.Helper()
	if row.Table.NumRows() != vec.Table.NumRows() {
		t.Fatalf("%s: rows row=%d vec=%d", src, row.Table.NumRows(), vec.Table.NumRows())
	}
	if !row.Table.Schema.Equal(vec.Table.Schema) {
		t.Fatalf("%s: schema mismatch", src)
	}
	for i := range row.Table.Rows {
		ra, rb := row.Table.Rows[i], vec.Table.Rows[i]
		for j := range ra {
			if !valueExactEqual(ra[j], rb[j]) {
				t.Fatalf("%s: row %d col %d: row-path %v (%v) vs vec %v (%v)",
					src, i, j, ra[j], ra[j].Kind, rb[j], rb[j].Kind)
			}
		}
	}
	if len(row.Stats) != len(vec.Stats) {
		t.Fatalf("%s: stat count row=%d vec=%d", src, len(row.Stats), len(vec.Stats))
	}
	for i := range row.Stats {
		a, b := row.Stats[i], vec.Stats[i]
		if a.Op != b.Op || a.Algo != b.Algo || a.RowsOut != b.RowsOut ||
			a.BytesOut != b.BytesOut || a.Work != b.Work || a.IORead != b.IORead {
			t.Fatalf("%s: stat %d mismatch: %+v vs %+v", src, i, a, b)
		}
	}
	if row.TotalWork != vec.TotalWork || row.InputBytes != vec.InputBytes ||
		row.TotalRead != vec.TotalRead || row.ViewBytes != vec.ViewBytes {
		t.Fatalf("%s: accounting mismatch", src)
	}
}

func runBoth(t *testing.T, cat *catalog.Catalog, src string) (*exec.RunResult, *exec.RunResult) {
	t.Helper()
	n := bindQuery(t, cat, src)
	row, err := (&exec.Executor{Catalog: cat}).Run(n)
	if err != nil {
		t.Fatalf("%s: row run: %v", src, err)
	}
	vec, err := (&exec.Executor{Catalog: cat, Vectorized: true}).Run(n)
	if err != nil {
		t.Fatalf("%s: vec run: %v", src, err)
	}
	return row, vec
}

// TestVectorizedRowEquivalence is the serial-twin proof: every corpus query
// produces byte-identical tables and accounting on both paths.
func TestVectorizedRowEquivalence(t *testing.T) {
	cat := adversarialCatalog(t)
	for _, src := range append(append([]string{}, vecEquivalenceQueries...), adversarialQueries...) {
		row, vec := runBoth(t, cat, src)
		requireRunsEqual(t, src, row, vec)
	}
}

// TestNondeterministicFilterMatchesRowPath: RANDOM() draws from the per-job
// PRNG in row order, so with the same seed the vectorized executor (which
// falls back to the row interpreter for Calls) must keep exactly the rows the
// row path keeps.
func TestNondeterministicFilterMatchesRowPath(t *testing.T) {
	cat, err := fixtures.Retail(fixtures.RetailConfig{Customers: 100, Parts: 20, Sales: 6000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	n := bindQuery(t, cat, `SELECT SaleId FROM Sales WHERE RANDOM() < 0.5`)
	run := func(vectorized bool) string {
		ex := &exec.Executor{Catalog: cat, Vectorized: vectorized, Ctx: &plan.EvalContext{Rand: data.NewRand(99)}}
		res, err := ex.Run(plan.CloneNode(n))
		if err != nil {
			t.Fatal(err)
		}
		return res.Table.Fingerprint()
	}
	if run(false) != run(true) {
		t.Error("RANDOM() filter must select the same rows on the row and vectorized paths")
	}
}

// TestVectorizedActuallyVectorizes guards the equivalence corpus against
// becoming vacuous: the common filter/project/aggregate/join/sort/sample
// shapes must actually take the batch path.
func TestVectorizedActuallyVectorizes(t *testing.T) {
	cat := adversarialCatalog(t)
	mustBatch := []string{
		`SELECT * FROM Sales WHERE Price > 50`,
		`SELECT SaleId, Price * Quantity AS revenue FROM Sales`,
		`SELECT Quantity, COUNT(*) AS n, SUM(Price) AS s FROM Sales GROUP BY Quantity`,
		`SELECT Name, Price FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id`,
		`SELECT * FROM Sales ORDER BY Price DESC, SaleId`,
		`SELECT * FROM Sales SAMPLE 25 PERCENT`,
	}
	for _, src := range mustBatch {
		n := bindQuery(t, cat, src)
		vec, err := (&exec.Executor{Catalog: cat, Vectorized: true}).Run(n)
		if err != nil {
			t.Fatal(err)
		}
		if vec.TotalBatches == 0 {
			t.Errorf("%s: expected vectorized execution, TotalBatches = 0", src)
		}
	}
	// And the row path must never report batches.
	n := bindQuery(t, cat, mustBatch[0])
	row, err := (&exec.Executor{Catalog: cat}).Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if row.TotalBatches != 0 {
		t.Errorf("row path reported %d batches", row.TotalBatches)
	}
}

// TestVectorizedLockStepRace runs the batch and row paths concurrently over
// the shared catalog and plans — under -race this proves the vectorized
// kernels don't share mutable state across executors.
func TestVectorizedLockStepRace(t *testing.T) {
	cat := adversarialCatalog(t)
	queries := append(append([]string{}, vecEquivalenceQueries...), adversarialQueries...)
	plans := make([]plan.Node, len(queries))
	for i, src := range queries {
		plans[i] = bindQuery(t, cat, src)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(queries))
	for i, src := range queries {
		wg.Add(1)
		go func(i int, src string) {
			defer wg.Done()
			n := plans[i]
			rowRes, err := (&exec.Executor{Catalog: cat}).Run(n)
			if err != nil {
				errs <- fmt.Errorf("%s: row: %w", src, err)
				return
			}
			vecRes, err := (&exec.Executor{Catalog: cat, Vectorized: true}).Run(n)
			if err != nil {
				errs <- fmt.Errorf("%s: vec: %w", src, err)
				return
			}
			if rowRes.Table.Fingerprint() != vecRes.Table.Fingerprint() {
				errs <- fmt.Errorf("%s: fingerprint mismatch", src)
			}
		}(i, src)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestGroupKeyCollisionRegression is the end-to-end satellite regression:
// under the historical separator-joined encoding the first two Adv rows
// produced one group; the length-prefixed encoding must keep them apart.
func TestGroupKeyCollisionRegression(t *testing.T) {
	cat := adversarialCatalog(t)
	for _, vectorized := range []bool{false, true} {
		n := bindQuery(t, cat, `SELECT K1, K2, COUNT(*) AS n FROM Adv GROUP BY K1, K2`)
		res, err := (&exec.Executor{Catalog: cat, Vectorized: vectorized}).Run(n)
		if err != nil {
			t.Fatal(err)
		}
		if res.Table.NumRows() != 5 {
			t.Fatalf("vectorized=%v: got %d groups, want 5 (adversarial keys must not collide)",
				vectorized, res.Table.NumRows())
		}
		for _, r := range res.Table.Rows {
			if r[2].I != 1 {
				t.Fatalf("vectorized=%v: group (%q,%q) has count %d, want 1", vectorized, r[0].S, r[1].S, r[2].I)
			}
		}
	}
}
