package exec_test

import (
	"strings"
	"sync"
	"testing"

	"cloudviews/internal/data"
	"cloudviews/internal/exec"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/sqlparser"
)

func runQuery(t *testing.T, src string) (*exec.RunResult, plan.Node) {
	t.Helper()
	cat, err := fixtures.Retail(fixtures.DefaultRetail())
	if err != nil {
		t.Fatal(err)
	}
	q, err := sqlparser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	b := &plan.Binder{Catalog: cat}
	n, err := b.BindQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	ex := &exec.Executor{Catalog: cat}
	res, err := ex.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	return res, n
}

func TestScanAll(t *testing.T) {
	res, _ := runQuery(t, `SELECT * FROM Customer`)
	if res.Table.NumRows() != 200 {
		t.Errorf("rows = %d, want 200", res.Table.NumRows())
	}
	if res.InputBytes <= 0 || res.TotalWork <= 0 {
		t.Error("accounting must be positive")
	}
}

func TestFilterCorrectness(t *testing.T) {
	res, _ := runQuery(t, `SELECT * FROM Customer WHERE MktSegment = 'Asia'`)
	if res.Table.NumRows() == 0 || res.Table.NumRows() >= 200 {
		t.Fatalf("unexpected filter output %d", res.Table.NumRows())
	}
	for _, r := range res.Table.Rows {
		if r[2].S != "Asia" {
			t.Fatalf("non-Asia row leaked: %v", r)
		}
	}
}

func TestProjectExpr(t *testing.T) {
	res, _ := runQuery(t, `SELECT Price * Quantity AS revenue, SaleId FROM Sales WHERE SaleId < 10`)
	if res.Table.NumRows() != 10 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
	if res.Table.Schema[0].Name != "revenue" {
		t.Errorf("schema = %v", res.Table.Schema)
	}
	for _, r := range res.Table.Rows {
		if r[0].Kind != data.KindFloat {
			t.Errorf("revenue kind = %v", r[0].Kind)
		}
	}
}

// joinRowCount runs the same join under all three algorithms and checks the
// results agree — the algorithm is a physical choice only.
func TestJoinAlgorithmsAgree(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	q, _ := sqlparser.ParseQuery(`SELECT Name, Price FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id WHERE MktSegment = 'Asia'`)
	b := &plan.Binder{Catalog: cat}
	n, err := b.BindQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	var prints []string
	for _, algo := range []plan.JoinAlgo{plan.JoinHash, plan.JoinMerge, plan.JoinLoop} {
		c := plan.CloneNode(n)
		plan.Walk(c, func(m plan.Node) {
			if j, ok := m.(*plan.Join); ok {
				j.Algo = algo
			}
		})
		ex := &exec.Executor{Catalog: cat}
		res, err := ex.Run(c)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		prints = append(prints, res.Table.Fingerprint())
	}
	if prints[0] != prints[1] || prints[1] != prints[2] {
		t.Error("join algorithms disagree on results")
	}
}

func TestJoinAutoChoosesLoopForTinyInput(t *testing.T) {
	res, _ := runQuery(t, `SELECT Name, Brand FROM (SELECT * FROM Parts WHERE PartId < 3) AS p JOIN (SELECT * FROM Customer WHERE Id < 3) AS c ON p.PartId = c.Id`)
	var algo plan.JoinAlgo
	for _, s := range res.Stats {
		if s.Op == "Join" {
			algo = s.Algo
		}
	}
	if algo != plan.JoinLoop {
		t.Errorf("algo = %v, want Loop for tiny inputs", algo)
	}
}

func TestAggregateCorrectness(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	// Hand-compute expected counts per segment.
	ver, _ := cat.Latest("Customer")
	want := map[string]int64{}
	for _, r := range ver.Table.Rows {
		want[r[2].S]++
	}
	q, _ := sqlparser.ParseQuery(`SELECT MktSegment, COUNT(*) AS n FROM Customer GROUP BY MktSegment`)
	b := &plan.Binder{Catalog: cat}
	n, _ := b.BindQuery(q)
	ex := &exec.Executor{Catalog: cat}
	res, err := ex.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != len(want) {
		t.Fatalf("groups = %d, want %d", res.Table.NumRows(), len(want))
	}
	for _, r := range res.Table.Rows {
		if r[1].I != want[r[0].S] {
			t.Errorf("count[%s] = %d, want %d", r[0].S, r[1].I, want[r[0].S])
		}
	}
}

func TestAggregateSumAvgMinMax(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	q, _ := sqlparser.ParseQuery(`SELECT SUM(Quantity) AS s, AVG(Quantity) AS a, MIN(Quantity) AS lo, MAX(Quantity) AS hi, COUNT(*) AS n FROM Sales GROUP BY PartId HAVING n > 0`)
	b := &plan.Binder{Catalog: cat}
	n, _ := b.BindQuery(q)
	ex := &exec.Executor{Catalog: cat}
	res, err := ex.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Table.Rows {
		s, a, lo, hi, cnt := r[0].AsFloat(), r[1].F, r[2].I, r[3].I, r[4].I
		if cnt <= 0 {
			t.Fatal("count must be positive")
		}
		if a < float64(lo) || a > float64(hi) {
			t.Errorf("avg %g outside [%d,%d]", a, lo, hi)
		}
		if s != a*float64(cnt) && s-a*float64(cnt) > 1e-6 {
			t.Errorf("sum %g != avg*count %g", s, a*float64(cnt))
		}
	}
}

func TestUnionAll(t *testing.T) {
	res, _ := runQuery(t, `SELECT Name FROM Customer WHERE Id < 5 UNION ALL SELECT Name FROM Customer WHERE Id < 3`)
	if res.Table.NumRows() != 8 {
		t.Errorf("rows = %d, want 8", res.Table.NumRows())
	}
}

func TestUDOExecution(t *testing.T) {
	res, _ := runQuery(t, `PROCESS (SELECT * FROM Customer WHERE Id < 10) USING "NormalizeStrings"`)
	if res.Table.NumRows() != 10 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
	for _, r := range res.Table.Rows {
		if r[1].S != strings.ToLower(r[1].S) {
			t.Errorf("not lowercased: %q", r[1].S)
		}
	}
}

func TestSampleDeterministic(t *testing.T) {
	r1, _ := runQuery(t, `SELECT * FROM Sales SAMPLE 10 PERCENT`)
	r2, _ := runQuery(t, `SELECT * FROM Sales SAMPLE 10 PERCENT`)
	if r1.Table.Fingerprint() != r2.Table.Fingerprint() {
		t.Error("sampling must be deterministic")
	}
	n := r1.Table.NumRows()
	if n < 200 || n > 900 {
		t.Errorf("sample of 5000 at 10%% = %d rows; expected roughly 500", n)
	}
}

func TestSpoolAndViewScanRoundTrip(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	q, _ := sqlparser.ParseQuery(`SELECT * FROM Customer WHERE MktSegment = 'Asia'`)
	b := &plan.Binder{Catalog: cat}
	n, _ := b.BindQuery(q)

	store := &fakeStore{views: map[signature.Sig]*fakeView{}}
	spooled := &plan.Spool{Child: n, StrictSig: "sig1", Path: "views/sig1"}
	ex := &exec.Executor{Catalog: cat, Views: store}
	res, err := ex.Run(spooled)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpoolWork <= 0 {
		t.Error("spool must charge write work")
	}
	v, ok := store.views["sig1"]
	if !ok {
		t.Fatal("view not materialized")
	}
	if v.t.Fingerprint() != res.Table.Fingerprint() {
		t.Error("materialized view differs from pipeline output")
	}

	// Now read it back through a ViewScan.
	vs := &plan.ViewScan{StrictSig: "sig1", Out: n.Schema(), Rows: int64(v.t.NumRows()), Bytes: v.t.ByteSize()}
	ex2 := &exec.Executor{Catalog: cat, Views: store}
	res2, err := ex2.Run(vs)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Table.Fingerprint() != res.Table.Fingerprint() {
		t.Error("view scan result differs")
	}
	if res2.ViewBytes <= 0 || res2.InputBytes != 0 {
		t.Errorf("view read accounting wrong: view=%d input=%d", res2.ViewBytes, res2.InputBytes)
	}
}

func TestViewScanMissingView(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	vs := &plan.ViewScan{StrictSig: "nope", Out: data.Schema{{Name: "a", Kind: data.KindInt}}}
	ex := &exec.Executor{Catalog: cat, Views: &fakeStore{views: map[signature.Sig]*fakeView{}}}
	if _, err := ex.Run(vs); err == nil {
		t.Error("expected error for missing view")
	}
}

func TestResultCacheReplay(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	q, _ := sqlparser.ParseQuery(`SELECT MktSegment, COUNT(*) AS n FROM Customer GROUP BY MktSegment`)
	b := &plan.Binder{Catalog: cat}
	n, _ := b.BindQuery(q)
	signer := &signature.Signer{EngineVersion: "t"}
	sigMap := map[plan.Node]signature.Sig{}
	for _, s := range signer.Subexpressions(n) {
		sigMap[s.Node] = s.Strict
	}
	cache := exec.NewCache()
	ex1 := &exec.Executor{Catalog: cat, Cache: cache, SigMap: sigMap}
	r1, err := ex1.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHits != 0 {
		t.Errorf("first run hits = %d", r1.CacheHits)
	}

	// Second run over an identical plan (fresh bind → same strict sigs).
	n2, _ := (&plan.Binder{Catalog: cat}).BindQuery(q)
	sigMap2 := map[plan.Node]signature.Sig{}
	for _, s := range signer.Subexpressions(n2) {
		sigMap2[s.Node] = s.Strict
	}
	ex2 := &exec.Executor{Catalog: cat, Cache: cache, SigMap: sigMap2}
	r2, err := ex2.Run(n2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.CacheHits != 1 {
		t.Errorf("second run hits = %d, want 1 (root served from cache)", r2.CacheHits)
	}
	if r1.Table.Fingerprint() != r2.Table.Fingerprint() {
		t.Error("cached result differs")
	}
	if r1.TotalWork != r2.TotalWork {
		t.Errorf("replayed accounting differs: %g vs %g", r1.TotalWork, r2.TotalWork)
	}
}

func TestScaleFactorAccounting(t *testing.T) {
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	q, _ := sqlparser.ParseQuery(`SELECT * FROM Customer WHERE MktSegment = 'Asia'`)
	run := func() *exec.RunResult {
		b := &plan.Binder{Catalog: cat}
		n, _ := b.BindQuery(q)
		ex := &exec.Executor{Catalog: cat}
		res, err := ex.Run(n)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	small := run()
	cat.SetScaleFactor("Customer", 1000)
	big := run()
	if big.Table.NumRows() != small.Table.NumRows() {
		t.Error("scale factor must not change actual rows")
	}
	ratio := big.TotalWork / small.TotalWork
	if ratio < 500 || ratio > 2000 {
		t.Errorf("work ratio = %g, want ~1000", ratio)
	}
	if big.InputBytes != small.InputBytes*1000 {
		t.Errorf("input bytes: %d vs %d", big.InputBytes, small.InputBytes)
	}
}

func TestExchangeReadAccounting(t *testing.T) {
	res, _ := runQuery(t, `SELECT MktSegment, COUNT(*) AS n FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id GROUP BY MktSegment`)
	if res.TotalRead <= res.InputBytes {
		t.Error("joins/aggregates must add intermediate exchange reads")
	}
}

func TestMergeJoinDuplicateKeys(t *testing.T) {
	// Many sales share CustomerId; merge join must emit the full cross
	// product per equal-key run.
	cat, _ := fixtures.Retail(fixtures.DefaultRetail())
	q, _ := sqlparser.ParseQuery(`SELECT SaleId FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id`)
	b := &plan.Binder{Catalog: cat}
	n, _ := b.BindQuery(q)
	plan.Walk(n, func(m plan.Node) {
		if j, ok := m.(*plan.Join); ok {
			j.Algo = plan.JoinMerge
		}
	})
	ex := &exec.Executor{Catalog: cat}
	res, err := ex.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 5000 {
		t.Errorf("rows = %d, want 5000 (every sale has a customer)", res.Table.NumRows())
	}
}

type fakeView struct {
	t    *data.Table
	mult float64
}

type fakeStore struct {
	views map[signature.Sig]*fakeView
}

func (f *fakeStore) Fetch(s signature.Sig) (*data.Table, float64, bool) {
	v, ok := f.views[s]
	if !ok {
		return nil, 0, false
	}
	return v.t, v.mult, true
}

func (f *fakeStore) Materialize(s signature.Sig, path, vc string, t *data.Table, mult float64) error {
	f.views[s] = &fakeView{t: t, mult: mult}
	return nil
}

// TestCacheConcurrentAccess hammers one shared result cache from many
// goroutines executing overlapping plans — the shape of concurrent job
// submission. Run under -race.
func TestCacheConcurrentAccess(t *testing.T) {
	cat, err := fixtures.Retail(fixtures.RetailConfig{Customers: 500, Parts: 30, Sales: 4000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cache := exec.NewCache()
	signer := &signature.Signer{EngineVersion: "cache-test"}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	fps := make([]string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Every goroutine runs the same overlapping query; all of them
			// race to populate and read the shared cache.
			q, err := sqlparser.ParseQuery(`SELECT CustomerId, SUM(Price) AS s FROM Sales WHERE Quantity > 1 GROUP BY CustomerId`)
			if err != nil {
				errs <- err
				return
			}
			b := &plan.Binder{Catalog: cat}
			n, err := b.BindQuery(q)
			if err != nil {
				errs <- err
				return
			}
			ex := &exec.Executor{Catalog: cat, Cache: cache, SigMap: signer.Physical(n)}
			res, err := ex.Run(n)
			if err != nil {
				errs <- err
				return
			}
			fps[g] = res.Table.Fingerprint()
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for g := 1; g < goroutines; g++ {
		if fps[g] != fps[0] {
			t.Fatalf("goroutine %d saw a different result", g)
		}
	}
	if cache.Len() == 0 {
		t.Error("cache should have been populated")
	}
}
