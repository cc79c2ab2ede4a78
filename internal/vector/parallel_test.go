package vector

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// parallelScan is an Exchange that just scans src in parallel: the
// identity Plan.
func parallelScan(src *Source, workers int) *Exchange {
	return &Exchange{Source: src, Workers: workers, Plan: func(scan Operator) Operator { return scan }}
}

func TestMorselCursorDisjointCover(t *testing.T) {
	src, _ := NewSource([]string{"v"}, []Col{{Kind: KindInt, Ints: make([]int64, 10000)}})
	cur := NewMorselCursor(src, 333)
	covered := 0
	prev := -1
	for {
		lo, hi, ok := cur.claim()
		if !ok {
			break
		}
		if lo <= prev {
			t.Fatalf("overlapping morsel [%d,%d)", lo, hi)
		}
		prev = lo
		covered += hi - lo
	}
	if covered != 10000 {
		t.Fatalf("covered %d rows", covered)
	}
}

func TestParallelScanSumMatchesSerial(t *testing.T) {
	n := 50000
	r := rand.New(rand.NewSource(5))
	vals := make([]int64, n)
	var want int64
	for i := range vals {
		vals[i] = r.Int63n(1000)
		want += vals[i]
	}
	src, err := NewSource([]string{"v"}, []Col{{Kind: KindInt, Ints: vals}})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 7} {
		ex := parallelScan(src, workers)
		ex.MorselSize = 4096
		agg := &Agg{Child: ex, Aggs: []AggSpec{{Kind: AggSumInt, Col: 0}, {Kind: AggCount}}}
		rows, err := Drain(agg)
		if err != nil {
			t.Fatal(err)
		}
		if got := rows[0][0].(int64); got != want {
			t.Errorf("workers=%d: sum = %d, want %d", workers, got, want)
		}
		if got := rows[0][1].(int64); got != int64(n) {
			t.Errorf("workers=%d: count = %d, want %d", workers, got, n)
		}
	}
}

// q6Source builds the synthetic lineitem columns shared by the Q6 tests,
// along with the serially-computed oracle sum.
func q6Source(t testing.TB, n int, seed int64) (*Source, float64) {
	li := workload.GenLineItem(n, seed)
	var want float64
	for i := 0; i < n; i++ {
		if li.Quantity[i] < 24 && li.Discount[i] >= 0.05 && li.Discount[i] <= 0.07 {
			want += li.Price[i] * (1 - li.Discount[i])
		}
	}
	src, err := NewSource([]string{"q", "p", "d"}, []Col{
		{Kind: KindInt, Ints: li.Quantity},
		{Kind: KindFloat, Floats: li.Price},
		{Kind: KindFloat, Floats: li.Discount}})
	if err != nil {
		t.Fatal(err)
	}
	return src, want
}

func TestParallelQ6MatchesSerial(t *testing.T) {
	src, want := q6Source(t, 100000, 42)
	for _, workers := range []int{1, 2, 4, 8} {
		got, err := ParallelQ6(src, workers, 7777)
		if err != nil {
			t.Fatal(err)
		}
		// Partial sums combine in nondeterministic order: allow float
		// rounding slack proportional to the magnitude.
		if math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Errorf("workers=%d: got %.4f want %.4f", workers, got, want)
		}
	}
}

func TestParallelJoinSharedBuild(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	nb, np := 5000, 60000
	bk := make([]int64, nb)
	for i := range bk {
		bk[i] = r.Int63n(4000)
	}
	pk := make([]int64, np)
	for i := range pk {
		pk[i] = r.Int63n(4000)
	}
	ref := refRows(bk)
	var want int64
	for _, k := range pk {
		want += int64(len(ref[k]))
	}

	build, _ := NewSource([]string{"k"}, []Col{{Kind: KindInt, Ints: bk}})
	probe, _ := NewSource([]string{"k"}, []Col{{Kind: KindInt, Ints: pk}})
	jb, err := BuildJoinTable(NewScan(build, 0), 0, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		got, err := ParallelJoinCount(jb, probe, 0, workers, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("workers=%d: %d matches, want %d", workers, got, want)
		}
	}
}

type errOp struct{ n int }

func (e *errOp) Open() error { return nil }
func (e *errOp) Next() (*Batch, error) {
	e.n++
	if e.n > 2 {
		return nil, errors.New("boom")
	}
	return &Batch{N: 1, Cols: []Col{{Kind: KindInt, Ints: []int64{1}}}}, nil
}
func (e *errOp) Close() error { return nil }

func TestExchangeErrorPropagation(t *testing.T) {
	src, _ := NewSource([]string{"v"}, []Col{{Kind: KindInt, Ints: make([]int64, 100)}})
	ex := &Exchange{Source: src, Workers: 3, Plan: func(scan Operator) Operator { return &errOp{} }}
	if err := ex.Open(); err != nil {
		t.Fatal(err)
	}
	var got error
	for {
		b, err := ex.Next()
		if err != nil {
			got = err
			break
		}
		if b == nil {
			break
		}
	}
	if got == nil || got.Error() != "boom" {
		t.Fatalf("err = %v, want boom", got)
	}
	ex.Close() // may re-report another worker's buffered error
}

// TestExchangeInlineExactlyOneWorker: an exchange runs inline exactly
// when it would start one worker — one morsel to claim (an empty input
// included) or Workers 1 — and the inline fragment sees every row, with
// row ids when asked, and ends with its context's error once canceled.
func TestExchangeInlineExactlyOneWorker(t *testing.T) {
	vals := make([]int64, 10000)
	for i := range vals {
		vals[i] = int64(i)
	}
	src, err := NewSource([]string{"v"}, []Col{{Kind: KindInt, Ints: vals}})
	if err != nil {
		t.Fatal(err)
	}
	small, err := src.Restrict([]RowRange{{Lo: 100, Hi: 4000}})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := src.Restrict(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name          string
		src           *Source
		workers, size int
		inline        bool
		rows          int
	}{
		{"one derived morsel", small, 4, 0, true, 3900},
		{"many morsels, many workers", src, 4, 1024, false, 10000},
		{"many morsels, one worker", src, 1, 1024, true, 10000},
		{"nothing to claim", empty, 4, 0, true, 0},
	} {
		ex := &Exchange{Source: c.src, Workers: c.workers, MorselSize: c.size, RowIDs: true,
			Plan: func(scan Operator) Operator { return scan }, Ctx: context.Background()}
		op := ex.Inline()
		if (op != nil) != c.inline {
			t.Fatalf("%s: inline %v, want %v", c.name, op != nil, c.inline)
		}
		if op == nil {
			continue
		}
		rows, err := Drain(op)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != c.rows {
			t.Fatalf("%s: %d rows, want %d", c.name, len(rows), c.rows)
		}
		for _, r := range rows {
			if r[0] != r[1] {
				t.Fatalf("%s: row id %v beside value %v", c.name, r[1], r[0])
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ex := &Exchange{Source: src, Workers: 1, Plan: func(scan Operator) Operator { return scan }, Ctx: ctx}
	if _, err := Drain(ex.Inline()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled inline scan: %v, want context.Canceled", err)
	}
}
