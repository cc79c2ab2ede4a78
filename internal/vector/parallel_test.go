package vector

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

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
		ex := NewParallelScan(src, workers)
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
