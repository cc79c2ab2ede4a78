package vector

// Regression test: an empty selection produced while scratch buffers were
// still nil used to reach the next predicate as nil ("all rows qualify"),
// silently un-filtering small-vector runs.

import (
	"math/rand"
	"testing"
)

func TestQ6SizeInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	n := 10000
	qty := make([]int64, n)
	price := make([]float64, n)
	disc := make([]float64, n)
	for i := 0; i < n; i++ {
		qty[i] = 1 + r.Int63n(50)
		price[i] = 900 + 100*float64(r.Intn(1000))/10
		disc[i] = float64(r.Intn(11)) / 100
	}
	var want float64
	for i := 0; i < n; i++ {
		if qty[i] < 24 && disc[i] >= 0.05 && disc[i] <= 0.07 {
			want += price[i] * (1 - disc[i])
		}
	}
	for _, size := range []int{1, 2, 7, 1024, n} {
		src, _ := NewSource([]string{"q", "p", "d"}, []Col{
			{Kind: KindInt, Ints: qty}, {Kind: KindFloat, Floats: price}, {Kind: KindFloat, Floats: disc}})
		plan := &Agg{
			Child: &Project{
				Child: &Filter{Child: NewScan(src, size), Preds: []Pred{
					{ColIdx: 0, Op: PredLt, IntVal: 24},
					{ColIdx: 2, Op: PredGeF, FltVal: 0.05},
					{ColIdx: 2, Op: PredLeF, FltVal: 0.07}}},
				Exprs: []Expr{Bin{Op: EMulFloat, L: ColRef{1}, R: Bin{Op: ESubConstFloat, FltConst: 1, L: ColRef{2}}}},
			},
			Aggs: []AggSpec{{Kind: AggSumFloat, Col: 0}}}
		rows, err := Drain(plan)
		if err != nil {
			t.Fatal(err)
		}
		got := rows[0][0].(float64)
		if got < want-0.01 || got > want+0.01 {
			t.Errorf("size %d: got %.2f want %.2f", size, got, want)
		}
	}
}

// TestQ6MorselSizeInvariance runs the morsel-parallel Q6 plan across
// morsel sizes (including sizes that don't divide n, and one smaller
// than the vector size) and checks the sum against the serial oracle.
func TestQ6MorselSizeInvariance(t *testing.T) {
	n := 20000
	src, want := q6Source(t, n, 43)
	for _, morsel := range []int{100, 1023, 4096, n, 2 * n} {
		got, err := ParallelQ6(src, 4, morsel)
		if err != nil {
			t.Fatal(err)
		}
		if got < want-0.01 || got > want+0.01 {
			t.Errorf("morsel %d: got %.2f want %.2f", morsel, got, want)
		}
	}
}

func TestEmptySelectionStaysEmpty(t *testing.T) {
	// First batch fails the first predicate entirely; the second predicate
	// must see an empty (not nil) selection.
	src, _ := NewSource([]string{"q", "d"}, []Col{
		{Kind: KindInt, Ints: []int64{99, 99}},
		{Kind: KindFloat, Floats: []float64{0.06, 0.06}},
	})
	plan := &Agg{
		Child: &Filter{Child: NewScan(src, 1), Preds: []Pred{
			{ColIdx: 0, Op: PredLt, IntVal: 24},
			{ColIdx: 1, Op: PredGeF, FltVal: 0.05},
		}},
		Aggs: []AggSpec{{Kind: AggCount}},
	}
	rows, err := Drain(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != int64(0) {
		t.Fatalf("rows = %v, want one zero-count row", rows)
	}
}
