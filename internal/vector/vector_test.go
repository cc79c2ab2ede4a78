package vector

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func intSource(t *testing.T, name string, vals []int64) *Source {
	t.Helper()
	s, err := NewSource([]string{name}, []Col{{Kind: KindInt, Ints: vals}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSourceValidates(t *testing.T) {
	_, err := NewSource([]string{"a", "b"}, []Col{
		{Kind: KindInt, Ints: []int64{1}},
		{Kind: KindInt, Ints: []int64{1, 2}},
	})
	if err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := NewSource([]string{"a"}, nil); err == nil {
		t.Fatal("expected name/col count error")
	}
}

func TestScanBatchSizes(t *testing.T) {
	src := intSource(t, "v", []int64{1, 2, 3, 4, 5})
	sc := NewScan(src, 2)
	if err := sc.Open(); err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for {
		b, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		sizes = append(sizes, b.N)
	}
	if !reflect.DeepEqual(sizes, []int{2, 2, 1}) {
		t.Fatalf("batch sizes = %v", sizes)
	}
}

func TestScanVectorSizeOne(t *testing.T) {
	// Vector size 1 = tuple-at-a-time (the paper's slow end of the sweep).
	src := intSource(t, "v", []int64{7, 8})
	rows, err := Drain(NewScan(src, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0] != int64(7) {
		t.Fatalf("rows = %v", rows)
	}
}

func TestFilterSelectionVector(t *testing.T) {
	src := intSource(t, "v", []int64{5, 15, 25, 35})
	f := &Filter{
		Child: NewScan(src, 1024),
		Preds: []Pred{{ColIdx: 0, Op: PredGe, IntVal: 10}, {ColIdx: 0, Op: PredLt, IntVal: 30}},
	}
	rows, err := Drain(f)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]any{{int64(15)}, {int64(25)}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %v", rows)
	}
}

func TestFilterSkipsEmptyBatches(t *testing.T) {
	src := intSource(t, "v", []int64{1, 1, 1, 9})
	f := &Filter{Child: NewScan(src, 2), Preds: []Pred{{ColIdx: 0, Op: PredGe, IntVal: 5}}}
	rows, err := Drain(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != int64(9) {
		t.Fatalf("rows = %v", rows)
	}
}

func TestFilterFloatPreds(t *testing.T) {
	src, err := NewSource([]string{"d"}, []Col{{Kind: KindFloat, Floats: []float64{0.01, 0.05, 0.09}}})
	if err != nil {
		t.Fatal(err)
	}
	f := &Filter{Child: NewScan(src, 8), Preds: []Pred{
		{ColIdx: 0, Op: PredGeF, FltVal: 0.04},
		{ColIdx: 0, Op: PredLeF, FltVal: 0.06},
	}}
	rows, err := Drain(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != 0.05 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestProjectExpressions(t *testing.T) {
	src, err := NewSource([]string{"a", "b"}, []Col{
		{Kind: KindInt, Ints: []int64{1, 2}},
		{Kind: KindInt, Ints: []int64{10, 20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := &Project{
		Child: NewScan(src, 8),
		Exprs: []Expr{
			Bin{Op: EAddIntNil, L: ColRef{0}, R: ColRef{1}},
			Bin{Op: EMulIntNil, L: ColRef{0}, R: ColRef{1}},
			Bin{Op: EAddIntConstNil, L: ColRef{0}, IntConst: 100},
		},
	}
	rows, err := Drain(p)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]any{{int64(11), int64(10), int64(101)}, {int64(22), int64(40), int64(102)}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %v", rows)
	}
}

func TestProjectFloatExpr(t *testing.T) {
	src, err := NewSource([]string{"p", "d"}, []Col{
		{Kind: KindFloat, Floats: []float64{10, 20}},
		{Kind: KindFloat, Floats: []float64{0.1, 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// p * (1 - d): the TPC-H Q1/Q6 revenue expression.
	p := &Project{
		Child: NewScan(src, 8),
		Exprs: []Expr{Bin{Op: EMulFloat, L: ColRef{0},
			R: Bin{Op: ESubConstFloat, FltConst: 1, L: ColRef{1}}}},
	}
	rows, err := Drain(p)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != 9.0 || rows[1][0] != 10.0 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestAggGlobalSum(t *testing.T) {
	src := intSource(t, "v", []int64{1, 2, 3, 4})
	a := &Agg{Child: NewScan(src, 2), Aggs: []AggSpec{
		{Kind: AggSumInt, Col: 0}, {Kind: AggCount},
	}}
	rows, err := Drain(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != int64(10) || rows[0][1] != int64(4) {
		t.Fatalf("rows = %v", rows)
	}
}

func TestAggGrouped(t *testing.T) {
	src, err := NewSource([]string{"k", "v"}, []Col{
		{Kind: KindInt, Ints: []int64{1, 2, 1, 2, 1}},
		{Kind: KindInt, Ints: []int64{10, 20, 30, 40, 50}},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := &Agg{Child: NewScan(src, 2), Keys: []int{0}, Aggs: []AggSpec{
		{Kind: AggSumInt, Col: 1}, {Kind: AggCount},
	}}
	rows, err := Drain(a)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i][0].(int64) < rows[j][0].(int64) })
	want := [][]any{{int64(1), int64(90), int64(3)}, {int64(2), int64(60), int64(2)}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %v", rows)
	}
}

func TestFullPipelineFilterProjectAgg(t *testing.T) {
	// SELECT sum(a*b) WHERE a >= 2 — across several batch sizes the result
	// must be identical (vector size only changes performance).
	av := []int64{1, 2, 3, 4, 5}
	bv := []int64{10, 10, 10, 10, 10}
	var want int64
	for i := range av {
		if av[i] >= 2 {
			want += av[i] * bv[i]
		}
	}
	for _, size := range []int{1, 2, 3, 1024} {
		src, err := NewSource([]string{"a", "b"}, []Col{
			{Kind: KindInt, Ints: av}, {Kind: KindInt, Ints: bv},
		})
		if err != nil {
			t.Fatal(err)
		}
		plan := &Agg{
			Child: &Project{
				Child: &Filter{
					Child: NewScan(src, size),
					Preds: []Pred{{ColIdx: 0, Op: PredGe, IntVal: 2}},
				},
				Exprs: []Expr{Bin{Op: EMulIntNil, L: ColRef{0}, R: ColRef{1}}},
			},
			Aggs: []AggSpec{{Kind: AggSumInt, Col: 0}},
		}
		rows, err := Drain(plan)
		if err != nil {
			t.Fatal(err)
		}
		if rows[0][0] != want {
			t.Fatalf("size %d: got %v, want %d", size, rows[0][0], want)
		}
	}
}

// Property: result of filter+sum is invariant under vector size.
func TestQuickVectorSizeInvariance(t *testing.T) {
	f := func(raw []uint16, size8 uint8) bool {
		size := int(size8)%100 + 1
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v % 100)
		}
		src, err := NewSource([]string{"v"}, []Col{{Kind: KindInt, Ints: vals}})
		if err != nil {
			return false
		}
		plan := &Agg{
			Child: &Filter{
				Child: NewScan(src, size),
				Preds: []Pred{{ColIdx: 0, Op: PredLt, IntVal: 50}},
			},
			Aggs: []AggSpec{{Kind: AggSumInt, Col: 0}},
		}
		rows, err := Drain(plan)
		if err != nil {
			return false
		}
		var want int64
		for _, v := range vals {
			if v < 50 {
				want += v
			}
		}
		return rows[0][0] == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBatchForEachAndRows(t *testing.T) {
	b := &Batch{N: 3, Sel: []int32{0, 2}}
	if b.Rows() != 2 {
		t.Fatalf("rows = %d", b.Rows())
	}
	var got []int32
	b.ForEach(func(i int32) { got = append(got, i) })
	if !reflect.DeepEqual(got, []int32{0, 2}) {
		t.Fatalf("foreach = %v", got)
	}
	b.Sel = nil
	if b.Rows() != 3 {
		t.Fatalf("rows = %d", b.Rows())
	}
}
