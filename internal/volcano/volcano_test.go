package volcano

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bat"
	"repro/internal/batalg"
)

func peopleTable() *Table {
	return &Table{
		Name:    "people",
		Columns: []string{"name", "age"},
		Rows: []Row{
			{"John Wayne", int64(1907)},
			{"Roger Moore", int64(1927)},
			{"Bob Fosse", int64(1927)},
			{"Will Smith", int64(1968)},
		},
	}
}

func TestScanAll(t *testing.T) {
	rows, err := Drain(NewScan(peopleTable()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestSelectInterpretedPredicate(t *testing.T) {
	// WHERE age = 1927 (the Figure 1 query, tuple-at-a-time style)
	it := &SelectOp{
		Child: NewScan(peopleTable()),
		Pred:  BinOp{Op: OpEq, L: Col{1}, R: Const{int64(1927)}},
	}
	rows, err := Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0] != "Roger Moore" || rows[1][0] != "Bob Fosse" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestSelectComplexPredicate(t *testing.T) {
	// WHERE age > 1910 AND age < 1950
	it := &SelectOp{
		Child: NewScan(peopleTable()),
		Pred: BinOp{Op: OpAnd,
			L: BinOp{Op: OpGt, L: Col{1}, R: Const{int64(1910)}},
			R: BinOp{Op: OpLt, L: Col{1}, R: Const{int64(1950)}},
		},
	}
	rows, err := Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestProjectArithmetic(t *testing.T) {
	it := &Project{
		Child: NewScan(peopleTable()),
		Exprs: []Expr{BinOp{Op: OpAdd, L: Col{1}, R: Const{int64(100)}}},
	}
	rows, err := Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != int64(2007) {
		t.Fatalf("rows = %v", rows)
	}
}

func TestExprTypeMismatch(t *testing.T) {
	it := &SelectOp{
		Child: NewScan(peopleTable()),
		Pred:  BinOp{Op: OpEq, L: Col{0}, R: Const{int64(3)}},
	}
	if _, err := Drain(it); err == nil {
		t.Fatal("expected type error")
	}
}

func TestDivByZero(t *testing.T) {
	it := &Project{
		Child: NewScan(peopleTable()),
		Exprs: []Expr{BinOp{Op: OpDiv, L: Col{1}, R: Const{int64(0)}}},
	}
	if _, err := Drain(it); err == nil {
		t.Fatal("expected division error")
	}
}

func TestMixedIntFloatCompare(t *testing.T) {
	tab := &Table{Columns: []string{"x"}, Rows: []Row{{1.5}, {2.5}}}
	it := &SelectOp{Child: NewScan(tab), Pred: BinOp{Op: OpGt, L: Col{0}, R: Const{int64(2)}}}
	rows, err := Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != 2.5 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestHashJoin(t *testing.T) {
	orders := &Table{Columns: []string{"oid", "cust"}, Rows: []Row{
		{int64(1), int64(10)}, {int64(2), int64(20)}, {int64(3), int64(10)},
	}}
	custs := &Table{Columns: []string{"cid", "name"}, Rows: []Row{
		{int64(10), "ann"}, {int64(20), "bob"},
	}}
	j := &HashJoin{
		Left: NewScan(orders), Right: NewScan(custs),
		LKey: Col{1}, RKey: Col{0},
	}
	rows, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][3] != "ann" || rows[1][3] != "bob" || rows[2][3] != "ann" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestHashJoinEmptyBuild(t *testing.T) {
	l := &Table{Columns: []string{"a"}, Rows: []Row{{int64(1)}}}
	r := &Table{Columns: []string{"b"}, Rows: nil}
	rows, err := Drain(&HashJoin{Left: NewScan(l), Right: NewScan(r), LKey: Col{0}, RKey: Col{0}})
	if err != nil || len(rows) != 0 {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
}

func TestHashAgg(t *testing.T) {
	tab := &Table{Columns: []string{"k", "v"}, Rows: []Row{
		{int64(1), int64(10)}, {int64(2), int64(20)}, {int64(1), int64(30)},
	}}
	a := &HashAgg{
		Child: NewScan(tab),
		Keys:  []Expr{Col{0}},
		Aggs: []AggSpec{
			{Kind: AggSum, Arg: Col{1}},
			{Kind: AggCount},
			{Kind: AggMin, Arg: Col{1}},
			{Kind: AggMax, Arg: Col{1}},
		},
	}
	rows, err := Drain(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []Row{
		{int64(1), int64(40), int64(2), int64(10), int64(30)},
		{int64(2), int64(20), int64(1), int64(20), int64(20)},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}
}

func TestHashAggNoKeys(t *testing.T) {
	tab := &Table{Columns: []string{"v"}, Rows: []Row{{int64(1)}, {int64(2)}}}
	a := &HashAgg{Child: NewScan(tab), Aggs: []AggSpec{{Kind: AggSum, Arg: Col{0}}}}
	rows, err := Drain(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != int64(3) {
		t.Fatalf("rows = %v", rows)
	}
}

func TestSortAscDesc(t *testing.T) {
	tab := &Table{Columns: []string{"v"}, Rows: []Row{{int64(3)}, {int64(1)}, {int64(2)}}}
	asc, err := Drain(&SortOp{Child: NewScan(tab), Key: Col{0}})
	if err != nil {
		t.Fatal(err)
	}
	if asc[0][0] != int64(1) || asc[2][0] != int64(3) {
		t.Fatalf("asc = %v", asc)
	}
	desc, err := Drain(&SortOp{Child: NewScan(tab), Key: Col{0}, Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	if desc[0][0] != int64(3) {
		t.Fatalf("desc = %v", desc)
	}
}

func TestLimit(t *testing.T) {
	tab := &Table{Columns: []string{"v"}, Rows: []Row{{int64(1)}, {int64(2)}, {int64(3)}}}
	rows, err := Drain(&Limit{Child: NewScan(tab), N: 2})
	if err != nil || len(rows) != 2 {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
}

func TestReOpenRestarts(t *testing.T) {
	sc := NewScan(peopleTable())
	if _, err := Drain(sc); err != nil {
		t.Fatal(err)
	}
	rows, err := Drain(sc)
	if err != nil || len(rows) != 4 {
		t.Fatalf("second drain rows=%d err=%v", len(rows), err)
	}
}

// TestAgreesWithBATAlgebra cross-checks the two engines on the same query:
// SELECT sum(v) FROM t WHERE v >= 100 AND v < 900.
func TestAgreesWithBATAlgebra(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	n := 10000
	vals := make([]int64, n)
	rows := make([]Row, n)
	for i := range vals {
		vals[i] = r.Int63n(1000)
		rows[i] = Row{vals[i]}
	}
	// Volcano plan
	it := &HashAgg{
		Child: &SelectOp{
			Child: NewScan(&Table{Columns: []string{"v"}, Rows: rows}),
			Pred: BinOp{Op: OpAnd,
				L: BinOp{Op: OpGe, L: Col{0}, R: Const{int64(100)}},
				R: BinOp{Op: OpLt, L: Col{0}, R: Const{int64(900)}},
			},
		},
		Aggs: []AggSpec{{Kind: AggSum, Arg: Col{0}}},
	}
	got, err := Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	// BAT plan
	b := bat.FromInts(vals)
	cand := batalg.RangeSelect(b, 100, 900, true, false)
	want := batalg.Sum(batalg.LeftFetchJoin(cand, b))
	if got[0][0] != want {
		t.Fatalf("volcano %v != bat %v", got[0][0], want)
	}
}
