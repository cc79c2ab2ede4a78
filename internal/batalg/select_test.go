package batalg

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bat"
)

// figure1BATs builds the name/age BATs of Figure 1 of the paper.
func figure1BATs() (name, age *bat.BAT) {
	name = bat.FromStrings([]string{"John Wayne", "Roger Moore", "Bob Fosse", "Will Smith"}).SetName("name")
	age = bat.FromInts([]int64{1907, 1927, 1927, 1968}).SetName("age")
	return
}

func oids(b *bat.BAT) []bat.OID { return b.OIDs() }

func TestSelectFigure1(t *testing.T) {
	// select(age, 1927) must return OIDs 1 and 2, as in Figure 1.
	_, age := figure1BATs()
	got := Select(age, 1927)
	want := []bat.OID{1, 2}
	if !reflect.DeepEqual(oids(got), want) {
		t.Fatalf("select(age,1927) = %v, want %v", oids(got), want)
	}
}

func TestSelectEmptyResult(t *testing.T) {
	_, age := figure1BATs()
	if got := Select(age, 1900); got.Len() != 0 {
		t.Fatalf("expected empty, got %d", got.Len())
	}
}

func TestSelectSortedUsesBinarySearch(t *testing.T) {
	b := bat.FromInts([]int64{1, 3, 3, 3, 7, 9})
	got := Select(b, 3)
	want := []bat.OID{1, 2, 3}
	if !reflect.DeepEqual(oids(got), want) {
		t.Fatalf("= %v, want %v", oids(got), want)
	}
	if got2 := Select(b, 2); got2.Len() != 0 {
		t.Fatalf("sorted miss should be empty, got %d", got2.Len())
	}
}

func TestSelectRespectsHSeq(t *testing.T) {
	b := bat.FromInts([]int64{5, 6, 5})
	b.SetHSeq(100)
	got := Select(b, 5)
	want := []bat.OID{100, 102}
	if !reflect.DeepEqual(oids(got), want) {
		t.Fatalf("= %v, want %v", oids(got), want)
	}
}

func TestRangeSelect(t *testing.T) {
	b := bat.FromInts([]int64{10, 20, 30, 40, 50})
	got := RangeSelect(b, 20, 40, true, false)
	want := []bat.OID{1, 2}
	if !reflect.DeepEqual(oids(got), want) {
		t.Fatalf("= %v, want %v", oids(got), want)
	}
	got = RangeSelect(b, 20, 40, false, true)
	want = []bat.OID{2, 3}
	if !reflect.DeepEqual(oids(got), want) {
		t.Fatalf("= %v, want %v", oids(got), want)
	}
}

func TestRangeSelectSkipsNil(t *testing.T) {
	b := bat.FromInts([]int64{bat.NilInt, 5})
	got := RangeSelect(b, bat.NilInt, 10, false, true)
	if !reflect.DeepEqual(oids(got), []bat.OID{1}) {
		t.Fatalf("= %v", oids(got))
	}
}

func TestThetaSelectAllOps(t *testing.T) {
	b := bat.FromInts([]int64{3, 1, 4, 1, 5})
	cases := []struct {
		op   CmpOp
		v    int64
		want []bat.OID
	}{
		{CmpEQ, 1, []bat.OID{1, 3}},
		{CmpNE, 1, []bat.OID{0, 2, 4}},
		{CmpLT, 3, []bat.OID{1, 3}},
		{CmpLE, 3, []bat.OID{0, 1, 3}},
		{CmpGT, 3, []bat.OID{2, 4}},
		{CmpGE, 4, []bat.OID{2, 4}},
	}
	for _, c := range cases {
		got := ThetaSelect(b, c.op, c.v)
		if !reflect.DeepEqual(oids(got), c.want) {
			t.Errorf("theta %s %d = %v, want %v", c.op, c.v, oids(got), c.want)
		}
	}
}

func TestThetaSelectFloat(t *testing.T) {
	b := bat.FromFloats([]float64{0.5, 1.5, 2.5})
	got := ThetaSelectFloat(b, CmpGE, 1.5)
	if !reflect.DeepEqual(oids(got), []bat.OID{1, 2}) {
		t.Fatalf("= %v", oids(got))
	}
}

func TestSelectStr(t *testing.T) {
	name, _ := figure1BATs()
	got := SelectStr(name, CmpEQ, "Bob Fosse")
	if !reflect.DeepEqual(oids(got), []bat.OID{2}) {
		t.Fatalf("= %v", oids(got))
	}
	got = SelectStr(name, CmpGT, "Roger Moore")
	if !reflect.DeepEqual(oids(got), []bat.OID{3}) {
		t.Fatalf("= %v", oids(got))
	}
}

func TestSelectCandChains(t *testing.T) {
	// WHERE v >= 2 AND v <= 3 via chained candidate selection.
	b := bat.FromInts([]int64{1, 2, 3, 4, 2})
	c1 := ThetaSelect(b, CmpGE, 2)
	c2 := SelectCand(b, c1, CmpLE, 3)
	want := []bat.OID{1, 2, 4}
	if !reflect.DeepEqual(oids(c2), want) {
		t.Fatalf("= %v, want %v", oids(c2), want)
	}
}

func TestMirror(t *testing.T) {
	b := bat.FromInts([]int64{9, 9, 9})
	b.SetHSeq(5)
	m := Mirror(b)
	if m.Len() != 3 || m.OIDAt(0) != 5 {
		t.Fatalf("mirror len=%d first=%d", m.Len(), m.OIDAt(0))
	}
}

func TestDiffIntersectUnion(t *testing.T) {
	a := bat.FromOIDs([]bat.OID{1, 2, 3, 5, 8})
	b := bat.FromOIDs([]bat.OID{2, 3, 4, 8})
	if got := oids(Diff(a, b)); !reflect.DeepEqual(got, []bat.OID{1, 5}) {
		t.Fatalf("diff = %v", got)
	}
	if got := oids(Intersect(a, b)); !reflect.DeepEqual(got, []bat.OID{2, 3, 8}) {
		t.Fatalf("intersect = %v", got)
	}
	if got := oids(Union(a, b)); !reflect.DeepEqual(got, []bat.OID{1, 2, 3, 4, 5, 8}) {
		t.Fatalf("union = %v", got)
	}
}

func TestLeftFetchJoinFigure1(t *testing.T) {
	// Full Figure 1 scenario: select on age, project name.
	name, age := figure1BATs()
	cand := Select(age, 1927)
	proj := LeftFetchJoin(cand, name)
	if proj.Len() != 2 || proj.StrAt(0) != "Roger Moore" || proj.StrAt(1) != "Bob Fosse" {
		t.Fatalf("projection = %v", proj)
	}
}

func TestLeftFetchJoinTypes(t *testing.T) {
	cand := bat.FromOIDs([]bat.OID{2, 0})
	if got := LeftFetchJoin(cand, bat.FromInts([]int64{10, 20, 30})).Ints(); !reflect.DeepEqual(got, []int64{30, 10}) {
		t.Fatalf("int fetch = %v", got)
	}
	if got := LeftFetchJoin(cand, bat.FromFloats([]float64{1, 2, 3})).Floats(); !reflect.DeepEqual(got, []float64{3, 1}) {
		t.Fatalf("flt fetch = %v", got)
	}
	if got := LeftFetchJoin(cand, bat.FromBools([]bool{true, false, false})).Bools(); !reflect.DeepEqual(got, []bool{false, true}) {
		t.Fatalf("bool fetch = %v", got)
	}
	if got := LeftFetchJoin(cand, bat.NewVoid(100, 3)).OIDs(); !reflect.DeepEqual(got, []bat.OID{102, 100}) {
		t.Fatalf("void fetch = %v", got)
	}
}

func TestLeftFetchJoinWithHSeq(t *testing.T) {
	col := bat.FromInts([]int64{10, 20, 30})
	col.SetHSeq(7)
	cand := bat.FromOIDs([]bat.OID{8})
	if got := LeftFetchJoin(cand, col).IntAt(0); got != 20 {
		t.Fatalf("fetch = %d", got)
	}
}

// Property: Select agrees with a naive scan for arbitrary data.
func TestQuickSelect(t *testing.T) {
	f := func(vals []int16, needle int16) bool {
		xs := make([]int64, len(vals))
		for i, v := range vals {
			xs[i] = int64(v % 8) // force duplicates
		}
		b := bat.FromInts(xs)
		got := oids(Select(b, int64(needle%8)))
		var want []bat.OID
		for i, v := range xs {
			if v == int64(needle%8) {
				want = append(want, bat.OID(i))
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: candidate chaining (a AND b) == Intersect(select a, select b).
func TestQuickSelectCandEqualsIntersect(t *testing.T) {
	f := func(vals []uint8) bool {
		xs := make([]int64, len(vals))
		for i, v := range vals {
			xs[i] = int64(v % 16)
		}
		b := bat.FromInts(xs)
		chained := SelectCand(b, ThetaSelect(b, CmpGE, 4), CmpLE, 11)
		direct := Intersect(ThetaSelect(b, CmpGE, 4), ThetaSelect(b, CmpLE, 11))
		return reflect.DeepEqual(oids(chained), oids(direct))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
