package batalg

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bat"
)

func TestGroupBasic(t *testing.T) {
	b := bat.FromInts([]int64{5, 7, 5, 9, 7, 5})
	g := Group(b)
	if g.NGroups != 3 {
		t.Fatalf("ngroups = %d, want 3", g.NGroups)
	}
	if got := g.IDs.OIDs(); !reflect.DeepEqual(got, []bat.OID{0, 1, 0, 2, 1, 0}) {
		t.Fatalf("ids = %v", got)
	}
	if got := g.Counts.Ints(); !reflect.DeepEqual(got, []int64{3, 2, 1}) {
		t.Fatalf("counts = %v", got)
	}
	// Extents point at first occurrences: positions 0,1,3.
	if got := g.Extents.OIDs(); !reflect.DeepEqual(got, []bat.OID{0, 1, 3}) {
		t.Fatalf("extents = %v", got)
	}
}

func TestGroupStr(t *testing.T) {
	b := bat.FromStrings([]string{"x", "y", "x"})
	g := GroupStr(b)
	if g.NGroups != 2 || g.Counts.IntAt(0) != 2 {
		t.Fatalf("ngroups=%d counts=%v", g.NGroups, g.Counts.Ints())
	}
}

func TestSubGroupRefines(t *testing.T) {
	a := bat.FromInts([]int64{1, 1, 2, 2})
	b := bat.FromInts([]int64{9, 8, 9, 9})
	g := Group(a)
	g2 := SubGroup(g, b)
	// groups: (1,9), (1,8), (2,9), (2,9) → 3 groups
	if g2.NGroups != 3 {
		t.Fatalf("ngroups = %d, want 3", g2.NGroups)
	}
	if got := g2.IDs.OIDs(); !reflect.DeepEqual(got, []bat.OID{0, 1, 2, 2}) {
		t.Fatalf("ids = %v", got)
	}
}

func TestAggregates(t *testing.T) {
	b := bat.FromInts([]int64{3, bat.NilInt, 5, -1})
	if got := Sum(b); got != 7 {
		t.Fatalf("sum = %d", got)
	}
	if got := Count(b); got != 4 {
		t.Fatalf("count = %d", got)
	}
	if m, ok := Min(b); !ok || m != -1 {
		t.Fatalf("min = %d,%v", m, ok)
	}
	if m, ok := Max(b); !ok || m != 5 {
		t.Fatalf("max = %d,%v", m, ok)
	}
}

func TestMinMaxEmpty(t *testing.T) {
	b := bat.FromInts(nil)
	if _, ok := Min(b); ok {
		t.Fatal("min of empty should be !ok")
	}
	if _, ok := Max(b); ok {
		t.Fatal("max of empty should be !ok")
	}
}

func TestPerGroupAggregates(t *testing.T) {
	keys := bat.FromInts([]int64{1, 2, 1, 2, 1})
	vals := bat.FromInts([]int64{10, 20, 30, 40, 50})
	g := Group(keys)
	if got := SumPerGroup(vals, g).Ints(); !reflect.DeepEqual(got, []int64{90, 60}) {
		t.Fatalf("sum/group = %v", got)
	}
	if got := MinPerGroup(vals, g).Ints(); !reflect.DeepEqual(got, []int64{10, 20}) {
		t.Fatalf("min/group = %v", got)
	}
	if got := MaxPerGroup(vals, g).Ints(); !reflect.DeepEqual(got, []int64{50, 40}) {
		t.Fatalf("max/group = %v", got)
	}
	if got := CountPerGroup(g).Ints(); !reflect.DeepEqual(got, []int64{3, 2}) {
		t.Fatalf("count/group = %v", got)
	}
}

func TestSumFloatPerGroup(t *testing.T) {
	keys := bat.FromInts([]int64{1, 1, 2})
	vals := bat.FromFloats([]float64{0.5, 0.25, 4})
	g := Group(keys)
	if got := SumFloatPerGroup(vals, g).Floats(); !reflect.DeepEqual(got, []float64{0.75, 4}) {
		t.Fatalf("sumf/group = %v", got)
	}
}

func TestUnique(t *testing.T) {
	b := bat.FromInts([]int64{4, 4, 2, 4, 2, 7})
	got := Unique(b).OIDs()
	if !reflect.DeepEqual(got, []bat.OID{0, 2, 5}) {
		t.Fatalf("unique = %v", got)
	}
}

func TestSortAndOrder(t *testing.T) {
	b := bat.FromInts([]int64{30, 10, 20})
	sorted, order := Sort(b)
	if got := sorted.Ints(); !reflect.DeepEqual(got, []int64{10, 20, 30}) {
		t.Fatalf("sorted = %v", got)
	}
	if got := order.OIDs(); !reflect.DeepEqual(got, []bat.OID{1, 2, 0}) {
		t.Fatalf("order = %v", got)
	}
	if !sorted.Props().Sorted {
		t.Fatal("sorted output must carry Sorted property")
	}
	// Aligned projection: fetching another column through order.
	other := bat.FromStrings([]string{"c", "a", "b"})
	if got := LeftFetchJoin(order, other); got.StrAt(0) != "a" || got.StrAt(2) != "c" {
		t.Fatalf("aligned fetch wrong")
	}
}

func TestSortDesc(t *testing.T) {
	b := bat.FromInts([]int64{1, 3, 2})
	sorted, _ := SortDesc(b)
	if got := sorted.Ints(); !reflect.DeepEqual(got, []int64{3, 2, 1}) {
		t.Fatalf("desc = %v", got)
	}
}

func TestSortStable(t *testing.T) {
	b := bat.FromInts([]int64{2, 1, 2, 1})
	_, order := Sort(b)
	if got := order.OIDs(); !reflect.DeepEqual(got, []bat.OID{1, 3, 0, 2}) {
		t.Fatalf("stable order = %v", got)
	}
}

func TestSortString(t *testing.T) {
	b := bat.FromStrings([]string{"pear", "apple", "fig"})
	sorted, _ := Sort(b)
	if sorted.StrAt(0) != "apple" || sorted.StrAt(2) != "pear" {
		t.Fatal("string sort wrong")
	}
}

func TestHeadLimit(t *testing.T) {
	c := bat.FromOIDs([]bat.OID{1, 2, 3})
	if got := Head(c, 2).Len(); got != 2 {
		t.Fatalf("head = %d", got)
	}
	if got := Head(c, 99).Len(); got != 3 {
		t.Fatalf("head overflow = %d", got)
	}
}

// Property: SumPerGroup totals equal Sum.
func TestQuickGroupSumConservation(t *testing.T) {
	f := func(keys, vals []uint8) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		ki := make([]int64, n)
		vi := make([]int64, n)
		for i := 0; i < n; i++ {
			ki[i] = int64(keys[i] % 5)
			vi[i] = int64(vals[i])
		}
		kb, vb := bat.FromInts(ki), bat.FromInts(vi)
		g := Group(kb)
		per := SumPerGroup(vb, g)
		var tot int64
		for _, v := range per.Ints() {
			tot += v
		}
		return tot == Sum(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Sort output is a permutation and is sorted.
func TestQuickSortPermutation(t *testing.T) {
	f := func(vals []int32) bool {
		xs := make([]int64, len(vals))
		for i, v := range vals {
			xs[i] = int64(v)
		}
		b := bat.FromInts(xs)
		sorted, order := Sort(b)
		if sorted.Len() != len(xs) || order.Len() != len(xs) {
			return false
		}
		got := append([]int64(nil), sorted.Ints()...)
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			return false
		}
		want := append([]int64(nil), xs...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCalcOps(t *testing.T) {
	a := bat.FromInts([]int64{1, 2, 3})
	b := bat.FromInts([]int64{10, 20, 30})
	if got := Add(a, b).Ints(); !reflect.DeepEqual(got, []int64{11, 22, 33}) {
		t.Fatalf("add = %v", got)
	}
	if got := Sub(b, a).Ints(); !reflect.DeepEqual(got, []int64{9, 18, 27}) {
		t.Fatalf("sub = %v", got)
	}
	if got := Mul(a, a).Ints(); !reflect.DeepEqual(got, []int64{1, 4, 9}) {
		t.Fatalf("mul = %v", got)
	}
	if got := AddScalar(a, 5).Ints(); !reflect.DeepEqual(got, []int64{6, 7, 8}) {
		t.Fatalf("adds = %v", got)
	}
	if got := MulScalar(a, 2).Ints(); !reflect.DeepEqual(got, []int64{2, 4, 6}) {
		t.Fatalf("muls = %v", got)
	}
}

func TestCalcFloatOps(t *testing.T) {
	a := bat.FromFloats([]float64{1, 2})
	b := bat.FromFloats([]float64{0.5, 0.25})
	if got := MulFloat(a, b).Floats(); !reflect.DeepEqual(got, []float64{0.5, 0.5}) {
		t.Fatalf("mulf = %v", got)
	}
	if got := AddFloat(a, b).Floats(); !reflect.DeepEqual(got, []float64{1.5, 2.25}) {
		t.Fatalf("addf = %v", got)
	}
	if got := SubFloatScalar(1, b).Floats(); !reflect.DeepEqual(got, []float64{0.5, 0.75}) {
		t.Fatalf("subfs = %v", got)
	}
	if got := IntToFloat(bat.FromInts([]int64{3})).FloatAt(0); got != 3.0 {
		t.Fatalf("cast = %v", got)
	}
}

func TestCalcUnalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Add(bat.FromInts([]int64{1}), bat.FromInts([]int64{1, 2}))
}

// --- property tests: the open-addressing grouping core vs the old
// map-based implementations as oracle ---

// mapGroupOracle is the PR-3-era map implementation of Group, kept as
// the semantic oracle for the open-addressing rewrite.
func mapGroupOracle(b *bat.BAT) GroupResult {
	tail := b.Ints()
	ids := make([]bat.OID, len(tail))
	var extents []bat.OID
	var counts []int64
	lookup := make(map[int64]int, 1024)
	for i, v := range tail {
		g, ok := lookup[v]
		if !ok {
			g = len(extents)
			lookup[v] = g
			extents = append(extents, b.HSeq()+bat.OID(i))
			counts = append(counts, 0)
		}
		ids[i] = bat.OID(g)
		counts[g]++
	}
	return GroupResult{IDs: bat.FromOIDs(ids), Extents: bat.FromOIDs(extents),
		Counts: bat.FromInts(counts), NGroups: len(extents)}
}

func sameGrouping(t *testing.T, got, want GroupResult) bool {
	t.Helper()
	eqOIDs := func(a, b []bat.OID) bool {
		return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
	}
	eqInts := func(a, b []int64) bool {
		return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
	}
	return got.NGroups == want.NGroups &&
		eqOIDs(got.IDs.OIDs(), want.IDs.OIDs()) &&
		eqOIDs(got.Extents.OIDs(), want.Extents.OIDs()) &&
		eqInts(got.Counts.Ints(), want.Counts.Ints())
}

func TestGroupMatchesMapOracle(t *testing.T) {
	check := func(raw []int16, nilEvery uint8) bool {
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v % 64)
			if nilEvery > 0 && i%(int(nilEvery)+1) == 0 {
				vals[i] = bat.NilInt // NULL keys form their own group
			}
		}
		b := bat.FromInts(vals)
		return sameGrouping(t, Group(b), mapGroupOracle(b))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSubGroupMatchesMapOracle(t *testing.T) {
	oracle := func(prev GroupResult, b *bat.BAT) GroupResult {
		tail := b.Ints()
		prevIDs := prev.IDs.OIDs()
		type key struct {
			g bat.OID
			v int64
		}
		ids := make([]bat.OID, len(tail))
		var extents []bat.OID
		var counts []int64
		lookup := make(map[key]int, prev.NGroups*2)
		for i, v := range tail {
			k := key{prevIDs[i], v}
			g, ok := lookup[k]
			if !ok {
				g = len(extents)
				lookup[k] = g
				extents = append(extents, b.HSeq()+bat.OID(i))
				counts = append(counts, 0)
			}
			ids[i] = bat.OID(g)
			counts[g]++
		}
		return GroupResult{IDs: bat.FromOIDs(ids), Extents: bat.FromOIDs(extents),
			Counts: bat.FromInts(counts), NGroups: len(extents)}
	}
	check := func(ka, kb []uint8, nilEvery uint8) bool {
		n := len(ka)
		if len(kb) < n {
			n = len(kb)
		}
		a := make([]int64, n)
		bvals := make([]int64, n)
		for i := 0; i < n; i++ {
			a[i] = int64(ka[i] % 16)
			bvals[i] = int64(kb[i] % 16)
			if nilEvery > 0 && i%(int(nilEvery)+1) == 0 {
				bvals[i] = bat.NilInt
			}
		}
		ab, bb := bat.FromInts(a), bat.FromInts(bvals)
		prev := Group(ab)
		return sameGrouping(t, SubGroup(prev, bb), oracle(prev, bb))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupStrMatchesMapOracle(t *testing.T) {
	oracle := func(b *bat.BAT) GroupResult {
		n := b.Len()
		ids := make([]bat.OID, n)
		var extents []bat.OID
		var counts []int64
		lookup := make(map[string]int, 1024)
		for i := 0; i < n; i++ {
			v := b.StrAt(i)
			g, ok := lookup[v]
			if !ok {
				g = len(extents)
				lookup[v] = g
				extents = append(extents, b.HSeq()+bat.OID(i))
				counts = append(counts, 0)
			}
			ids[i] = bat.OID(g)
			counts[g]++
		}
		return GroupResult{IDs: bat.FromOIDs(ids), Extents: bat.FromOIDs(extents),
			Counts: bat.FromInts(counts), NGroups: len(extents)}
	}
	check := func(raw []uint16) bool {
		vals := make([]string, len(raw))
		for i, v := range raw {
			vals[i] = "k" + string(rune('a'+int(v%26))) + string(rune('a'+int(v/26%26)))
		}
		b := bat.FromStrings(vals)
		return sameGrouping(t, GroupStr(b), oracle(b))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
