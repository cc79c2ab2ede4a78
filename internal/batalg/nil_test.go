package batalg

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bat"
)

// oidPair mirrors radix.OIDPair for local oracle comparisons.
type oidPair struct{ l, r bat.OID }

func joinPairSet(lo, ro *bat.BAT) []oidPair {
	out := make([]oidPair, lo.Len())
	for i := range out {
		out[i] = oidPair{lo.OIDAt(i), ro.OIDAt(i)}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].l != out[j].l {
			return out[i].l < out[j].l
		}
		return out[i].r < out[j].r
	})
	return out
}

// nilAwareOracle is the reference join: nil never matches, not even nil.
func nilAwareOracle(l, r []int64) []oidPair {
	idx := map[int64][]int{}
	for j, v := range r {
		if v != bat.NilInt {
			idx[v] = append(idx[v], j)
		}
	}
	var out []oidPair
	for i, v := range l {
		if v == bat.NilInt {
			continue
		}
		for _, j := range idx[v] {
			out = append(out, oidPair{bat.OID(i), bat.OID(j)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].l != out[j].l {
			return out[i].l < out[j].l
		}
		return out[i].r < out[j].r
	})
	return out
}

func nilKeys(raw []uint8) []int64 {
	keys := make([]int64, len(raw))
	for i, v := range raw {
		if v%4 == 0 {
			keys[i] = bat.NilInt
		} else {
			keys[i] = int64(v % 8)
		}
	}
	return keys
}

// Property: the hash-join path of Join never matches nil tail values.
func TestQuickHashJoinNilAware(t *testing.T) {
	f := func(ls, rs []uint8) bool {
		lv, rv := nilKeys(ls), nilKeys(rs)
		lo, ro := Join(bat.FromInts(lv), bat.FromInts(rv))
		got := joinPairSet(lo, ro)
		want := nilAwareOracle(lv, rv)
		return (len(got) == 0 && len(want) == 0) || reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the merge-join path (both inputs sorted, nils leading) never
// matches nil tail values either.
func TestQuickMergeJoinNilAware(t *testing.T) {
	f := func(ls, rs []uint8) bool {
		lv, rv := nilKeys(ls), nilKeys(rs)
		sort.Slice(lv, func(i, j int) bool { return lv[i] < lv[j] })
		sort.Slice(rv, func(i, j int) bool { return rv[i] < rv[j] })
		lb, rb := bat.FromInts(lv), bat.FromInts(rv)
		if len(lv) > 1 && !lb.Props().Sorted {
			return false // FromInts must detect sortedness
		}
		lo, ro := Join(lb, rb)
		got := joinPairSet(lo, ro)
		want := nilAwareOracle(lv, rv)
		return (len(got) == 0 && len(want) == 0) || reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCountNonNil(t *testing.T) {
	b := bat.FromInts([]int64{1, bat.NilInt, 2, bat.NilInt, bat.NilInt})
	if got := Count(b); got != 5 {
		t.Fatalf("Count = %d", got)
	}
	if got := CountNonNil(b); got != 2 {
		t.Fatalf("CountNonNil = %d", got)
	}
	if got := CountNonNil(bat.FromInts(nil)); got != 0 {
		t.Fatalf("CountNonNil(empty) = %d", got)
	}
	// Non-int tails have no nil representation: full count.
	f := bat.FromFloats([]float64{1.5, 2.5})
	if got := CountNonNil(f); got != 2 {
		t.Fatalf("CountNonNil(float) = %d", got)
	}
}

func TestCountNonNilPerGroup(t *testing.T) {
	// groups: key 10 -> positions {0,2,4}, key 20 -> {1,3}
	keys := bat.FromInts([]int64{10, 20, 10, 20, 10})
	g := Group(keys)
	vals := bat.FromInts([]int64{1, bat.NilInt, bat.NilInt, 7, 3})
	got := CountNonNilPerGroup(vals, g)
	if !reflect.DeepEqual(got.Ints(), []int64{2, 1}) {
		t.Fatalf("CountNonNilPerGroup = %v", got.Ints())
	}
	// Float payloads degenerate to group sizes.
	fv := bat.FromFloats([]float64{1, 2, 3, 4, 5})
	got = CountNonNilPerGroup(fv, g)
	if !reflect.DeepEqual(got.Ints(), []int64{3, 2}) {
		t.Fatalf("CountNonNilPerGroup(float) = %v", got.Ints())
	}
}
