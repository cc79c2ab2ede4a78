package batalg

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bat"
)

type pair struct{ l, r bat.OID }

func joinPairs(lo, ro *bat.BAT) []pair {
	if lo.Len() == 0 {
		return nil
	}
	ps := make([]pair, lo.Len())
	for i := range ps {
		ps[i] = pair{lo.OIDAt(i), ro.OIDAt(i)}
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].l != ps[j].l {
			return ps[i].l < ps[j].l
		}
		return ps[i].r < ps[j].r
	})
	return ps
}

func naiveJoin(l, r *bat.BAT) []pair {
	var ps []pair
	for i, lv := range l.Ints() {
		for j, rv := range r.Ints() {
			if lv == rv {
				ps = append(ps, pair{l.HSeq() + bat.OID(i), r.HSeq() + bat.OID(j)})
			}
		}
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].l != ps[j].l {
			return ps[i].l < ps[j].l
		}
		return ps[i].r < ps[j].r
	})
	return ps
}

func TestJoinBasic(t *testing.T) {
	l := bat.FromInts([]int64{1, 2, 3, 2})
	r := bat.FromInts([]int64{2, 4, 1})
	lo, ro := Join(l, r)
	got := joinPairs(lo, ro)
	want := []pair{{0, 2}, {1, 0}, {3, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("join = %v, want %v", got, want)
	}
}

func TestJoinSortedUsesMerge(t *testing.T) {
	l := bat.FromInts([]int64{1, 2, 2, 5})
	r := bat.FromInts([]int64{2, 2, 3, 5})
	lo, ro := Join(l, r)
	got := joinPairs(lo, ro)
	want := []pair{{1, 0}, {1, 1}, {2, 0}, {2, 1}, {3, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge join = %v, want %v", got, want)
	}
}

func TestJoinEmpty(t *testing.T) {
	l := bat.FromInts(nil)
	r := bat.FromInts([]int64{1})
	lo, ro := Join(l, r)
	if lo.Len() != 0 || ro.Len() != 0 {
		t.Fatal("join with empty side must be empty")
	}
}

func TestJoinRespectsHSeq(t *testing.T) {
	l := bat.FromInts([]int64{7})
	l.SetHSeq(10)
	r := bat.FromInts([]int64{7})
	r.SetHSeq(20)
	lo, ro := Join(l, r)
	if lo.OIDAt(0) != 10 || ro.OIDAt(0) != 20 {
		t.Fatalf("got (%d,%d)", lo.OIDAt(0), ro.OIDAt(0))
	}
}

// Property: hash/merge join equals nested-loop join on arbitrary inputs,
// including heavy duplicates.
func TestQuickJoinEqualsNaive(t *testing.T) {
	f := func(ls, rs []uint8) bool {
		if len(ls) > 60 {
			ls = ls[:60]
		}
		if len(rs) > 60 {
			rs = rs[:60]
		}
		li := make([]int64, len(ls))
		ri := make([]int64, len(rs))
		for i, v := range ls {
			li[i] = int64(v % 8)
		}
		for i, v := range rs {
			ri[i] = int64(v % 8)
		}
		l, r := bat.FromInts(li), bat.FromInts(ri)
		lo, ro := Join(l, r)
		return reflect.DeepEqual(joinPairs(lo, ro), naiveJoin(l, r))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: sorted inputs (merge path) equal nested loop too.
func TestQuickMergeJoinEqualsNaive(t *testing.T) {
	f := func(ls, rs []uint8) bool {
		if len(ls) > 50 {
			ls = ls[:50]
		}
		if len(rs) > 50 {
			rs = rs[:50]
		}
		li := make([]int64, len(ls))
		ri := make([]int64, len(rs))
		for i, v := range ls {
			li[i] = int64(v % 6)
		}
		for i, v := range rs {
			ri[i] = int64(v % 6)
		}
		sort.Slice(li, func(i, j int) bool { return li[i] < li[j] })
		sort.Slice(ri, func(i, j int) bool { return ri[i] < ri[j] })
		l, r := bat.FromInts(li), bat.FromInts(ri)
		lo, ro := Join(l, r)
		return reflect.DeepEqual(joinPairs(lo, ro), naiveJoin(l, r))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestJoinStr(t *testing.T) {
	l := bat.FromStrings([]string{"a", "b", "a"})
	r := bat.FromStrings([]string{"a", "c"})
	lo, ro := JoinStr(l, r)
	got := joinPairs(lo, ro)
	want := []pair{{0, 0}, {2, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("join str = %v, want %v", got, want)
	}
}
