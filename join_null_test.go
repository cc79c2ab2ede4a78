package repro_test

// Cross-entry-point NULL-semantics property tests: every join path the
// engine exposes — the BAT algebra's Join, the radix-clustered
// JoinBATs, and the vectorized JoinBuild/HashJoinOp — must agree with a
// nil-aware map oracle: a bat.NilInt key on either side never matches.
// All three ride the same radix.Table core, so these tests pin the
// consolidation down.

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bat"
	"repro/internal/batalg"
	"repro/internal/mal"
	"repro/internal/radix"
	"repro/internal/vector"
)

// nilAwareJoinOracle joins two key slices positionally, skipping nils.
func nilAwareJoinOracle(l, r []int64) []radix.OIDPair {
	idx := map[int64][]int{}
	for j, v := range r {
		if v != bat.NilInt {
			idx[v] = append(idx[v], j)
		}
	}
	var out []radix.OIDPair
	for i, v := range l {
		if v == bat.NilInt {
			continue
		}
		for _, j := range idx[v] {
			out = append(out, radix.OIDPair{L: bat.OID(i), R: bat.OID(j)})
		}
	}
	sortOIDPairs(out)
	return out
}

func sortOIDPairs(p []radix.OIDPair) {
	sort.Slice(p, func(i, j int) bool {
		if p[i].L != p[j].L {
			return p[i].L < p[j].L
		}
		return p[i].R < p[j].R
	})
}

func batPairs(lo, ro *bat.BAT) []radix.OIDPair {
	out := make([]radix.OIDPair, lo.Len())
	for i := range out {
		out[i] = radix.OIDPair{L: lo.OIDAt(i), R: ro.OIDAt(i)}
	}
	sortOIDPairs(out)
	return out
}

// vectorJoinPairs joins through the vectorized engine: build side into a
// shared JoinBuild (row ids as payload), probe via HashJoinOp.
func vectorJoinPairs(t *testing.T, bk, pk []int64) []radix.OIDPair {
	t.Helper()
	rowIDs := func(n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(i)
		}
		return out
	}
	build, err := vector.NewSource([]string{"k", "row"}, []vector.Col{
		{Kind: vector.KindInt, Ints: bk}, {Kind: vector.KindInt, Ints: rowIDs(len(bk))}})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := vector.NewSource([]string{"k", "row"}, []vector.Col{
		{Kind: vector.KindInt, Ints: pk}, {Kind: vector.KindInt, Ints: rowIDs(len(pk))}})
	if err != nil {
		t.Fatal(err)
	}
	jb, err := vector.BuildJoinTable(vector.NewScan(build, 0), 0, []int{1}, false)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := vector.Drain(&vector.HashJoinOp{
		Probe: vector.NewScan(probe, 7), ProbeKey: 0, Shared: jb})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]radix.OIDPair, len(rows))
	for i, r := range rows {
		out[i] = radix.OIDPair{L: bat.OID(r[2].(int64)), R: bat.OID(r[1].(int64))}
	}
	sortOIDPairs(out)
	return out
}

func nilLadenKeys(raw []uint8) []int64 {
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

// Property: all three entry points agree with the nil-aware oracle.
func TestQuickAllJoinEntryPointsNilAware(t *testing.T) {
	f := func(ls, rs []uint8) bool {
		lv, rv := nilLadenKeys(ls), nilLadenKeys(rs)
		want := nilAwareJoinOracle(lv, rv)
		eq := func(got []radix.OIDPair) bool {
			return (len(got) == 0 && len(want) == 0) || reflect.DeepEqual(got, want)
		}

		lo, ro := batalg.Join(bat.FromInts(lv), bat.FromInts(rv))
		if !eq(batPairs(lo, ro)) {
			t.Logf("batalg.Join diverges: l=%v r=%v", lv, rv)
			return false
		}
		lo, ro = radix.JoinBATs(bat.FromInts(lv), bat.FromInts(rv), 512<<10)
		if !eq(batPairs(lo, ro)) {
			t.Logf("radix.JoinBATs diverges: l=%v r=%v", lv, rv)
			return false
		}
		if len(lv) > 0 && len(rv) > 0 {
			if !eq(vectorJoinPairs(t, lv, rv)) {
				t.Logf("vector.JoinBuild diverges: l=%v r=%v", lv, rv)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// The MAL "join" op sits in front of all the BAT-side paths; nil keys
// must not survive it either, at sizes on both flanks of the radix
// threshold.
func TestMALJoinNilAware(t *testing.T) {
	for _, n := range []int{1000, 1 << 16} {
		lv := make([]int64, n)
		rv := make([]int64, n)
		for i := range lv {
			if i%3 == 0 {
				lv[i] = bat.NilInt
			} else {
				lv[i] = int64(i % 257)
			}
			if i%5 == 0 {
				rv[i] = bat.NilInt
			} else {
				rv[i] = int64(i % 257)
			}
		}
		got := malJoinPairs(t, lv, rv)
		want := nilAwareJoinOracle(lv, rv)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("n=%d: MAL join %d pairs, want %d", n, len(got), len(want))
		}
	}
}

func malJoinPairs(t *testing.T, lv, rv []int64) []radix.OIDPair {
	t.Helper()
	cat := mal.NewMapCatalog()
	cat.Put("l", bat.FromInts(lv))
	cat.Put("r", bat.FromInts(rv))
	ip := &mal.Interp{Cat: cat}
	out, err := ip.Run(malJoinProg())
	if err != nil {
		t.Fatal(err)
	}
	return batPairs(out[0].B, out[1].B)
}

// malJoinProg builds the two-BAT join program over catalog names l and r.
func malJoinProg() *mal.Program {
	b := mal.NewBuilder()
	l := b.Emit("bind", mal.CS("l"))
	r := b.Emit("bind", mal.CS("r"))
	lo, ro := b.Emit2("join", mal.V(l), mal.V(r))
	b.Return([]string{"lo", "ro"}, lo, ro)
	return b.Program()
}
