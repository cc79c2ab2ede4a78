package radix

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bat"
	"repro/internal/simhw"
)

func mkTuples(vals []int64) []Tuple {
	out := make([]Tuple, len(vals))
	for i, v := range vals {
		out[i] = Tuple{OID: bat.OID(i), Val: v}
	}
	return out
}

func sortPairs(ps []OIDPair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].L != ps[j].L {
			return ps[i].L < ps[j].L
		}
		return ps[i].R < ps[j].R
	})
}

func naivePairs(l, r []Tuple) []OIDPair {
	var out []OIDPair
	for _, lt := range l {
		for _, rt := range r {
			if lt.Val == rt.Val {
				out = append(out, OIDPair{L: lt.OID, R: rt.OID})
			}
		}
	}
	sortPairs(out)
	return out
}

func TestSplitBits(t *testing.T) {
	cases := []struct {
		total, passes int
		want          []int
	}{
		{3, 2, []int{2, 1}}, // the Figure 2 split
		{8, 2, []int{4, 4}},
		{7, 3, []int{3, 2, 2}},
		{4, 1, []int{4}},
		{0, 1, []int{0}},
		{2, 5, []int{1, 1}}, // passes capped at bits
	}
	for _, c := range cases {
		if got := SplitBits(c.total, c.passes); !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitBits(%d,%d) = %v, want %v", c.total, c.passes, got, c.want)
		}
	}
}

func TestClusterPartitionsCorrectly(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = r.Int63n(500)
	}
	for _, passes := range []int{1, 2, 3} {
		c := Cluster(mkTuples(vals), SplitBits(4, passes))
		if c.NumClusters() != 16 {
			t.Fatalf("P=%d: clusters = %d, want 16", passes, c.NumClusters())
		}
		if len(c.Tuples) != len(vals) {
			t.Fatalf("P=%d: lost tuples", passes)
		}
		// Every tuple in cluster i must hash to i on the lower 4 bits.
		for i := 0; i < 16; i++ {
			for _, tp := range c.ClusterSlice(i) {
				if int(Hash(tp.Val)&15) != i {
					t.Fatalf("P=%d: tuple with hash %d in cluster %d", passes, Hash(tp.Val)&15, i)
				}
			}
		}
	}
}

func TestClusterZeroBitsIdentity(t *testing.T) {
	in := mkTuples([]int64{5, 3, 1})
	c := Cluster(in, []int{0})
	if c.NumClusters() != 1 || !reflect.DeepEqual(c.Tuples, in) {
		t.Fatalf("zero-bit cluster should be identity, got %v", c)
	}
}

// Property: multi-pass clustering produces the same multiset per cluster as
// single-pass (the crucial correctness property of Figure 2).
func TestQuickMultiPassEqualsSinglePass(t *testing.T) {
	f := func(raw []int16, bits8 uint8) bool {
		bits := int(bits8%6) + 1
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
		}
		c1 := Cluster(mkTuples(vals), SplitBits(bits, 1))
		c2 := Cluster(mkTuples(vals), SplitBits(bits, 2))
		c3 := Cluster(mkTuples(vals), SplitBits(bits, 3))
		for _, c := range []Clustered{c2, c3} {
			if c.NumClusters() != c1.NumClusters() {
				return false
			}
			for i := 0; i < c1.NumClusters(); i++ {
				a := append([]Tuple(nil), c1.ClusterSlice(i)...)
				b := append([]Tuple(nil), c.ClusterSlice(i)...)
				sort.Slice(a, func(x, y int) bool { return a[x].OID < a[y].OID })
				sort.Slice(b, func(x, y int) bool { return b[x].OID < b[y].OID })
				if !reflect.DeepEqual(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: clustering preserves relative order within a cluster (stability),
// which Decluster relies on.
func TestClusterStable(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	vals := make([]int64, 500)
	for i := range vals {
		vals[i] = r.Int63n(50)
	}
	c := Cluster(mkTuples(vals), SplitBits(3, 2))
	for i := 0; i < c.NumClusters(); i++ {
		sl := c.ClusterSlice(i)
		for j := 1; j < len(sl); j++ {
			// Same-value tuples must keep ascending OIDs.
			if sl[j].Val == sl[j-1].Val && sl[j].OID < sl[j-1].OID {
				t.Fatalf("cluster %d not stable", i)
			}
		}
	}
}

func TestSimpleHashJoinMatchesNaive(t *testing.T) {
	l := mkTuples([]int64{1, 2, 3, 2})
	r := mkTuples([]int64{2, 4, 1, 2})
	got := SimpleHashJoin(l, r)
	sortPairs(got)
	if !reflect.DeepEqual(got, naivePairs(l, r)) {
		t.Fatalf("simple join = %v", got)
	}
}

// Property: partitioned hash join ≡ simple hash join ≡ nested loop.
func TestQuickJoinsAgree(t *testing.T) {
	f := func(ls, rs []uint8, bits8, passes8 uint8) bool {
		if len(ls) > 80 {
			ls = ls[:80]
		}
		if len(rs) > 80 {
			rs = rs[:80]
		}
		bits := int(bits8 % 7)
		passes := int(passes8%3) + 1
		lv := make([]int64, len(ls))
		rv := make([]int64, len(rs))
		for i, v := range ls {
			lv[i] = int64(v % 16)
		}
		for i, v := range rs {
			rv[i] = int64(v % 16)
		}
		l, r := mkTuples(lv), mkTuples(rv)
		want := naivePairs(l, r)
		simple := SimpleHashJoin(l, r)
		sortPairs(simple)
		if !reflect.DeepEqual(simple, want) {
			return false
		}
		part := PartitionedHashJoin(l, r, SplitBits(bits, passes))
		sortPairs(part)
		return reflect.DeepEqual(part, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionedHashJoinLarge(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	n := 20000
	lv := make([]int64, n)
	rv := make([]int64, n)
	for i := range lv {
		lv[i] = r.Int63n(int64(n))
		rv[i] = r.Int63n(int64(n))
	}
	l, rr := mkTuples(lv), mkTuples(rv)
	simple := SimpleHashJoin(l, rr)
	part := PartitionedHashJoin(l, rr, SplitBits(6, 2))
	if len(simple) != len(part) {
		t.Fatalf("result sizes differ: %d vs %d", len(simple), len(part))
	}
	sortPairs(simple)
	sortPairs(part)
	if !reflect.DeepEqual(simple, part) {
		t.Fatal("partitioned join result differs from simple join")
	}
}

func TestJoinBits(t *testing.T) {
	if got := JoinBits(1000, 1<<20); got != 0 {
		t.Fatalf("small relation should need 0 bits, got %d", got)
	}
	got := JoinBits(1<<20, 64<<10)
	// 1M tuples * 52B (tuple + ½-load 16B open-addressing slots + chain
	// entry); clusters must fit 32KB -> 512-tuple clusters -> 11 bits.
	if got != 11 {
		t.Fatalf("JoinBits = %d, want 11", got)
	}
}

func TestFromBAT(t *testing.T) {
	b := bat.FromInts([]int64{4, 5})
	b.SetHSeq(10)
	ts := FromBAT(b)
	want := []Tuple{{10, 4}, {11, 5}}
	if !reflect.DeepEqual(ts, want) {
		t.Fatalf("FromBAT = %v", ts)
	}
}

func TestDeclusterMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	n := 5000
	col := make([]int64, n)
	for i := range col {
		col[i] = r.Int63()
	}
	colBAT := bat.FromInts(col)
	pairs := make([]OIDPair, 3000)
	for i := range pairs {
		pairs[i] = OIDPair{L: bat.OID(i), R: bat.OID(r.Intn(n))}
	}
	want := NaiveFetch(pairs, colBAT)
	for _, mc := range []int{1, 4, 16, 64} {
		got := Decluster(pairs, colBAT, mc)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("maxClusters=%d: decluster differs from naive", mc)
		}
	}
}

func TestDeclusterWithHSeq(t *testing.T) {
	colBAT := bat.FromInts([]int64{10, 20, 30})
	colBAT.SetHSeq(100)
	pairs := []OIDPair{{0, 102}, {1, 100}}
	got := Decluster(pairs, colBAT, 2)
	if !reflect.DeepEqual(got, []int64{30, 10}) {
		t.Fatalf("decluster = %v", got)
	}
}

func TestDeclusterEmpty(t *testing.T) {
	if got := Decluster(nil, bat.FromInts([]int64{1}), 4); len(got) != 0 {
		t.Fatalf("= %v", got)
	}
}

// Property: Decluster equals NaiveFetch for arbitrary inputs.
func TestQuickDecluster(t *testing.T) {
	f := func(colRaw []int32, idx []uint16, mc8 uint8) bool {
		if len(colRaw) == 0 {
			return true
		}
		col := make([]int64, len(colRaw))
		for i, v := range colRaw {
			col[i] = int64(v)
		}
		colBAT := bat.FromInts(col)
		pairs := make([]OIDPair, len(idx))
		for i, v := range idx {
			pairs[i] = OIDPair{L: bat.OID(i), R: bat.OID(int(v) % len(col))}
		}
		mc := int(mc8%32) + 1
		return reflect.DeepEqual(Decluster(pairs, colBAT, mc), NaiveFetch(pairs, colBAT))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- instrumented-variant tests: the paper's §4 claims in miss counts ---

func TestTraceClusterSinglePassThrashesTLB(t *testing.T) {
	h := simhw.Small() // 8 TLB entries
	n := 1 << 14
	// 8 bits in one pass: 256 write regions >> 8 TLB entries.
	one := TraceCluster(simhw.NewSim(h), n, SplitBits(8, 1))
	// 2 passes of 4 bits: 16 regions per pass, still > 8, but far fewer.
	two := TraceCluster(simhw.NewSim(h), n, SplitBits(6, 2))
	if one.TLBMisses <= two.TLBMisses {
		t.Fatalf("single-pass TLB misses (%d) should exceed multi-pass (%d)",
			one.TLBMisses, two.TLBMisses)
	}
}

func TestTraceClusterFewRegionsNoThrash(t *testing.T) {
	h := simhw.Small()
	n := 1 << 13
	// 2 bits = 4 regions < 8 TLB entries: writes should mostly hit.
	st := TraceCluster(simhw.NewSim(h), n, SplitBits(2, 1))
	perTuple := float64(st.TLBMisses) / float64(n)
	if perTuple > 0.5 {
		t.Fatalf("TLB misses per tuple = %.2f, want << 1", perTuple)
	}
}

func TestTracePartitionedBeatsSimple(t *testing.T) {
	h := simhw.Default()
	n := 1 << 16 // 64K tuples * 16B = 1MB build side >> 512KB L2
	bits := JoinBits(n, h.Levels[1].Capacity)
	part := TracePartitionedHashJoin(simhw.NewSim(h), n, SplitBits(bits, 2))
	simple := TraceSimpleHashJoin(simhw.NewSim(h), n)
	if simple.TimeNS <= part.TimeNS {
		t.Fatalf("simple join (%.0fns) should be slower than partitioned (%.0fns)",
			simple.TimeNS, part.TimeNS)
	}
}

func TestTraceDeclusterBeatsNaive(t *testing.T) {
	h := simhw.Default()
	n := 1 << 17 // column 1MB >> L2
	dec := TraceDecluster(simhw.NewSim(h), n, 64)
	naive := TraceNaiveFetch(simhw.NewSim(h), n)
	decMiss := dec.Levels[1].Misses()
	naiveMiss := naive.Levels[1].Misses()
	if naiveMiss <= decMiss {
		t.Fatalf("naive L2 misses (%d) should exceed decluster (%d)", naiveMiss, decMiss)
	}
}
