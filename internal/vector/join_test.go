package vector

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bat"
	"repro/internal/memgov"
	"repro/internal/radix"
)

// hashJoin builds a join table over build (key column bkey, payload
// columns pay) and probes it with probe's column pkey, returning the
// joined rows.
func hashJoin(t *testing.T, build, probe Operator, bkey, pkey int, pay []int) [][]any {
	t.Helper()
	jb, err := BuildJoinTable(build, bkey, pay, false)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Drain(&HashJoinOp{Probe: probe, ProbeKey: pkey, Shared: jb})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func joinPlan(t *testing.T, ok, pk []int64, pay []float64, size int) [][]any {
	t.Helper()
	build, err := NewSource([]string{"cid", "weight"}, []Col{
		{Kind: KindInt, Ints: ok}, {Kind: KindFloat, Floats: pay}})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := NewSource([]string{"cust"}, []Col{{Kind: KindInt, Ints: pk}})
	if err != nil {
		t.Fatal(err)
	}
	return hashJoin(t, NewScan(build, size), NewScan(probe, size), 0, 0, []int{1, 0})
}

func TestHashJoinOpBasic(t *testing.T) {
	bk := []int64{10, 20, 10}
	pay := []float64{1.5, 2.5, 3.5}
	pk := []int64{20, 10, 99}
	rows := joinPlan(t, bk, pk, pay, 2)
	// probe 20 -> (20, 2.5, 20); probe 10 -> two matches.
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i][0] != rows[j][0] {
			return rows[i][0].(int64) < rows[j][0].(int64)
		}
		return rows[i][1].(float64) < rows[j][1].(float64)
	})
	want := [][]any{
		{int64(10), 1.5, int64(10)},
		{int64(10), 3.5, int64(10)},
		{int64(20), 2.5, int64(20)},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %v", rows)
	}
}

func TestHashJoinOpNoMatches(t *testing.T) {
	rows := joinPlan(t, []int64{1}, []int64{2, 3}, []float64{9}, 1)
	if len(rows) != 0 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestHashJoinOpWithFilteredProbe(t *testing.T) {
	build, _ := NewSource([]string{"k", "v"}, []Col{
		{Kind: KindInt, Ints: []int64{1, 2}},
		{Kind: KindInt, Ints: []int64{100, 200}}})
	probe, _ := NewSource([]string{"k"}, []Col{{Kind: KindInt, Ints: []int64{1, 2, 1}}})
	rows := hashJoin(t, NewScan(build, 4),
		&Filter{Child: NewScan(probe, 4), Preds: []Pred{{ColIdx: 0, Op: PredEq, IntVal: 1}}},
		0, 0, []int{1})
	if len(rows) != 2 || rows[0][1] != int64(100) {
		t.Fatalf("rows = %v", rows)
	}
}

func TestHashJoinOpBadColumns(t *testing.T) {
	src, _ := NewSource([]string{"k"}, []Col{{Kind: KindInt, Ints: []int64{1}}})
	if _, err := BuildJoinTable(NewScan(src, 4), 5, nil, false); err == nil {
		t.Fatal("expected key-out-of-range error")
	}
	if _, err := BuildJoinTable(NewScan(src, 4), 0, []int{7}, false); err == nil {
		t.Fatal("expected payload-out-of-range error")
	}
}

// refRows is the map-based build-side oracle.
func refRows(keys []int64) map[int64][]int32 {
	m := make(map[int64][]int32)
	for i, k := range keys {
		m[k] = append(m[k], int32(i))
	}
	return m
}

// joinPairs runs HashJoinOp over the given keys (payload = build row id)
// and returns (build row, probe row) pairs.
func joinPairs(t *testing.T, bk, pk []int64, size int) []radix.OIDPair {
	t.Helper()
	rowIDs := make([]int64, len(bk))
	for i := range rowIDs {
		rowIDs[i] = int64(i)
	}
	build, err := NewSource([]string{"k", "row"}, []Col{
		{Kind: KindInt, Ints: bk}, {Kind: KindInt, Ints: rowIDs}})
	if err != nil {
		t.Fatal(err)
	}
	probeIDs := make([]int64, len(pk))
	for i := range probeIDs {
		probeIDs[i] = int64(i)
	}
	probe, err := NewSource([]string{"k", "row"}, []Col{
		{Kind: KindInt, Ints: pk}, {Kind: KindInt, Ints: probeIDs}})
	if err != nil {
		t.Fatal(err)
	}
	rows := hashJoin(t, NewScan(build, size), NewScan(probe, size), 0, 0, []int{1})
	pairs := make([]radix.OIDPair, len(rows))
	for i, r := range rows {
		pairs[i] = radix.OIDPair{L: bat.OID(r[2].(int64)), R: bat.OID(r[1].(int64))}
	}
	return pairs
}

func sortPairs(p []radix.OIDPair) {
	sort.Slice(p, func(i, j int) bool {
		if p[i].L != p[j].L {
			return p[i].L < p[j].L
		}
		return p[i].R < p[j].R
	})
}

// Property: the table-backed HashJoinOp agrees with radix.SimpleHashJoin
// on random keys, including duplicate-heavy and skewed distributions.
func TestQuickJoinMatchesSimpleHashJoin(t *testing.T) {
	f := func(bk8, pk8 []uint8, mode uint8) bool {
		if len(bk8) > 60 {
			bk8 = bk8[:60]
		}
		if len(pk8) > 60 {
			pk8 = pk8[:60]
		}
		conv := func(raw []uint8) ([]int64, []radix.Tuple) {
			keys := make([]int64, len(raw))
			tuples := make([]radix.Tuple, len(raw))
			for i, v := range raw {
				k := int64(v % 16)
				if mode%3 == 1 && i%2 == 0 {
					k = 3 // heavy skew: half the rows share one key
				}
				keys[i] = k
				tuples[i] = radix.Tuple{OID: bat.OID(i), Val: k}
			}
			return keys, tuples
		}
		bk, bt := conv(bk8)
		pk, pt := conv(pk8)
		got := joinPairs(t, bk, pk, int(mode%7)+1)
		want := radix.SimpleHashJoin(bt, pt)
		sortPairs(got)
		sortPairs(want)
		if len(got) == 0 && len(want) == 0 {
			return true
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// A build past 2^18 rows, whose table leaves the L2 cache, keeps the one
// flat layout; check one deterministic large join against the oracle.
func TestJoinLargeBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("large build in -short mode")
	}
	n := 1<<18 + 1000
	r := rand.New(rand.NewSource(99))
	bk := make([]int64, n)
	for i := range bk {
		bk[i] = r.Int63n(int64(n))
	}
	pk := make([]int64, 2000)
	for i := range pk {
		pk[i] = r.Int63n(int64(n))
	}
	got := joinPairs(t, bk, pk, 1024)

	ref := refRows(bk)
	var want []radix.OIDPair
	for j, k := range pk {
		for _, i := range ref[k] {
			want = append(want, radix.OIDPair{L: bat.OID(i), R: bat.OID(j)})
		}
	}
	sortPairs(got)
	sortPairs(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("large join: %d pairs, want %d", len(got), len(want))
	}
}

// A governed build charges exactly what it holds: 8 bytes of key and 8
// per payload cell for every row, and Index then exactly the key table
// radix.BuildTable allocates. Sizes on both sides of a power of two,
// where the slot array doubles, included.
func TestJoinBuildCharge(t *testing.T) {
	for _, n := range []int{0, 1, 5, 1023, 1024, 1025, 4097} {
		for _, payload := range [][]int{nil, {1}, {0, 1}} {
			ks, vs := make([]int64, n), make([]float64, n)
			for i := range ks {
				ks[i], vs[i] = int64(i%300), float64(i)
			}
			src, err := NewSource([]string{"k", "v"}, []Col{{Kind: KindInt, Ints: ks}, {Kind: KindFloat, Floats: vs}})
			if err != nil {
				t.Fatal(err)
			}
			res := memgov.New(1<<30, memgov.Reject)
			jb, err := BuildJoinTableGov(NewScan(src, 256), 0, payload, res)
			if err != nil {
				t.Fatal(err)
			}
			built := int64(n * (8 + 8*len(payload)))
			if got := res.Used(); got != built {
				t.Errorf("n=%d, %d payload columns: build charged %d B, want %d", n, len(payload), got, built)
			}
			if err := jb.Index(); err != nil {
				t.Fatal(err)
			}
			if got, want := res.Used()-built, int64(radix.TableBytes(n)); got != want {
				t.Errorf("n=%d, %d payload columns: Index charged %d B, want %d", n, len(payload), got, want)
			}
			jb.ReleaseMem()
			if got := res.Used(); got != 0 {
				t.Errorf("n=%d, %d payload columns: %d B still charged after ReleaseMem", n, len(payload), got)
			}
		}
	}
}

// A build's key filter keeps exactly the probe rows that can match: with
// a bitmap, the non-nil keys the build holds; with the range fallback
// (sparse keys, or a bitmap the reservation denies), the non-nil keys in
// [min, max]. A bitmap reports the keys unique exactly when no non-nil
// key repeats; a range never does. Keys at both ends of the int64
// domain and nils on both sides included.
func TestJoinKeyFilterKeepsMatchableRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edge := []int64{math.MaxInt64, math.MaxInt64 - 1, bat.NilInt + 1, bat.NilInt + 2, 0, -1}
	draw := func(span int64) int64 {
		switch rng.Intn(10) {
		case 0:
			return bat.NilInt
		case 1:
			return edge[rng.Intn(len(edge))]
		}
		return rng.Int63n(span) - span/4
	}
	kinds, uniques := map[bool]int{}, map[bool]int{}
	for trial := 0; trial < 200; trial++ {
		span := []int64{8, 300, 1 << 40}[trial%3]
		base := []int64{0, math.MaxInt64 - 500, bat.NilInt + 1}[trial/3%3]
		build := make([]int64, rng.Intn(40))
		for i := range build {
			if build[i] = draw(span); build[i] != bat.NilInt && trial%2 == 0 {
				build[i] = base + (build[i]-base)%span // stays dense near base
			}
		}
		probe := make([]int64, 500)
		for i := range probe {
			probe[i] = draw(span)
			if rng.Intn(3) == 0 && len(build) > 0 {
				probe[i] = build[rng.Intn(len(build))]
			}
		}
		src, err := NewSource([]string{"k"}, []Col{{Kind: KindInt, Ints: build}})
		if err != nil {
			t.Fatal(err)
		}
		jb, err := BuildJoinTable(NewScan(src, 7), 0, []int{0}, false)
		if err != nil {
			t.Fatal(err)
		}
		var res *memgov.Reservation
		if trial%5 == 0 {
			res = memgov.New(1, memgov.Reject) // no room for a bitmap
		}
		preds, bitmap, mult, unique := jb.KeyFilter(0, res)
		kinds[bitmap]++
		keys, lo, hi, nonNil := map[int64]bool{}, int64(math.MaxInt64), bat.NilInt, 0
		for _, k := range build {
			if k != bat.NilInt {
				keys[k], lo, hi, nonNil = true, min(lo, k), max(hi, k), nonNil+1
			}
		}
		if want := bitmap && len(keys) == nonNil; unique != want {
			t.Fatalf("trial %d (bitmap=%v, build %v): unique %v, want %v", trial, bitmap, build, unique, want)
		}
		if bitmap {
			uniques[unique]++
		}
		if res != nil && bitmap && len(keys) > 0 {
			t.Fatalf("trial %d: a bitmap the reservation cannot hold", trial)
		}
		// A bitmap passes matches only (fan-out rows ÷ distinct keys), a
		// range distinct ÷ span of its rows: rows ÷ span.
		wantMult := 0.0
		switch {
		case bitmap && len(keys) > 0:
			wantMult = float64(len(build)) / float64(len(keys))
		case !bitmap:
			wantMult = float64(len(build)) / float64(uint64(hi-lo)+1)
		}
		if math.Abs(mult-wantMult) > 1e-9*wantMult {
			t.Fatalf("trial %d (bitmap=%v, build %v): multiplier %v, want %v", trial, bitmap, build, mult, wantMult)
		}
		var want []any
		for _, k := range probe {
			if k != bat.NilInt && (bitmap && keys[k] || !bitmap && k >= lo && k <= hi) {
				want = append(want, k)
			}
		}
		psrc, err := NewSource([]string{"k"}, []Col{{Kind: KindInt, Ints: probe}})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Drain(&Filter{Child: NewScan(psrc, 64), Preds: preds})
		if err != nil {
			t.Fatal(err)
		}
		var got []any
		for _, r := range rows {
			got = append(got, r[0])
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (bitmap=%v, build %v): kept %v, want %v", trial, bitmap, build, got, want)
		}
	}
	if kinds[true] < 20 || kinds[false] < 20 || uniques[true] < 10 || uniques[false] < 10 {
		t.Fatalf("filter kinds drawn: %v, bitmaps over unique keys: %v", kinds, uniques)
	}
}
