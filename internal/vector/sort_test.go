package vector

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/bat"
)

// sortedPipeline builds the full ORDER BY plan the physical layer
// instantiates: RowIDs exchange over filter+SortRun fragments, merged
// by MergeRuns. Returns the merged rows as (key, payload) pairs.
func sortedPipeline(t *testing.T, keys []int64, desc bool, limit, workers int) [][2]int64 {
	t.Helper()
	payload := make([]int64, len(keys))
	for i := range payload {
		payload[i] = int64(i) * 7
	}
	src, err := NewSource([]string{"k", "p"}, []Col{
		{Kind: KindInt, Ints: keys},
		{Kind: KindInt, Ints: payload},
	})
	if err != nil {
		t.Fatal(err)
	}
	rowID := 2        // appended by the RowIDs scan
	runs := &RunSet{} // the workers prune behind one shared top-N cutoff
	ex := &Exchange{
		Source:     src,
		Workers:    workers,
		MorselSize: 16,
		VectorSize: 8,
		RowIDs:     true,
		Plan: func(scan Operator) Operator {
			return &SortRun{Child: scan, Key: 0, RowID: rowID, Desc: desc, Limit: limit, Runs: runs}
		},
	}
	merge := &MergeRuns{Child: ex, Key: 0, RowID: rowID, Desc: desc, Limit: limit, Size: 8, Ext: runs}
	rows, err := Drain(merge)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][2]int64, len(rows))
	for i, r := range rows {
		out[i] = [2]int64{r[0].(int64), r[1].(int64)}
	}
	return out
}

// serialOrder is the oracle: a stable ascending sort by key over the
// original row order; descending is its exact reverse (the batalg
// Sort/SortDesc contract).
func serialOrder(keys []int64, desc bool, limit int) [][2]int64 {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	if desc {
		for a, b := 0, len(idx)-1; a < b; a, b = a+1, b-1 {
			idx[a], idx[b] = idx[b], idx[a]
		}
	}
	if limit >= 0 && limit < len(idx) {
		idx = idx[:limit]
	}
	out := make([][2]int64, len(idx))
	for i, r := range idx {
		out[i] = [2]int64{keys[r], int64(r) * 7}
	}
	return out
}

func TestSortRunMergeVsSerialOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 5, 100, 500} {
		for _, desc := range []bool{false, true} {
			for _, limit := range []int{-1, 0, 3, 250} {
				for _, workers := range []int{1, 2, 4, 8} {
					keys := make([]int64, n)
					for i := range keys {
						keys[i] = rng.Int63n(17) // heavy duplication
						if rng.Intn(6) == 0 {
							keys[i] = bat.NilInt
						}
					}
					got := sortedPipeline(t, keys, desc, limit, workers)
					want := serialOrder(keys, desc, limit)
					if len(got) != len(want) {
						t.Fatalf("n=%d desc=%v limit=%d w=%d: %d rows, want %d",
							n, desc, limit, workers, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("n=%d desc=%v limit=%d w=%d row %d: got %v want %v",
								n, desc, limit, workers, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// Float keys: NaN (the float nil) orders first ascending, last
// descending — exactly like nil ints.
func TestSortFloatNaNOrder(t *testing.T) {
	keys := []float64{2.5, math.NaN(), 1.5, math.NaN(), 3.5}
	src, err := NewSource([]string{"k"}, []Col{{Kind: KindFloat, Floats: keys}})
	if err != nil {
		t.Fatal(err)
	}
	for _, desc := range []bool{false, true} {
		ex := &Exchange{
			Source: src, Workers: 2, MorselSize: 2, VectorSize: 2, RowIDs: true,
			Plan: func(scan Operator) Operator {
				return &SortRun{Child: scan, Key: 0, RowID: 1, Desc: desc, Limit: -1}
			},
		}
		merge := &MergeRuns{Child: ex, Key: 0, RowID: 1, Desc: desc, Limit: -1, Size: 4}
		rows, err := Drain(merge)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 5 {
			t.Fatalf("desc=%v: %d rows", desc, len(rows))
		}
		vals := make([]float64, 5)
		for i, r := range rows {
			vals[i] = r[0].(float64)
		}
		nanAt := []int{0, 1}
		realAsc := []float64{1.5, 2.5, 3.5}
		realFrom := 2
		if desc {
			nanAt = []int{3, 4}
			realAsc = []float64{3.5, 2.5, 1.5}
			realFrom = 0
		}
		for _, i := range nanAt {
			if !math.IsNaN(vals[i]) {
				t.Fatalf("desc=%v: expected NaN at %d, got %v", desc, i, vals)
			}
		}
		for i, want := range realAsc {
			if vals[realFrom+i] != want {
				t.Fatalf("desc=%v: got %v", desc, vals)
			}
		}
	}
}

// The run-level LIMIT pushdown truncates each worker's run: with limit
// k, no run the merge sees is longer than k.
func TestSortRunLimitPushdown(t *testing.T) {
	keys := make([]int64, 1000)
	for i := range keys {
		keys[i] = int64(1000 - i)
	}
	src, err := NewSource([]string{"k"}, []Col{{Kind: KindInt, Ints: keys}})
	if err != nil {
		t.Fatal(err)
	}
	ex := &Exchange{
		Source: src, Workers: 4, MorselSize: 64, VectorSize: 32, RowIDs: true,
		Plan: func(scan Operator) Operator {
			return &SortRun{Child: scan, Key: 0, RowID: 1, Desc: false, Limit: 5}
		},
	}
	if err := ex.Open(); err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	runs := 0
	for {
		b, err := ex.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		runs++
		if b.Rows() > 5 {
			t.Fatalf("run of %d rows escaped the limit pushdown", b.Rows())
		}
	}
	if runs == 0 {
		t.Fatal("no runs produced")
	}
}

// The normalized key IS the order: for every pair of cells, unsigned
// comparison of the keys agrees with cmpCell (nil first, the two float
// zeros one key), the descending mask reverses it, and the cutoff
// pre-filter keeps exactly the rows at or before the cutoff.
func TestSortNormalizedKeyMatchesCmpCell(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ints := []int64{bat.NilInt, math.MinInt64 + 1, -1, 0, math.MaxInt64, 1, -2, 42}
	flts := []float64{math.NaN(), math.Inf(-1), math.Copysign(0, -1), 0, math.Inf(1),
		-math.MaxFloat64, math.MaxFloat64, -math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64, -1.5, 1.5}
	for i := 0; i < 200; i++ {
		ints = append(ints, int64(rng.Uint64()))
		flts = append(flts, math.Float64frombits(rng.Uint64())) // NaN payloads of both signs included
	}
	for _, col := range []Col{{Kind: KindInt, Ints: ints}, {Kind: KindFloat, Floats: flts}} {
		n := col.Len()
		norm := func(i int) uint64 {
			if col.Kind == KindInt {
				return normInt(col.Ints[i])
			}
			return normFloat(col.Floats[i])
		}
		for _, desc := range []bool{false, true} {
			ord := newSortOrder(0, -1, nil, desc)
			for a := 0; a < n; a++ {
				// Every row at or before a in the order, and no other, passes a's key as the cutoff.
				passed := map[int32]bool{}
				for _, r := range ord.within(&col, nil, n, norm(a)^ord.mask, nil) {
					passed[r] = true
				}
				for b := 0; b < n; b++ {
					want := cmpCell(&col, &col, int32(a), int32(b))
					if desc {
						want = -want
					}
					got := cmp.Compare(norm(a)^ord.mask, norm(b)^ord.mask)
					if got != want {
						t.Fatalf("kind %d desc=%v rows %d,%d: normalized keys compare %d, cmpCell %d", col.Kind, desc, a, b, got, want)
					}
					if passed[int32(b)] != (want >= 0) {
						t.Fatalf("kind %d desc=%v: row %d against cutoff row %d: passed=%v, order says %d", col.Kind, desc, b, a, passed[int32(b)], want)
					}
				}
			}
		}
	}
	// The named boundary values, in order.
	for i := 1; i < 5; i++ {
		if normInt(ints[i-1]) >= normInt(ints[i]) {
			t.Fatalf("int keys %d and %d out of order", ints[i-1], ints[i])
		}
		if (normFloat(flts[i-1]) >= normFloat(flts[i])) != (i == 3) { // -0.0 and +0.0 tie
			t.Fatalf("float keys %v and %v: wrong order", flts[i-1], flts[i])
		}
	}
}

// The shared cutoff only ever tightens, whatever order the workers
// publish in, and ends at the tightest key published.
func TestSortSharedCutoffIsMonotone(t *testing.T) {
	rs := &RunSet{}
	if rs.cutoff() != noCutoff {
		t.Fatalf("zero RunSet has cutoff %d", rs.cutoff())
	}
	const writers, each = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		last := uint64(noCutoff)
		for {
			c := rs.cutoff()
			if c > last {
				t.Errorf("cutoff loosened: %d after %d", c, last)
				return
			}
			last = c
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	lowest := make([]uint64, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			lowest[w] = noCutoff
			for i := 0; i < each; i++ {
				k := rng.Uint64()>>1 + 1
				lowest[w] = min(lowest[w], k)
				rs.tighten(k)
				if c := rs.cutoff(); c > k {
					t.Errorf("cutoff %d looser than %d just published", c, k)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if want := slices.Min(lowest); rs.cutoff() != want {
		t.Fatalf("final cutoff %d, tightest published %d", rs.cutoff(), want)
	}
}

// A bounded run holds at most 2*Limit rows plus a vector however the
// input is ordered; on an input that arrives best-last (ascending under
// DESC) every row passes the cutoff, and each compaction still retires
// Limit rows, so there are at most n/Limit of them.
func TestSortRunTopNStaysBounded(t *testing.T) {
	const n, limit, vec = 20000, 100, 64
	asc := make([]int64, n)
	rnd := make([]int64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range asc {
		asc[i], rnd[i] = int64(i/3), rng.Int63n(n/8)
	}
	for name, keys := range map[string][]int64{"ascending": asc, "random": rnd} {
		src, err := NewSource([]string{"k"}, []Col{{Kind: KindInt, Ints: keys}})
		if err != nil {
			t.Fatal(err)
		}
		runs := &RunSet{}
		sr := &SortRun{Child: &MorselScan{Cur: NewMorselCursor(src, 0), Size: vec, RowIDs: true},
			Key: 0, RowID: 1, Desc: true, Limit: limit, Runs: runs}
		rows, err := Drain(sr)
		if err != nil {
			t.Fatal(err)
		}
		want := serialOrder(keys, true, limit)
		for i := range want {
			if rows[i][0].(int64) != want[i][0] || rows[i][1].(int64)*7 != want[i][1] {
				t.Fatalf("%s row %d: got %v, want key %d row %d", name, i, rows[i], want[i][0], want[i][1]/7)
			}
		}
		st := &runs.Stats
		if got := st.RowsIn.Load(); got != n {
			t.Fatalf("%s: %d rows in, want %d", name, got, n)
		}
		if c := st.Compactions.Load(); c == 0 || c > n/limit {
			t.Fatalf("%s: %d compactions for %d rows at limit %d", name, c, n, limit)
		}
		if cap(sr.buf[0].Ints) > 2*(2*limit+vec) || cap(sr.spare[0].Ints) > 2*(2*limit+vec) {
			t.Fatalf("%s: buffer grew to %d/%d rows", name, cap(sr.buf[0].Ints), cap(sr.spare[0].Ints))
		}
		past := st.PastCutoff.Load()
		if name == "ascending" && past != n {
			t.Fatalf("ascending: %d of %d rows passed the cutoff; every one is a new maximum", past, n)
		}
		if name == "random" && past > n/10 {
			t.Fatalf("random: %d of %d rows passed the cutoff", past, n)
		}
	}
}
