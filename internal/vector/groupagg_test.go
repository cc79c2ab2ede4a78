package vector

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bat"
)

// serialGroupOracle is the map-based reference: group on keys, fold
// nil-aware sums/counts/min/max exactly as SQL defines them. Returns
// rows keyed by group key (sorted by key for comparison).
type oracleRow struct {
	key                  int64
	sumI, cntStar, cntNN int64
	minI, maxI           int64 // bat.NilInt = NULL
	sumF                 float64
	cntNNF               int64
	minF, maxF           float64 // NaN = NULL
}

func serialGroupOracle(keys, ivals []int64, fvals []float64) []oracleRow {
	idx := map[int64]int{}
	var rows []oracleRow
	for i, k := range keys {
		j, ok := idx[k]
		if !ok {
			j = len(rows)
			idx[k] = j
			rows = append(rows, oracleRow{key: k, minI: bat.NilInt, maxI: bat.NilInt,
				minF: math.NaN(), maxF: math.NaN()})
		}
		r := &rows[j]
		r.cntStar++
		if v := ivals[i]; v != bat.NilInt {
			r.sumI += v
			r.cntNN++
			if r.minI == bat.NilInt || v < r.minI {
				r.minI = v
			}
			if r.maxI == bat.NilInt || v > r.maxI {
				r.maxI = v
			}
		}
		if v := fvals[i]; v == v {
			r.sumF += v
			r.cntNNF++
			if r.minF != r.minF || v < r.minF {
				r.minF = v
			}
			if r.maxF != r.maxF || v > r.maxF {
				r.maxF = v
			}
		}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].key < rows[b].key })
	return rows
}

// fullSpecs covers every nil-aware aggregate over int column 1 and float
// column 2 of a (key, ival, fval) source. count(*) names no column, the
// way the planner spells it.
var fullSpecs = []AggSpec{
	{Kind: AggSumIntNil, Col: 1},
	{Kind: AggCount, Col: -1},
	{Kind: AggCountNNInt, Col: 1},
	{Kind: AggMinInt, Col: 1},
	{Kind: AggMaxInt, Col: 1},
	{Kind: AggSumFloatNil, Col: 2},
	{Kind: AggCountNNFloat, Col: 2},
	{Kind: AggMinFloat, Col: 2},
	{Kind: AggMaxFloat, Col: 2},
}

// rowsFromBatch converts a merged [key, aggs...] batch into sorted
// oracle rows for comparison.
func rowsFromBatch(b *Batch) []oracleRow {
	rows := make([]oracleRow, b.N)
	for i := 0; i < b.N; i++ {
		rows[i] = oracleRow{
			key:     b.Cols[0].Ints[i],
			sumI:    b.Cols[1].Ints[i],
			cntStar: b.Cols[2].Ints[i],
			cntNN:   b.Cols[3].Ints[i],
			minI:    b.Cols[4].Ints[i],
			maxI:    b.Cols[5].Ints[i],
			sumF:    b.Cols[6].Floats[i],
			cntNNF:  b.Cols[7].Ints[i],
			minF:    b.Cols[8].Floats[i],
			maxF:    b.Cols[9].Floats[i],
		}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].key < rows[b].key })
	return rows
}

func sameRows(a, b []oracleRow) bool {
	if len(a) != len(b) {
		return false
	}
	feq := func(x, y float64) bool {
		if x != x || y != y {
			return x != x && y != y // both NULL
		}
		return math.Abs(x-y) <= 1e-9*(1+math.Abs(x))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.key != y.key || x.sumI != y.sumI || x.cntStar != y.cntStar ||
			x.cntNN != y.cntNN || x.minI != y.minI || x.maxI != y.maxI ||
			x.cntNNF != y.cntNNF || !feq(x.sumF, y.sumF) ||
			!feq(x.minF, y.minF) || !feq(x.maxF, y.maxF) {
			return false
		}
	}
	return true
}

func randGroupSource(rng *rand.Rand, n, card int) (*Source, []int64, []int64, []float64) {
	keys := make([]int64, n)
	ivals := make([]int64, n)
	fvals := make([]float64, n)
	for i := 0; i < n; i++ {
		keys[i] = rng.Int63n(int64(card))
		if rng.Intn(11) == 0 {
			keys[i] = bat.NilInt // NULL group key
		}
		ivals[i] = rng.Int63n(1000) - 500
		if rng.Intn(4) == 0 {
			ivals[i] = bat.NilInt
		}
		fvals[i] = float64(rng.Int63n(1000)) / 8
		if rng.Intn(4) == 0 {
			fvals[i] = math.NaN()
		}
	}
	src, err := NewSource([]string{"k", "v", "f"}, []Col{
		{Kind: KindInt, Ints: keys},
		{Kind: KindInt, Ints: ivals},
		{Kind: KindFloat, Floats: fvals},
	})
	if err != nil {
		panic(err)
	}
	return src, keys, ivals, fvals
}

// Property: merge-based parallel grouped aggregation equals the serial
// map oracle for every worker count, on nil-laden keys and values
// (all-NULL groups must come back as NULL). Runs under -race in CI.
func TestParallelGroupAggMatchesOracle(t *testing.T) {
	check := func(seed int64, cardRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		card := 1 + int(cardRaw)%96
		n := 500 + rng.Intn(3000)
		src, keys, ivals, fvals := randGroupSource(rng, n, card)
		want := serialGroupOracle(keys, ivals, fvals)
		for _, workers := range []int{1, 2, 4, 8} {
			got, err := ParallelGroupAgg(context.Background(), src, []int{0}, fullSpecs, nil, workers, 256, 64)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !sameRows(rowsFromBatch(got), want) {
				t.Logf("workers=%d diverges from oracle (n=%d card=%d)", workers, n, card)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Filtered grouped aggregation: predicates apply before grouping, so
// fully-filtered groups must not appear at all.
func TestParallelGroupAggWithPreds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src, keys, ivals, fvals := randGroupSource(rng, 4000, 16)
	preds := []Pred{{ColIdx: 1, Op: PredGt, IntVal: 0}} // v > 0 (also drops NilInt? NilInt < 0, dropped)
	var fk []int64
	var fi []int64
	var ff []float64
	for i := range keys {
		if ivals[i] > 0 {
			fk = append(fk, keys[i])
			fi = append(fi, ivals[i])
			ff = append(ff, fvals[i])
		}
	}
	want := serialGroupOracle(fk, fi, ff)
	for _, workers := range []int{1, 3} {
		got, err := ParallelGroupAgg(context.Background(), src, []int{0}, fullSpecs, preds, workers, 512, 128)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(rowsFromBatch(got), want) {
			t.Fatalf("workers=%d: filtered grouping diverges", workers)
		}
	}
}

// A canceled context stops the grouped aggregation with context.Canceled.
func TestGroupAggCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src, _, _, _ := randGroupSource(rng, 100000, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ParallelGroupAgg(ctx, src, []int{0}, fullSpecs, nil, 4, 1024, 128); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

// Composite-key grouping: ParallelGroupAgg over TWO int key columns
// (the K=2 GroupTable path) agrees with a map oracle keyed on the pair,
// across worker counts, on nil-laden keys and values.
func TestParallelGroupAggPairKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 3000
	k1 := make([]int64, n)
	k2 := make([]int64, n)
	vals := make([]int64, n)
	for i := range k1 {
		k1[i] = rng.Int63n(7)
		k2[i] = rng.Int63n(5)
		if rng.Intn(9) == 0 {
			k1[i] = bat.NilInt
		}
		if rng.Intn(9) == 0 {
			k2[i] = bat.NilInt
		}
		vals[i] = rng.Int63n(100)
		if rng.Intn(4) == 0 {
			vals[i] = bat.NilInt
		}
	}
	type pair struct{ a, b int64 }
	type acc struct {
		sum, cntStar, cntNN int64
	}
	oracle := map[pair]*acc{}
	for i := range k1 {
		p := pair{k1[i], k2[i]}
		a := oracle[p]
		if a == nil {
			a = &acc{}
			oracle[p] = a
		}
		a.cntStar++
		if vals[i] != bat.NilInt {
			a.sum += vals[i]
			a.cntNN++
		}
	}

	src, err := NewSource([]string{"k1", "k2", "v"}, []Col{
		{Kind: KindInt, Ints: k1},
		{Kind: KindInt, Ints: k2},
		{Kind: KindInt, Ints: vals},
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := []AggSpec{
		{Kind: AggSumIntNil, Col: 2},
		{Kind: AggCount},
		{Kind: AggCountNNInt, Col: 2},
	}
	for _, workers := range []int{1, 2, 4, 8} {
		got, err := ParallelGroupAgg(context.Background(), src, []int{0, 1}, specs, nil, workers, 256, 64)
		if err != nil {
			t.Fatal(err)
		}
		if got.N != len(oracle) {
			t.Fatalf("workers=%d: %d groups, oracle %d", workers, got.N, len(oracle))
		}
		for g := 0; g < got.N; g++ {
			p := pair{got.Cols[0].Ints[g], got.Cols[1].Ints[g]}
			a := oracle[p]
			if a == nil {
				t.Fatalf("workers=%d: unexpected group %v", workers, p)
			}
			if got.Cols[2].Ints[g] != a.sum || got.Cols[3].Ints[g] != a.cntStar || got.Cols[4].Ints[g] != a.cntNN {
				t.Fatalf("workers=%d group %v: got (%d,%d,%d) want (%d,%d,%d)", workers, p,
					got.Cols[2].Ints[g], got.Cols[3].Ints[g], got.Cols[4].Ints[g], a.sum, a.cntStar, a.cntNN)
			}
		}
	}
}
