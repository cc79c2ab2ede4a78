package vector

import (
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/bat"
)

// rangeSource is a 10000-row source with v[i] = i, narrowed to three
// ranges: one inside a morsel, one spanning several, one at the tail.
func rangeSource(t *testing.T) (*Source, []int64) {
	t.Helper()
	vals := make([]int64, 10000)
	for i := range vals {
		vals[i] = int64(i)
	}
	full, err := NewSource([]string{"v"}, []Col{{Kind: KindInt, Ints: vals}})
	if err != nil {
		t.Fatal(err)
	}
	ranges := []RowRange{{100, 250}, {1000, 4000}, {9990, 10000}}
	src, err := full.Restrict(ranges)
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for _, r := range ranges {
		want = append(want, vals[r.Lo:r.Hi]...)
	}
	if src.Len() != 10000 || src.ScanRows() != len(want) || full.ScanRows() != 10000 {
		t.Fatalf("Len %d, ScanRows %d (unrestricted %d), want 10000, %d, 10000", src.Len(), src.ScanRows(), full.ScanRows(), len(want))
	}
	return src, want
}

// TestPrunedRangesScanOnlySurvivors: the serial Scan and the Exchange at
// every worker count hand exactly the rows inside the source's ranges
// to the pipeline, once each, and RowIDs stay global positions.
func TestPrunedRangesScanOnlySurvivors(t *testing.T) {
	src, want := rangeSource(t)
	checkScans(t, src, want)
}

// TestTombstonedRangesScanOnlyLiveRows: tombstones inside a range,
// between ranges and filling whole vectors are left out of every scan's
// selection vectors — RowIDs still global positions — and a column-free
// count(*) counts the live rows.
func TestTombstonedRangesScanOnlyLiveRows(t *testing.T) {
	src, ranged := rangeSource(t)
	dead := map[int64]bool{500: true, 9999: true}
	for p := int64(150); p < 180; p++ {
		dead[p] = true
	}
	for p := int64(2000); p < 2200; p++ { // two whole 100-row vectors
		dead[p] = true
	}
	var del []bat.OID
	for p := range dead {
		del = append(del, bat.OID(p))
	}
	slices.Sort(del)
	var want []int64
	for _, v := range ranged {
		if !dead[v] {
			want = append(want, v)
		}
	}
	checkScans(t, src.WithDeleted(del), want)

	rows, err := NewSourceWithLen(nil, nil, 10000)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Drain(&Agg{Child: NewScan(rows.WithDeleted(del), 100), Aggs: []AggSpec{{Kind: AggCount}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := out[0][0].(int64); got != int64(10000-len(del)) {
		t.Fatalf("count(*) = %d, want %d", got, 10000-len(del))
	}
}

// checkScans drains src through the serial Scan and through Exchanges
// at several worker counts and compares the sorted values with want.
func checkScans(t *testing.T, src *Source, want []int64) {
	t.Helper()
	check := func(name string, op Operator) {
		t.Helper()
		rows, err := Drain(op)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := make([]int64, len(rows))
		for i, r := range rows {
			got[i] = r[0].(int64)
			if len(r) == 2 && r[1].(int64) != got[i] {
				t.Fatalf("%s: row id %d for the row at position %d", name, r[1], got[i])
			}
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: row %d is %d, want %d", name, i, got[i], want[i])
			}
		}
	}
	check("scan", NewScan(src, 64))
	for _, workers := range []int{1, 2, 4} {
		ex := parallelScan(src, workers)
		ex.MorselSize, ex.VectorSize, ex.RowIDs = 1024, 100, true
		check("exchange", ex)
	}
}

func TestPrunedRangesMustBeSortedAndDisjoint(t *testing.T) {
	src, _ := NewSource([]string{"v"}, []Col{{Kind: KindInt, Ints: make([]int64, 100)}})
	for _, bad := range [][]RowRange{
		{{10, 10}},           // empty
		{{20, 30}, {10, 15}}, // out of order
		{{0, 30}, {29, 40}},  // overlapping
		{{90, 101}},          // past the end
		{{-1, 5}},
	} {
		if _, err := src.Restrict(bad); err == nil {
			t.Errorf("Restrict(%v) accepted", bad)
		}
	}
}

// TestExchangeStartsNoWorkerWithoutAMorsel: Open starts
// min(Workers, morsels) pipelines, and one even for an empty input.
func TestExchangeStartsNoWorkerWithoutAMorsel(t *testing.T) {
	src, _ := rangeSource(t) // 150 + 3000 + 10 rows
	small, _ := NewSource([]string{"v"}, []Col{{Kind: KindInt, Ints: make([]int64, 4096)}})
	oneZone, err := small.Restrict([]RowRange{{1024, 2048}})
	if err != nil {
		t.Fatal(err)
	}
	empty, _ := NewSource([]string{"v"}, []Col{{Kind: KindInt, Ints: []int64{}}})
	for _, c := range []struct {
		name            string
		src             *Source
		workers, morsel int
		want            int64
	}{
		{"small table, default morsel", small, 8, 0, 1},
		{"pruned to one zone", oneZone, 8, 512, 2},
		{"more morsels than workers", src, 4, 256, 4}, // 1 + 12 + 1 morsels
		{"fewer morsels than workers", src, 8, 1024, 5},
		{"empty", empty, 8, 0, 1},
	} {
		var started atomic.Int64
		ex := parallelScan(c.src, c.workers)
		ex.MorselSize = c.morsel
		ex.Plan = func(scan Operator) Operator { started.Add(1); return scan }
		rows, err := Drain(ex)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != c.src.ScanRows() || started.Load() != c.want {
			t.Errorf("%s: %d rows from %d workers, want %d rows from %d", c.name, len(rows), started.Load(), c.src.ScanRows(), c.want)
		}
	}
}

// TestMorselSizeDerivation: the derived morsel is whole 1024-row zones
// inside [4096, 65536], and gives every worker at least two morsels
// once there are 8192 rows per worker.
func TestMorselSizeDerivation(t *testing.T) {
	for _, c := range []struct{ rows, workers, want int }{
		{0, 2, 4096},
		{4096, 1, 4096},  // a small table is one morsel even serially
		{4096, 16, 4096}, // ... and on many workers
		{10000, 2, 4096},
		{65536, 1, 16384},
		{65536, 2, 8192},
		{65536, 4, 4096},
		{200000, 2, 25600}, // 25000 rounded up to a zone
		{1 << 24, 2, DefaultMorselSize},
	} {
		if got := morselSize(c.rows, c.workers); got != c.want {
			t.Errorf("morselSize(%d, %d) = %d, want %d", c.rows, c.workers, got, c.want)
		}
	}
	for _, workers := range []int{1, 2, 3, 4, 7, 8, 16, 64} {
		for _, rows := range []int{0, 1, 1023, 4097, 8191, 8192, 12345, 65536, 99999, 1 << 20, 1 << 22, 1 << 26} {
			size := morselSize(rows, workers)
			if size%1024 != 0 || size < 4096 || size > DefaultMorselSize {
				t.Fatalf("morselSize(%d, %d) = %d: not whole zones inside [4096, %d]", rows, workers, size, DefaultMorselSize)
			}
			if morsels := (rows + size - 1) / size; rows >= 8192*workers && morsels < 2*workers {
				t.Fatalf("morselSize(%d, %d) = %d: %d morsels for %d workers", rows, workers, size, morsels, workers)
			}
		}
	}
}

// TestExchangeDerivesAMorselPerWorker: with no MorselSize set, a
// 65536-row scan on two workers is cut small enough that both run.
func TestExchangeDerivesAMorselPerWorker(t *testing.T) {
	src, _ := NewSource([]string{"v"}, []Col{{Kind: KindInt, Ints: make([]int64, 1<<16)}})
	var started atomic.Int64
	ex := &Exchange{Source: src, Workers: 2, Plan: func(scan Operator) Operator { started.Add(1); return scan }}
	rows, err := Drain(ex)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1<<16 || started.Load() != 2 {
		t.Fatalf("%d rows from %d workers, want %d rows from 2", len(rows), started.Load(), 1<<16)
	}
}
