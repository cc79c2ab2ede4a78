package radix

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bat"
)

func tableRows(t *Table, key int64) []int32 {
	var rows []int32
	t.ForEach(key, func(r int32) { rows = append(rows, r) })
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	return rows
}

func TestTableNilKeyNeverMatches(t *testing.T) {
	keys := []int64{5, bat.NilInt, 5, bat.NilInt, 7}
	tab := BuildTable(keys)
	if tab.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (nil keys dropped)", tab.Len())
	}
	if got := tableRows(tab, 5); !reflect.DeepEqual(got, []int32{0, 2}) {
		t.Fatalf("rows(5) = %v", got)
	}
	if r := tab.First(bat.NilInt); r != -1 {
		t.Fatalf("First(nil) = %d, want -1", r)
	}
	if tab.Contains(bat.NilInt) {
		t.Fatal("Contains(nil) = true")
	}
}

func TestPartitionedTableNilKeyNeverMatches(t *testing.T) {
	keys := make([]int64, 0, 4096)
	for i := 0; i < 2048; i++ {
		keys = append(keys, int64(i%37), bat.NilInt)
	}
	pt := BuildPartitionedTable(keys, 3)
	var nilRows []int32
	pt.ForEach(bat.NilInt, func(r int32) { nilRows = append(nilRows, r) })
	if len(nilRows) != 0 {
		t.Fatalf("nil key matched %d rows", len(nilRows))
	}
	var got []int32
	pt.ForEach(3, func(r int32) { got = append(got, r) })
	var want []int32
	for i, k := range keys {
		if k == 3 {
			want = append(want, int32(i))
		}
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows(3) = %v, want %v", got, want)
	}
}

// Property: JoinTable (flat or partitioned) matches a nil-aware map
// oracle: nil keys on either side never match.
func TestQuickJoinTableNilAware(t *testing.T) {
	f := func(raw []uint8) bool {
		keys := make([]int64, len(raw))
		for i, v := range raw {
			if v%5 == 0 {
				keys[i] = bat.NilInt
			} else {
				keys[i] = int64(v % 8)
			}
		}
		jt := NewJoinTable(keys)
		oracle := map[int64][]int32{}
		for i, k := range keys {
			if k != bat.NilInt {
				oracle[k] = append(oracle[k], int32(i))
			}
		}
		for _, probe := range append([]int64{bat.NilInt, 99}, keys...) {
			var got []int32
			jt.ForEach(probe, func(r int32) { got = append(got, r) })
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			want := oracle[probe]
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				return false
			}
			if jt.Contains(probe) != (len(want) > 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// SimpleHashJoin and PartitionedHashJoin share the Table core, so nil
// tuple values never pair up in either.
func TestHashJoinsSkipNilTuples(t *testing.T) {
	l := mkTuples([]int64{1, bat.NilInt, 2, bat.NilInt})
	r := mkTuples([]int64{bat.NilInt, 2, 1, bat.NilInt})
	want := []OIDPair{{0, 2}, {2, 1}}
	for name, got := range map[string][]OIDPair{
		"simple":      SimpleHashJoin(l, r),
		"partitioned": PartitionedHashJoin(l, r, SplitBits(2, 2)),
	} {
		sortPairs(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s join = %v, want %v", name, got, want)
		}
	}
}

func TestJoinBATsSkipsNils(t *testing.T) {
	l := bat.FromInts([]int64{bat.NilInt, 4, bat.NilInt, 5})
	r := bat.FromInts([]int64{5, bat.NilInt, 4})
	lo, ro := JoinBATs(l, r, 512<<10)
	pairs := make([]OIDPair, lo.Len())
	for i := range pairs {
		pairs[i] = OIDPair{L: lo.OIDAt(i), R: ro.OIDAt(i)}
	}
	sortPairs(pairs)
	want := []OIDPair{{1, 2}, {3, 0}}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("JoinBATs = %v, want %v", pairs, want)
	}
}

// The flat table auto-partitions at PartitionRows; both layouts must
// agree through the JoinTable front.
func TestJoinTablePartitionSwitch(t *testing.T) {
	if testing.Short() {
		t.Skip("large build in -short mode")
	}
	n := PartitionRows
	keys := make([]int64, n)
	for i := range keys {
		if i%11 == 0 {
			keys[i] = bat.NilInt
		} else {
			keys[i] = int64(i % 1000)
		}
	}
	big := NewJoinTable(keys)
	small := NewJoinTable(keys[:n-1])
	if !big.Partitioned() || small.Partitioned() {
		t.Fatalf("partition switch at %d rows broken", PartitionRows)
	}
	for _, probe := range []int64{0, 1, 999, bat.NilInt} {
		var a, b int
		big.ForEach(probe, func(int32) { a++ })
		small.ForEach(probe, func(int32) { b++ })
		wantBig, wantSmall := 0, 0
		for i, k := range keys {
			if k == probe && k != bat.NilInt {
				wantBig++
				if i < n-1 {
					wantSmall++
				}
			}
		}
		if a != wantBig || b != wantSmall {
			t.Fatalf("probe %d: partitioned=%d (want %d), flat=%d (want %d)", probe, a, wantBig, b, wantSmall)
		}
		if big.Contains(probe) != (wantBig > 0) || small.Contains(probe) != (wantSmall > 0) {
			t.Fatalf("probe %d: Contains disagrees with ForEach", probe)
		}
	}
}

// Insert past the pre-sized capacity rehashes; chains survive the move.
func TestTableInsertGrows(t *testing.T) {
	tab := NewTable(2)
	n := 1000
	for i := 0; i < n; i++ {
		tab.Insert(int64(i%100), int32(i))
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d", tab.Len())
	}
	for k := 0; k < 100; k++ {
		if got := len(tableRows(tab, int64(k))); got != 10 {
			t.Fatalf("key %d: %d rows, want 10", k, got)
		}
	}
}

// Property: the radix-partitioned table yields the same match sets as the
// flat table for arbitrary keys and partition bit counts.
func TestQuickPartitionedTableMatchesFlat(t *testing.T) {
	f := func(raw []int64, bits8 uint8) bool {
		keys := make([]int64, len(raw))
		for i, v := range raw {
			keys[i] = v % 64
		}
		pt := BuildPartitionedTable(keys, int(bits8%6)+1)
		flat := BuildTable(keys)
		for _, k := range keys {
			var got []int32
			pt.ForEach(k, func(r int32) { got = append(got, r) })
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if !reflect.DeepEqual(got, tableRows(flat, k)) {
				return false
			}
		}
		var miss []int32
		pt.ForEach(1<<40, func(r int32) { miss = append(miss, r) })
		return len(miss) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
