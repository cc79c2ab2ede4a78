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
	for r := t.First(key); r >= 0; r = t.Next(r) {
		rows = append(rows, r)
	}
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
}

// Property: Table matches a nil-aware map oracle: nil keys on either
// side never match.
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
		tab := BuildTable(keys)
		oracle := map[int64][]int32{}
		for i, k := range keys {
			if k != bat.NilInt {
				oracle[k] = append(oracle[k], int32(i))
			}
		}
		for _, probe := range append([]int64{bat.NilInt, 99}, keys...) {
			got := tableRows(tab, probe)
			want := oracle[probe]
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
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

// TableBytes is exactly what BuildTable allocates: a governed join
// build charges it before building, and the cost model prices the flat
// join with it.
func TestTableBytesCharge(t *testing.T) {
	for _, n := range []int{0, 1, 4, 5, 1023, 1024, 1025, 1<<18 + 1} {
		tab := BuildTable(make([]int64, n))
		if got, want := TableBytes(n), len(tab.slots)*16+cap(tab.next)*4; got != want {
			t.Errorf("n=%d: TableBytes = %d, BuildTable allocates %d", n, got, want)
		}
	}
}

// A table is Unique exactly when no non-nil key repeats: nils never
// count, and a unique table's chains all end after their first row.
func TestTableUnique(t *testing.T) {
	for _, tc := range []struct {
		keys   []int64
		unique bool
	}{
		{nil, true},
		{[]int64{3, 1, 2}, true},
		{[]int64{nilKey, 5, nilKey, 6}, true},
		{[]int64{5, 6, 5}, false},
		{[]int64{nilKey, 7, 7}, false},
	} {
		tab := BuildTable(tc.keys)
		if tab.Unique() != tc.unique {
			t.Errorf("%v: Unique = %v, want %v", tc.keys, tab.Unique(), tc.unique)
		}
		if !tab.Unique() {
			continue
		}
		for i, k := range tc.keys {
			if k == nilKey {
				continue
			}
			if r := tab.First(k); r != int32(i) || tab.Next(r) != -1 {
				t.Errorf("%v: key %d resolves to row %d then %d, want %d alone", tc.keys, k, r, tab.Next(r), i)
			}
		}
	}
}
