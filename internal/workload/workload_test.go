package workload

import (
	"sort"
	"testing"
)

func TestUniformIntsRange(t *testing.T) {
	vals := UniformInts(10000, 100, 1)
	for _, v := range vals {
		if v < 0 || v >= 100 {
			t.Fatalf("out of range: %d", v)
		}
	}
	// Deterministic per seed.
	again := UniformInts(10000, 100, 1)
	for i := range vals {
		if vals[i] != again[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestSortedInts(t *testing.T) {
	vals := SortedInts(5000, 3, 2)
	if !sort.SliceIsSorted(vals, func(i, j int) bool { return vals[i] < vals[j] }) {
		t.Fatal("not sorted")
	}
}

func TestZipfSkew(t *testing.T) {
	vals := ZipfInts(50000, 1000, 1.5, 3)
	counts := map[int64]int{}
	for _, v := range vals {
		counts[v]++
	}
	if counts[0] < 10*counts[500] {
		t.Fatalf("zipf not skewed: c0=%d c500=%d", counts[0], counts[500])
	}
}

func TestClusteredInts(t *testing.T) {
	vals := ClusteredInts(1000, 4, 100, 4)
	distinct := map[int64]bool{}
	for _, v := range vals {
		distinct[v/1000] = true
	}
	// Values concentrate near 4 centers.
	if len(distinct) > 40 {
		t.Fatalf("too spread out: %d regions", len(distinct))
	}
}

func TestGenLineItemShape(t *testing.T) {
	li := GenLineItem(10000, 5)
	if li.Len() != 10000 {
		t.Fatalf("len = %d", li.Len())
	}
	for i := 0; i < li.Len(); i++ {
		if li.Quantity[i] < 1 || li.Quantity[i] > 50 {
			t.Fatalf("quantity out of range: %d", li.Quantity[i])
		}
		if li.Discount[i] < 0 || li.Discount[i] > 0.10 {
			t.Fatalf("discount out of range: %f", li.Discount[i])
		}
		if li.ShipDate[i] < 1 || li.ShipDate[i] > 2526 {
			t.Fatalf("shipdate out of range: %d", li.ShipDate[i])
		}
		if li.ReturnFlg[i] < 0 || li.ReturnFlg[i] > 2 {
			t.Fatalf("returnflag out of range: %d", li.ReturnFlg[i])
		}
	}
}

func TestSkyserverLogRepeats(t *testing.T) {
	log := SkyserverLog(2000, 4, 100000, 0.5, 6)
	if len(log) != 2000 {
		t.Fatalf("len = %d", len(log))
	}
	seen := map[RangeQuery]int{}
	for _, q := range log {
		seen[q]++
		if q.Col < 0 || q.Col >= 4 {
			t.Fatalf("bad col %d", q.Col)
		}
		if q.Hi <= q.Lo {
			t.Fatalf("bad range %v", q)
		}
	}
	// With 50% repeats, distinct queries must be well under the total.
	if len(seen) > 1400 {
		t.Fatalf("distinct = %d; repeats missing", len(seen))
	}
}

func TestCrackQueriesSelectivity(t *testing.T) {
	qs := CrackQueries(100, 1000000, 0.01, 0, 7)
	for _, q := range qs {
		if q.Hi-q.Lo != 10000 {
			t.Fatalf("width = %d", q.Hi-q.Lo)
		}
	}
	hot := CrackQueries(100, 1000000, 0.001, 0.1, 8)
	for _, q := range hot {
		if q.Lo > 100000 {
			t.Fatalf("hot query outside hot region: %v", q)
		}
	}
}
