package ccindex

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/simhw"
)

func TestBTreeInsertGet(t *testing.T) {
	bt := NewBTree(4)
	r := rand.New(rand.NewSource(1))
	keys := r.Perm(5000)
	for _, k := range keys {
		bt.Insert(int64(k), int64(k*10))
	}
	if bt.Len() != 5000 {
		t.Fatalf("len = %d", bt.Len())
	}
	for _, k := range keys {
		v, ok := bt.Get(int64(k))
		if !ok || v != int64(k*10) {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
	if _, ok := bt.Get(99999); ok {
		t.Fatal("phantom key")
	}
	if bt.depth() < 3 {
		t.Fatalf("depth = %d; expected a real tree", bt.depth())
	}
}

func TestBTreeReplace(t *testing.T) {
	bt := NewBTree(4)
	bt.Insert(7, 1)
	bt.Insert(7, 2)
	if bt.Len() != 1 {
		t.Fatalf("len = %d", bt.Len())
	}
	if v, _ := bt.Get(7); v != 2 {
		t.Fatalf("v = %d", v)
	}
}

func TestBTreeRange(t *testing.T) {
	bt := NewBTree(4)
	for i := 0; i < 100; i++ {
		bt.Insert(int64(i*2), int64(i))
	}
	var got []int64
	bt.scan(10, 30, func(k, v int64) bool {
		got = append(got, k)
		return true
	})
	want := []int64{10, 12, 14, 16, 18, 20, 22, 24, 26, 28}
	if len(got) != len(want) {
		t.Fatalf("range = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range = %v", got)
		}
	}
	// early stop
	n := 0
	bt.scan(0, 1000, func(k, v int64) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop n = %d", n)
	}
}

// Property: B-tree agrees with a map under random insert sequences.
func TestQuickBTree(t *testing.T) {
	f := func(ops []uint16) bool {
		bt := NewBTree(5)
		ref := map[int64]int64{}
		for i, op := range ops {
			k := int64(op % 512)
			bt.Insert(k, int64(i))
			ref[k] = int64(i)
		}
		if bt.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := bt.Get(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func sortedKeys(n int, seed int64) []int64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int63n(int64(n) * 4)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestCSSAgreesWithBinarySearch(t *testing.T) {
	keys := sortedKeys(10000, 2)
	css := BuildCSS(keys, 8)
	if css.Levels() < 3 {
		t.Fatalf("levels = %d", css.Levels())
	}
	r := rand.New(rand.NewSource(3))
	for q := 0; q < 2000; q++ {
		k := r.Int63n(int64(len(keys)) * 4)
		gi, gok := css.Search(k)
		wi, wok := BinarySearch(keys, k)
		if gok != wok {
			t.Fatalf("Search(%d) present=%v want %v", k, gok, wok)
		}
		// Insertion points may differ among equal keys; values must match.
		if gok && keys[gi] != keys[wi] {
			t.Fatalf("Search(%d) pos %d vs %d", k, gi, wi)
		}
		if !gok && gi != wi {
			t.Fatalf("Search(%d) insertion %d vs %d", k, gi, wi)
		}
	}
}

func TestCSBAgreesWithBinarySearch(t *testing.T) {
	keys := sortedKeys(10000, 4)
	csb := BuildCSB(keys, 8)
	r := rand.New(rand.NewSource(5))
	for q := 0; q < 2000; q++ {
		k := r.Int63n(int64(len(keys)) * 4)
		gi, gok := csb.Search(k)
		wi, wok := BinarySearch(keys, k)
		if gok != wok {
			t.Fatalf("Search(%d) present=%v want %v", k, gok, wok)
		}
		if gok && keys[gi] != keys[wi] {
			t.Fatalf("Search(%d) pos %d vs %d", k, gi, wi)
		}
		if !gok && gi != wi {
			t.Fatalf("Search(%d) insertion %d vs %d", k, gi, wi)
		}
	}
}

func TestSmallArrays(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 8, 9} {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(i * 3)
		}
		css := BuildCSS(keys, 8)
		csb := BuildCSB(keys, 8)
		for k := int64(-1); k < int64(n*3+2); k++ {
			wi, wok := BinarySearch(keys, k)
			if gi, gok := css.Search(k); gok != wok || gi != wi {
				t.Fatalf("css n=%d Search(%d) = %d,%v want %d,%v", n, k, gi, gok, wi, wok)
			}
			if gi, gok := csb.Search(k); gok != wok || gi != wi {
				t.Fatalf("csb n=%d Search(%d) = %d,%v want %d,%v", n, k, gi, gok, wi, wok)
			}
		}
	}
}

// Property: CSS and CSB search equal binary search on arbitrary sorted data.
func TestQuickCSSCSB(t *testing.T) {
	f := func(raw []uint16, probes []uint16) bool {
		keys := make([]int64, len(raw))
		for i, v := range raw {
			keys[i] = int64(v % 1024)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		css := BuildCSS(keys, 4)
		csb := BuildCSB(keys, 4)
		for _, p := range probes {
			k := int64(p % 1024)
			wi, wok := BinarySearch(keys, k)
			gi, gok := css.Search(k)
			if gok != wok || (!wok && gi != wi) || (wok && keys[gi] != k) {
				return false
			}
			gi, gok = csb.Search(k)
			if gok != wok || (!wok && gi != wi) || (wok && keys[gi] != k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// --- trace assertions: the E11/E1 shapes ---

func TestTraceCSSBeatsBinarySearch(t *testing.T) {
	h := simhw.Default()
	n, lookups := 1<<20, 4096
	bs := TraceBinarySearch(simhw.NewSim(h), n, lookups)
	css := TraceCSS(simhw.NewSim(h), n, 8, lookups)
	if css.TimeNS >= bs.TimeNS {
		t.Fatalf("CSS (%.0f) should beat binary search (%.0f)", css.TimeNS, bs.TimeNS)
	}
	if css.Levels[1].Misses() >= bs.Levels[1].Misses() {
		t.Fatalf("CSS L2 misses %d should be under binary search %d",
			css.Levels[1].Misses(), bs.Levels[1].Misses())
	}
}

func TestTraceCSSBeatsBTree(t *testing.T) {
	h := simhw.Default()
	n, lookups := 1<<20, 4096
	bt := TraceBTree(simhw.NewSim(h), n, 16, lookups)
	css := TraceCSS(simhw.NewSim(h), n, 8, lookups)
	if css.TimeNS >= bt.TimeNS {
		t.Fatalf("CSS (%.0f) should beat B+-tree (%.0f)", css.TimeNS, bt.TimeNS)
	}
}

func TestTracePositionalBeatsBTree(t *testing.T) {
	// E1: O(1) positional lookup vs B-tree descent.
	h := simhw.Default()
	n, lookups := 1<<20, 4096
	pos := TracePositional(simhw.NewSim(h), n, lookups)
	bt := TraceBTree(simhw.NewSim(h), n, 16, lookups)
	if pos.TimeNS*2 >= bt.TimeNS {
		t.Fatalf("positional (%.0f) should be >2x faster than B-tree (%.0f)",
			pos.TimeNS, bt.TimeNS)
	}
}
