package crack

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bat"
)

func sortedOIDs(o []bat.OID) []bat.OID {
	out := append([]bat.OID(nil), o...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func refRange(vals []int64, lo, hi int64) []bat.OID {
	var out []bat.OID
	for i, v := range vals {
		if v >= lo && v < hi {
			out = append(out, bat.OID(i))
		}
	}
	return out
}

func TestFirstQueryCracksAndAnswers(t *testing.T) {
	vals := []int64{13, 16, 4, 9, 2, 12, 7, 1, 19, 3}
	ix := New(bat.FromInts(vals))
	got := sortedOIDs(ix.RangeOIDs(5, 14))
	want := refRange(vals, 5, 14)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if ix.NumPieces() != 3 {
		t.Fatalf("pieces = %d, want 3 (two cracks)", ix.NumPieces())
	}
	if !ix.CheckInvariants() {
		t.Fatal("invariants violated")
	}
}

func TestRepeatedQueriesRefine(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	vals := make([]int64, 2000)
	for i := range vals {
		vals[i] = r.Int63n(1000)
	}
	ix := New(bat.FromInts(vals))
	prevCracks := 0
	for q := 0; q < 50; q++ {
		lo := r.Int63n(900)
		got := sortedOIDs(ix.RangeOIDs(lo, lo+50))
		if !reflect.DeepEqual(got, refRange(vals, lo, lo+50)) {
			t.Fatalf("query %d wrong", q)
		}
		if !ix.CheckInvariants() {
			t.Fatalf("invariants violated after query %d", q)
		}
		prevCracks = ix.Cracks
	}
	_ = prevCracks
	// The same query again must not crack further.
	before := ix.Cracks
	ix.RangeOIDs(100, 150)
	ix.RangeOIDs(100, 150)
	if ix.Cracks > before+2 {
		t.Fatalf("repeated identical query keeps cracking: %d -> %d", before, ix.Cracks)
	}
}

func TestCrackInThree(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = r.Int63n(500)
	}
	ix := New(bat.FromInts(vals))
	ix.CrackInThree = true
	got := sortedOIDs(ix.RangeOIDs(100, 200))
	if !reflect.DeepEqual(got, refRange(vals, 100, 200)) {
		t.Fatal("crack-in-three wrong answer")
	}
	if ix.Cracks != 1 {
		t.Fatalf("crack-in-three should crack once, got %d", ix.Cracks)
	}
	if !ix.CheckInvariants() {
		t.Fatal("invariants violated")
	}
	// Second disjoint query falls into existing pieces: both modes fine.
	got = sortedOIDs(ix.RangeOIDs(250, 300))
	if !reflect.DeepEqual(got, refRange(vals, 250, 300)) {
		t.Fatal("second query wrong")
	}
}

func TestEmptyRangeAndEmptyIndex(t *testing.T) {
	ix := New(bat.FromInts(nil))
	if got := ix.RangeOIDs(1, 5); len(got) != 0 {
		t.Fatalf("= %v", got)
	}
	ix2 := New(bat.FromInts([]int64{1}))
	if got := ix2.RangeOIDs(5, 5); got != nil {
		t.Fatalf("lo==hi should be empty, got %v", got)
	}
	if got := ix2.RangeOIDs(7, 3); got != nil {
		t.Fatalf("inverted range should be empty, got %v", got)
	}
}

func TestRangeSelectSortedCandidate(t *testing.T) {
	vals := []int64{5, 1, 9, 3}
	ix := New(bat.FromInts(vals))
	c := ix.RangeSelect(2, 6)
	if !c.Props().Sorted {
		t.Fatal("candidate must be sorted")
	}
	if got := c.OIDs(); !reflect.DeepEqual(got, []bat.OID{0, 3}) {
		t.Fatalf("= %v", got)
	}
}

func TestHSeqRespected(t *testing.T) {
	col := bat.FromInts([]int64{10, 20})
	col.SetHSeq(100)
	ix := New(col)
	got := ix.RangeOIDs(15, 25)
	if !reflect.DeepEqual(got, []bat.OID{101}) {
		t.Fatalf("= %v", got)
	}
}

func TestInsertRipples(t *testing.T) {
	vals := []int64{50, 10, 90, 30, 70}
	ix := New(bat.FromInts(vals))
	// Crack twice to create pieces.
	ix.RangeOIDs(20, 60)
	if !ix.CheckInvariants() {
		t.Fatal("invariants after cracks")
	}
	// Insert values landing in different pieces.
	ix.Insert(15, 100)
	ix.Insert(55, 101)
	ix.Insert(95, 102)
	if !ix.CheckInvariants() {
		t.Fatal("invariants after inserts")
	}
	got := sortedOIDs(ix.RangeOIDs(20, 60))
	// original OIDs with value in [20,60): 0 (50), 3 (30); inserted 101 (55).
	want := []bat.OID{0, 3, 101}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestDeleteTombstones(t *testing.T) {
	vals := []int64{5, 6, 7}
	ix := New(bat.FromInts(vals))
	ix.Delete(1)
	got := sortedOIDs(ix.RangeOIDs(5, 8))
	if !reflect.DeepEqual(got, []bat.OID{0, 2}) {
		t.Fatalf("= %v", got)
	}
}

// Property: a random mix of queries/inserts/deletes always answers
// identically to a reference implementation and preserves invariants.
func TestQuickCrackingMatchesReference(t *testing.T) {
	f := func(raw []uint16, ops []uint16, three bool) bool {
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v % 256)
		}
		ix := New(bat.FromInts(vals))
		ix.CrackInThree = three
		ref := append([]int64(nil), vals...) // ref[i] valid unless deleted
		refDel := map[int]bool{}
		nextOID := bat.OID(len(vals))
		extra := map[bat.OID]int64{}
		for _, op := range ops {
			kind := op % 4
			a := int64(op/4) % 256
			switch kind {
			case 0, 1: // range query
				lo, hi := a, a+17
				got := sortedOIDs(ix.RangeOIDs(lo, hi))
				var want []bat.OID
				for i, v := range ref {
					if !refDel[i] && v >= lo && v < hi {
						want = append(want, bat.OID(i))
					}
				}
				for o, v := range extra {
					if v >= lo && v < hi {
						want = append(want, o)
					}
				}
				want = sortedOIDs(want)
				if !reflect.DeepEqual(got, want) {
					return false
				}
				if !ix.CheckInvariants() {
					return false
				}
			case 2: // insert
				ix.Insert(a, nextOID)
				extra[nextOID] = a
				nextOID++
			case 3: // delete an original tuple
				if len(ref) > 0 {
					i := int(op) % len(ref)
					ix.Delete(bat.OID(i))
					refDel[i] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBaselinesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	vals := make([]int64, 3000)
	for i := range vals {
		vals[i] = r.Int63n(1000)
	}
	col := bat.FromInts(vals)
	ix := New(col)
	si := NewSorted(col)
	for q := 0; q < 20; q++ {
		lo := r.Int63n(900)
		a := sortedOIDs(ix.RangeOIDs(lo, lo+80))
		b := sortedOIDs(si.RangeOIDs(lo, lo+80))
		c := sortedOIDs(ScanBaseline(col, lo, lo+80))
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(b, c) {
			t.Fatalf("query %d: baselines disagree", q)
		}
	}
}

// TestConvergenceTowardsSorted: with enough queries the per-query crack
// work approaches zero (pieces get small), the core cracking promise.
func TestConvergenceTowardsSorted(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	vals := make([]int64, 50000)
	for i := range vals {
		vals[i] = r.Int63n(100000)
	}
	ix := New(bat.FromInts(vals))
	for q := 0; q < 1000; q++ {
		lo := r.Int63n(99000)
		ix.RangeOIDs(lo, lo+1000)
	}
	if ix.NumPieces() < 100 {
		t.Fatalf("pieces = %d; expected heavy refinement", ix.NumPieces())
	}
	// After refinement, a query touches small pieces: count cracks done for
	// 100 more queries — most should hit existing bounds or small pieces.
	before := ix.Cracks
	for q := 0; q < 100; q++ {
		lo := r.Int63n(99000)
		ix.RangeOIDs(lo, lo+1000)
	}
	if ix.Cracks-before > 200 {
		t.Fatalf("still cracking heavily: %d new cracks", ix.Cracks-before)
	}
}
