package radix

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/bat"
)

// groupInput is one seeded workload for the table-vs-map property: n
// rows of k-wide tuples, each word drawn from [lo,lo+domain) (a small
// domain forces probe collisions and repeated groups, a large one
// forces several grows from the tiny hint) with bat.NilInt substituted
// every nilEvery-th draw, in every column. Rows 1 and 2 hold the
// domain's ends, lo and lo+domain-1.
type groupInput struct {
	name     string
	n        int
	domain   int64
	nilEvery int
	lo       int64
}

var groupInputs = []groupInput{
	// The int16-ish nil-laden keys of the old single-key suite.
	{"narrow-nils", 3000, 64, 5, 0},
	// The old pair suite: 50x40 pairs over 20000 rows, one half nil a
	// tenth of the time.
	{"pairs", 20000, 50, 10, 0},
	// Mostly distinct tuples: the table doubles ~10 times from hint 4.
	{"wide-growth", 6000, 1 << 40, 0, 0},
	// Two values and nil per word: every tuple shares words with others.
	{"tiny-domain", 2000, 2, 3, 0},
	// A domain straddling zero, the direct-address layout's negative lo.
	{"negative-lo", 5000, 300, 7, -150},
}

func (in groupInput) columns(k int, rng *rand.Rand) [][]int64 {
	cols := make([][]int64, k)
	for c := range cols {
		cols[c] = make([]int64, in.n)
		for i := range cols[c] {
			cols[c][i] = in.lo + rng.Int63n(in.domain)
			if in.nilEvery > 0 && rng.Intn(in.nilEvery) == 0 {
				cols[c][i] = bat.NilInt
			}
		}
		cols[c][1], cols[c][2] = in.lo, in.lo+in.domain-1
	}
	return cols
}

// layout is one way to build the table under test for a K-wide input.
type layout struct {
	name string
	mk   func() *GroupTable
	// dense: the table must stay direct-address through the input;
	// converts: it must have turned to the hash layout on the way.
	dense, converts bool
}

// layouts are the tables the property holds for: the hash layout at
// every width and, for one key of a small domain, the direct-address
// layout over exactly the input's domain, and over its lower half only,
// so an out-of-domain key converts the table mid-batch.
func (in groupInput) layouts(k int) []layout {
	out := []layout{{name: "hash", mk: func() *GroupTable { return NewGroupTable(k, 4) }}}
	if k == 1 && in.domain <= 1<<16 {
		whole := Domain{Lo: in.lo, Hi: in.lo + in.domain - 1}
		half := Domain{Lo: in.lo, Hi: in.lo + in.domain/2 - 1}
		out = append(out,
			layout{name: "dense", mk: func() *GroupTable { return NewDenseGroupTable(whole, 4) }, dense: true},
			layout{name: "dense-converts", mk: func() *GroupTable { return NewDenseGroupTable(half, 4) }, converts: true})
	}
	return out
}

// firstSeen is the oracle: the dense first-seen id a Go map keyed on
// the tuple gives each of the listed rows, and the map itself.
func firstSeen(cols [][]int64, rows []int32) (map[[4]int64]int32, []int32) {
	ids := map[[4]int64]int32{}
	want := make([]int32, len(rows))
	for j, i := range rows {
		var tup [4]int64
		for c := range cols {
			tup[c] = cols[c][i]
		}
		g, ok := ids[tup]
		if !ok {
			g = int32(len(ids))
			ids[tup] = g
		}
		want[j] = g
	}
	return ids, want
}

// Property: for K = 1..4, in every layout, the table assigns exactly
// the dense first-seen ids a Go map keyed on the tuple would — NULL
// words group together — through Assign over 512-row batches and
// through Assign under a selection vector; Key(c) holds each group's
// tuple; a second pass finds every seen tuple again and an unseen one
// takes the next id. Every layout's gids equal the hash layout's, batch
// for batch, and a direct-address table stays one unless a key left its
// domain.
func TestGroupTableMatchesMapOracle(t *testing.T) {
	for _, in := range groupInputs {
		for k := 1; k <= 4; k++ {
			t.Run(fmt.Sprintf("%s/K=%d", in.name, k), func(t *testing.T) { groupTableMatchesMapOracle(t, in, k) })
		}
	}
}

// groupTableMatchesMapOracle is the property for one input at width k,
// one subtest per layout.
func groupTableMatchesMapOracle(t *testing.T, in groupInput, k int) {
	cols := in.columns(k, rand.New(rand.NewSource(int64(42+k))))
	all := make([]int32, in.n)
	for i := range all {
		all[i] = int32(i)
	}
	oracle, want := firstSeen(cols, all)
	var sel []int32 // every third row
	for i := 0; i < in.n; i += 3 {
		sel = append(sel, int32(i))
	}
	selOracle, selWant := firstSeen(cols, sel)
	var hashGids, hashSelGids []int32
	for _, lay := range in.layouts(k) {
		t.Run(lay.name, func(t *testing.T) {
			// Batches of 512 rows from a tiny hint, so grows land
			// mid-batch and between batches.
			tab := lay.mk()
			gids := make([]int32, in.n)
			assignAll := func() {
				for o := 0; o < in.n; o += 512 {
					end := min(o+512, in.n)
					batch := make([][]int64, k)
					for c := range cols {
						batch[c] = cols[c][o:end]
					}
					if ng := tab.Assign(batch, nil, gids[o:end]); int(ng) != tab.Len() {
						t.Fatalf("Assign returned %d groups, Len = %d", ng, tab.Len())
					}
					if hashGids != nil && !slices.Equal(gids[o:end], hashGids[o:end]) {
						t.Fatalf("batch at row %d: gids differ from the hash layout's", o)
					}
				}
				for i := range want {
					if gids[i] != want[i] {
						t.Fatalf("row %d: Assign gid %d, want %d", i, gids[i], want[i])
					}
				}
				if tab.Len() != len(oracle) {
					t.Fatalf("Len = %d, want %d", tab.Len(), len(oracle))
				}
			}
			assignAll()
			assignAll() // every tuple found again, none re-inserted
			if lay.dense != tab.Dense() || lay.converts && tab.Dense() {
				t.Fatalf("Dense() = %v after the input, want %v", tab.Dense(), lay.dense)
			}
			for tup, g := range oracle {
				for c := 0; c < k; c++ {
					if tab.Key(c)[g] != tup[c] {
						t.Fatalf("Key(%d)[%d] = %d, want %d", c, g, tab.Key(c)[g], tup[c])
					}
				}
			}
			if lay.name == "hash" {
				hashGids = slices.Clone(gids)
			}
			absent, one := make([][]int64, k), []int32{-1}
			for c := range absent {
				absent[c] = []int64{in.lo - 7} // out of any layout's domain
			}
			if ng := tab.Assign(absent, nil, one); int(ng) != len(oracle)+1 || int(one[0]) != len(oracle) {
				t.Fatalf("unseen tuple: gid %d of %d groups, want the next id %d", one[0], ng, len(oracle))
			}
			if tab.Dense() {
				t.Fatal("an out-of-domain key left the table direct-address")
			}
			for tup, g := range oracle { // the conversion kept every gid
				if got := tab.Assign(keyTuple(tup, k), nil, one); got != int32(len(oracle)+1) || one[0] != g {
					t.Fatalf("after the conversion: tuple %v gid %d, want %d", tup[:k], one[0], g)
				}
			}

			// Every third row selected: first-seen ids over those
			// rows only, and no other row's gid written.
			selected := lay.mk()
			for i := range gids {
				gids[i] = -1
			}
			if ng := selected.Assign(cols, sel, gids); int(ng) != len(selOracle) {
				t.Fatalf("selected Assign: %d groups, want %d", ng, len(selOracle))
			}
			for i := range gids {
				switch {
				case i%3 != 0 && gids[i] != -1:
					t.Fatalf("row %d not selected but gid %d written", i, gids[i])
				case i%3 == 0 && gids[i] != selWant[i/3]:
					t.Fatalf("row %d: selected Assign gid %d, want %d", i, gids[i], selWant[i/3])
				}
			}
			if lay.name == "hash" {
				hashSelGids = slices.Clone(gids)
			} else if !slices.Equal(gids, hashSelGids) {
				t.Fatal("selected Assign: gids differ from the hash layout's")
			}
			if lay.dense != selected.Dense() {
				t.Fatalf("selected: Dense() = %v, want %v", selected.Dense(), lay.dense)
			}
		})
	}
}

// keyTuple is one k-wide tuple as Assign's one-row key columns.
func keyTuple(tup [4]int64, k int) [][]int64 {
	cols := make([][]int64, k)
	for c := range cols {
		cols[c] = []int64{tup[c]}
	}
	return cols
}

// A domain the direct-address layout cannot take — empty, reaching the
// nil sentinel, whose slot would alias a value's, or spanning every
// other int64 — gets the hash layout, which groups NULL apart from
// every value.
func TestDenseGroupTableRefusesUnsafeDomains(t *testing.T) {
	for _, d := range []Domain{{Lo: 5, Hi: 4}, {Lo: bat.NilInt, Hi: bat.NilInt + 3}, {Lo: bat.NilInt + 1, Hi: math.MaxInt64}} {
		tab := NewDenseGroupTable(d, 4)
		if tab.Dense() {
			t.Fatalf("domain %+v: direct-address layout", d)
		}
		gids := make([]int32, 3)
		if ng := tab.Assign([][]int64{{bat.NilInt, bat.NilInt + 1, bat.NilInt}}, nil, gids); ng != 2 || !slices.Equal(gids, []int32{0, 1, 0}) {
			t.Fatalf("domain %+v: %d groups, gids %v", d, ng, gids)
		}
	}
}

// The partitioner's contract with the tables built per partition: keys
// spread over all 1<<bits partitions whichever bits they vary in (low,
// middle, or only above bit 40), and inside one partition the hash bits
// the table slots on still take every value — routing on the slot bits
// themselves would leave each partition one value.
func TestPartitionOfSpreadsAndLeavesSlotBits(t *testing.T) {
	const bits, n = 5, 8000
	for _, shift := range []uint{0, 20, 36, 40, 50} {
		var count [1 << bits]int
		var slotBits [1 << bits]map[uint64]bool
		for i := int64(0); i < n; i++ {
			h := HashFold(Hash(i<<shift), 3)
			pi := PartitionOf(h, bits)
			if slotBits[pi] == nil {
				slotBits[pi] = map[uint64]bool{}
			}
			count[pi]++
			slotBits[pi][h>>(64-bits)] = true
		}
		for pi, c := range count {
			if mean := n >> bits; c < mean/2 || c > 2*mean {
				t.Errorf("keys<<%d: partition %d holds %d of %d keys (mean %d)", shift, pi, c, n, mean)
			}
			if len(slotBits[pi]) < 1<<bits {
				t.Errorf("keys<<%d: partition %d sees %d of %d slot-bit values", shift, pi, len(slotBits[pi]), 1<<bits)
			}
		}
	}
	if PartitionOf(Hash(12345), 0) != 0 {
		t.Error("0 bits must route everything to partition 0")
	}
}

// The ledger must never be charged less than the table holds: MemBytes
// covers the slot array at its real (padded) slot size — or the
// direct-address slots — plus every key column's capacity, before and
// after a grow, and after a direct-address table converted to hash.
func TestGroupTableMemBytesCoversAllocation(t *testing.T) {
	check := func(name string, tab *GroupTable, k int) {
		allocated := int64(len(tab.slots))*int64(unsafe.Sizeof(tab.slots[0])) +
			int64(len(tab.dense))*int64(unsafe.Sizeof(tab.dense[0]))
		for c := 0; c < k; c++ {
			allocated += int64(cap(tab.Key(c))) * int64(unsafe.Sizeof(int64(0)))
		}
		if got := tab.MemBytes(); got < allocated {
			t.Errorf("%s: MemBytes = %d < %d bytes allocated", name, got, allocated)
		}
	}
	for _, k := range []int{1, 2, 4} {
		tab := NewGroupTable(k, 4)
		check(fmt.Sprintf("K=%d fresh", k), tab, k)
		nslots := len(tab.slots)
		cols, gid := make([][]int64, k), make([]int32, 1)
		for i := 0; len(tab.slots) == nslots; i++ {
			for c := range cols {
				cols[c] = []int64{int64(i)}
			}
			tab.Assign(cols, nil, gid)
		}
		check(fmt.Sprintf("K=%d after grow", k), tab, k)
	}
	tab := NewDenseGroupTable(Domain{Lo: -100, Hi: 899}, 10)
	check("dense fresh", tab, 1)
	keys := make([]int64, 1000)
	for i := range keys {
		keys[i] = int64(i) - 100
	}
	keys[500] = bat.NilInt
	tab.Assign([][]int64{keys}, nil, make([]int32, len(keys)))
	check("dense full", tab, 1)
	if !tab.Dense() || tab.Len() != 1000 {
		t.Fatalf("dense full: Dense() = %v, %d groups", tab.Dense(), tab.Len())
	}
	tab.Assign([][]int64{{900}}, nil, make([]int32, 1))
	check("dense converted", tab, 1)
}
