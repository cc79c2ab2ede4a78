package radix

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/bat"
)

// groupInput is one seeded workload for the table-vs-map property: n
// rows of k-wide tuples, each word drawn from [0,domain) (a small
// domain forces probe collisions and repeated groups, a large one
// forces several grows from the tiny hint) with bat.NilInt substituted
// every nilEvery-th draw, in every column.
type groupInput struct {
	name     string
	n        int
	domain   int64
	nilEvery int
}

var groupInputs = []groupInput{
	// The int16-ish nil-laden keys of the old single-key suite.
	{"narrow-nils", 3000, 64, 5},
	// The old pair suite: 50x40 pairs over 20000 rows, one half nil a
	// tenth of the time.
	{"pairs", 20000, 50, 10},
	// Mostly distinct tuples: the table doubles ~10 times from hint 4.
	{"wide-growth", 6000, 1 << 40, 0},
	// Two values and nil per word: every tuple shares words with others.
	{"tiny-domain", 2000, 2, 3},
}

func (in groupInput) columns(k int, rng *rand.Rand) [][]int64 {
	cols := make([][]int64, k)
	for c := range cols {
		cols[c] = make([]int64, in.n)
		for i := range cols[c] {
			cols[c][i] = rng.Int63n(in.domain)
			if in.nilEvery > 0 && rng.Intn(in.nilEvery) == 0 {
				cols[c][i] = bat.NilInt
			}
		}
	}
	return cols
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

// Property: for K = 1..4 the table assigns exactly the dense first-seen
// ids a Go map keyed on the tuple would — NULL words group together —
// through Assign over whole batches and through Assign under a
// selection vector; Key(c) holds each group's tuple; a second pass finds
// every seen tuple again and an unseen one takes the next id.
func TestGroupTableMatchesMapOracle(t *testing.T) {
	for _, in := range groupInputs {
		for k := 1; k <= 4; k++ {
			t.Run(fmt.Sprintf("%s/K=%d", in.name, k), func(t *testing.T) {
				cols := in.columns(k, rand.New(rand.NewSource(int64(42+k))))
				all := make([]int32, in.n)
				for i := range all {
					all[i] = int32(i)
				}
				oracle, want := firstSeen(cols, all)

				// Batches of 512 rows from a tiny hint, so grows land
				// mid-batch and between batches.
				tab := NewGroupTable(k, 4)
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
				for tup, g := range oracle {
					for c := 0; c < k; c++ {
						if tab.Key(c)[g] != tup[c] {
							t.Fatalf("Key(%d)[%d] = %d, want %d", c, g, tab.Key(c)[g], tup[c])
						}
					}
				}
				absent, one := make([][]int64, k), []int32{-1}
				for c := range absent {
					absent[c] = []int64{-7}
				}
				if ng := tab.Assign(absent, nil, one); int(ng) != len(oracle)+1 || int(one[0]) != len(oracle) {
					t.Fatalf("unseen tuple: gid %d of %d groups, want the next id %d", one[0], ng, len(oracle))
				}

				// Every third row selected: first-seen ids over those
				// rows only, and no other row's gid written.
				var sel []int32
				for i := 0; i < in.n; i += 3 {
					sel = append(sel, int32(i))
				}
				selOracle, selWant := firstSeen(cols, sel)
				selected := NewGroupTable(k, 4)
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
			})
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
// covers the slot array at its real (padded) slot size plus every key
// column's capacity, before and after a grow.
func TestGroupTableMemBytesCoversAllocation(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		tab := NewGroupTable(k, 4)
		check := func(when string) {
			allocated := int64(len(tab.slots)) * int64(unsafe.Sizeof(tab.slots[0]))
			for c := 0; c < k; c++ {
				allocated += int64(cap(tab.Key(c))) * int64(unsafe.Sizeof(int64(0)))
			}
			if got := tab.MemBytes(); got < allocated {
				t.Errorf("K=%d %s: MemBytes = %d < %d bytes allocated", k, when, got, allocated)
			}
		}
		check("fresh")
		nslots := len(tab.slots)
		cols, gid := make([][]int64, k), make([]int32, 1)
		for i := 0; len(tab.slots) == nslots; i++ {
			for c := range cols {
				cols[c] = []int64{int64(i)}
			}
			tab.Assign(cols, nil, gid)
		}
		check("after grow")
	}
}
