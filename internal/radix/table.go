package radix

import (
	"repro/internal/bat"
)

// Table is the one open-addressing join hash table of the engine: every
// int64 equi-join — the BAT algebra's hash join, each cluster of the
// radix-clustered partitioned join of Figure 2, and the vectorized
// engine's JoinBuild — builds into this layout. It maps int64 keys to
// chains of int32 row ids with linear probing over a power-of-two slot
// array. Hashing is the Fibonacci multiplicative hash of Hash; slots are
// taken from the *high* bits (the well-mixed end of a multiplicative
// hash), which keeps the layout usable unchanged inside radix clusters:
// cluster-local keys share their low hash bits, but their high bits stay
// well distributed.
//
// Key and chain head share one 16-byte slot, so every probe step costs a
// single cache line, not one per array; heads and links are stored +1 so
// the zero-initialized allocation is already "all empty" (no init pass).
// Duplicate keys share one slot: the head holds the most recent row and
// next[row] links to the previous row with the same key (0 ends the
// chain), so iteration is LIFO in insertion order. A probe for a unique
// key resolves within one or two adjacent cache lines, and absent keys
// terminate at the first empty slot. Load factor stays <= ½. A table
// records whether any key repeated: where none did (Unique), every
// chain is one row long and a probe need not walk it.
//
// NULL semantics: a bat.NilInt key marks a missing value and never
// matches anything, not even another nil (SQL three-valued logic).
// A build drops nil keys and First reports no match for them, so every
// join path that builds on Table inherits the rule for free.
type Table struct {
	slots []tslot
	next  []int32 // row id -> previous row with same key, +1; 0 = end
	shift uint    // 64 - log2(len(slots)); Fibonacci slot = hash >> shift
	n     int     // rows inserted (nil keys excluded)
	dup   bool    // some non-nil key was inserted twice
}

type tslot struct {
	key  int64
	head int32 // head row id + 1; 0 = empty slot
}

// nilKey is the never-matching missing-value key.
const nilKey = bat.NilInt

// newTable returns a table pre-sized for n rows at load factor <= ½;
// TableBytes is what it allocates.
func newTable(n int) *Table {
	nslots := 8
	for nslots < 2*n {
		nslots <<= 1
	}
	shift := uint(64)
	for s := nslots; s > 1; s >>= 1 {
		shift--
	}
	return &Table{
		slots: make([]tslot, nslots),
		next:  make([]int32, 0, n),
		shift: shift,
	}
}

// BuildTable builds a table over keys, with row id i for keys[i]. The
// table is pre-sized, so no insert checks capacity or grows the chain
// array, and the zeroed chain array already encodes "end of chain".
// The table never partitions itself: whether a join radix-clusters is
// decided above it (ShouldCluster in memory, grace partitioning out of
// core).
func BuildTable(keys []int64) *Table {
	t := newTable(len(keys))
	t.next = t.next[:len(keys)]
	mask := uint64(len(t.slots) - 1)
	for i, k := range keys {
		t.insert(int32(i), k, mask)
	}
	return t
}

// buildFromTuples is BuildTable over the Val field of tuples, with
// cluster-local row ids — the per-cluster build of the partitioned
// join.
func buildFromTuples(l []Tuple) *Table {
	t := newTable(len(l))
	t.next = t.next[:len(l)]
	mask := uint64(len(t.slots) - 1)
	for i := range l {
		t.insert(int32(i), l[i].Val, mask)
	}
	return t
}

// insert is the pre-sized insert of BuildTable and buildFromTuples: no
// capacity check, no chain-array growth (next is already sized, and its
// zero value is "end of chain").
func (t *Table) insert(i int32, k int64, mask uint64) {
	if k == nilKey {
		return
	}
	s := Hash(k) >> t.shift
	for {
		h := t.slots[s].head
		if h == 0 {
			t.slots[s] = tslot{key: k, head: i + 1}
			t.n++
			return
		}
		if t.slots[s].key == k {
			t.next[i] = h
			t.slots[s].head = i + 1
			t.n++
			t.dup = true
			return
		}
		s = (s + 1) & mask
	}
}

// Len returns the number of rows inserted (nil keys are dropped and do
// not count).
func (t *Table) Len() int { return t.n }

// Unique reports whether no non-nil key repeated: each First is then
// the key's only row, and Next of it ends the chain.
func (t *Table) Unique() bool { return !t.dup }

// First returns the head row id of key's chain, or -1 if absent. A nil
// key is never present.
func (t *Table) First(key int64) int32 {
	if key == nilKey {
		return -1
	}
	s := Hash(key) >> t.shift
	mask := uint64(len(t.slots) - 1)
	for {
		h := t.slots[s].head
		if h == 0 {
			return -1
		}
		if t.slots[s].key == key {
			return h - 1
		}
		s = (s + 1) & mask
	}
}

// Next returns the row after row in its key chain, or -1 at the end.
func (t *Table) Next(row int32) int32 { return t.next[row] - 1 }
