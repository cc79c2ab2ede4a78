package radix

import (
	"math/bits"
	"unsafe"

	"repro/internal/bat"
)

// GroupTable is the one grouping table of the engine: it maps K-wide
// int64 key tuples to DENSE group ids (0,1,2,... in first-seen order)
// with the same cache-conscious layout discipline as the join Table —
// Fibonacci hashing on the high (well-mixed) bits of the multiplicative
// hash, power-of-two flat slots, linear probing, load factor <= ½, no
// per-key allocations. It is the hash table behind batalg.Group /
// SubGroup / Unique, the vectorized engine's grouped Agg at every key
// width, and the per-worker partial tables of parallel grouped
// aggregation.
//
// A slot holds (tuple hash, gid+1) in 16 bytes whatever K is; the key
// tuples live COLUMN-major in K dense arrays indexed by gid — the shape
// grouped output is emitted in, so Key(c) is handed off without a copy.
// One layout serves every width because the hash recipe is a chain of
// bijections: Hash multiplies by an odd constant, and every HashFold
// step (xor one key word in, multiply again) is a bijection of the
// running hash for a fixed word. Two tuples with the same 64-bit hash
// that agree on words 1..K-1 therefore agree on word 0 as well. At K=1
// the stored hash IS the key — a found probe is hash, one slot load,
// one compare, one store, and never touches the key arrays; at K>=2
// the key columns are read only on a full 64-bit hash match, and only
// columns 1..K-1.
//
// Unlike the join Table, a nil key (bat.NilInt) is a LEGAL key value in
// every position: SQL GROUP BY collects all NULLs into one group
// (grouping is "is not distinct from", not "="). The dense ids double
// as indexes into whatever per-group accumulators the caller folds.
//
// A single key whose values are known to lie in a Domain [lo, hi] takes
// the table's second layout (NewDenseGroupTable): the key is its own
// slot, dense[key-lo] holding gid+1, with one more slot for NULL — a
// subtract, an unsigned compare and a load per row, no hash, no probe,
// no regrowth. Keys, ids and their order are the hash layout's, so both
// layouts emit the same groups in the same order for the same input. A
// key outside the domain, which the caller's bound rules out, converts
// the table in place to the hash layout, keeping every gid.
type GroupTable struct {
	slots []gslot
	shift uint      // 64 - log2(len(slots)); slot = hash >> shift
	keys  [][]int64 // keys[c][gid]: key column c, first-seen order

	// dense is the direct-address layout (nil: the hash layout):
	// dense[k-lo] is key k's gid+1, 0 while unseen; the last slot is
	// NULL's.
	dense []int32
	lo    int64
}

// Domain is the value range [Lo, Hi] of a single INT key, NULL aside.
type Domain struct{ Lo, Hi int64 }

// Slots is the direct-address slots the domain takes: one per value
// and one for NULL.
func (d Domain) Slots() uint64 { return uint64(d.Hi-d.Lo) + 2 }

type gslot struct {
	hash uint64
	gid  int32 // group id + 1; 0 = empty slot
}

// HashFold folds one more key word into a running tuple hash, keeping
// the high (slot) bits sensitive to every bit of every word. A K-wide
// tuple hashes as HashFold(...HashFold(Hash(k0), k1)..., kK-1); the
// grace-hash partitioner routes rows with the same recipe.
func HashFold(h uint64, k int64) uint64 { return Hash(int64(h) ^ k) }

// PartitionOf routes a key or tuple hash to one of 1<<bits partitions.
// GroupTable and the join Table built over a partition slot on the TOP
// bits of that same hash, so routing on those would pile each
// partition's keys into 1/2^bits of its table; a fixed lower window
// would miss keys that differ only above it (a multiplicative hash
// carries key bits upward, never down). One more multiplication and
// THEN the top bits reads every bit of h, and within a partition the
// slot bits of h stay spread over the whole table.
func PartitionOf(h uint64, bits int) int { return int(Hash(int64(h)) >> (64 - uint(bits))) }

// NewGroupTable returns a table over k-wide tuples pre-sized for `hint`
// distinct groups at load factor <= ½. The table grows by rehashing
// past the hint, so the hint is a performance knob, not a cap.
func NewGroupTable(k, hint int) *GroupTable {
	hint = max(hint, 4)
	keys := make([][]int64, k)
	for c := range keys {
		keys[c] = make([]int64, 0, hint)
	}
	t := &GroupTable{keys: keys}
	t.sizeSlots(hint)
	return t
}

// sizeSlots gives t an empty hash slot array for hint groups at load
// factor <= ½.
func (t *GroupTable) sizeSlots(hint int) {
	nslots := 8
	for nslots < 2*hint {
		nslots <<= 1
	}
	t.slots = make([]gslot, nslots)
	t.shift = 64 - uint(bits.TrailingZeros(uint(nslots)))
}

// NewDenseGroupTable returns a single-key table in the direct-address
// layout over domain d, its key column pre-sized for hint groups (at
// most d.Slots()). A domain that is empty or reaches the nil sentinel
// gets the hash layout: a NULL key must never alias a value's slot. So
// does one spanning every other int64, whose slot count wraps to 0.
func NewDenseGroupTable(d Domain, hint int) *GroupTable {
	n := d.Slots()
	if d.Hi < d.Lo || d.Lo == bat.NilInt || n == 0 {
		return NewGroupTable(1, hint)
	}
	hint = int(min(uint64(max(hint, 1)), n))
	return &GroupTable{keys: [][]int64{make([]int64, 0, hint)}, dense: make([]int32, n), lo: d.Lo}
}

// Dense reports whether the table is in the direct-address layout.
func (t *GroupTable) Dense() bool { return t.dense != nil }

// Len returns the number of distinct groups seen.
func (t *GroupTable) Len() int { return len(t.keys[0]) }

// Key returns key column c indexed by dense gid, in first-seen order.
// The slice aliases the table's storage: read-only, valid until the
// next insert.
func (t *GroupTable) Key(c int) []int64 { return t.keys[c] }

// MemBytes returns the table's live heap footprint — the slot array
// (hash slots, or direct-address slots) plus every dense key column —
// for the query memory governor's ledger.
func (t *GroupTable) MemBytes() int64 {
	n := int64(len(t.slots))*int64(unsafe.Sizeof(gslot{})) + int64(len(t.dense))*4
	for _, ks := range t.keys {
		n += int64(cap(ks)) * 8
	}
	return n
}

// Assign maps each qualifying row of the key columns to its dense group
// id, assigning the next free id on first sight; ids are written into
// gids (full-length, indexed by row) and the total group count so far
// is returned. cols holds the table's K key columns, all of the batch's
// length. The slot slice, mask and shift are hoisted out of the loop
// (re-read only after an insert), so the found path — the
// overwhelmingly common one at any realistic cardinality — stays in
// registers; `shift & 63` at the use lets the compiler emit a bare
// shift instead of guarding against counts >= 64.
func (t *GroupTable) Assign(cols [][]int64, sel []int32, gids []int32) int32 {
	if len(cols) == 1 {
		if t.dense != nil {
			t.assignDense(cols[0], sel, gids)
		} else {
			t.assign1(cols[0], sel, gids)
		}
		return int32(t.Len())
	}
	k0, rest := cols[0], cols[1:]
	n := len(k0)
	if sel != nil {
		n = len(sel)
	}
	slots := t.slots
	mask := uint64(len(slots) - 1)
	shift := t.shift
	restKeys := t.keys[1:]
	for j := 0; j < n; j++ {
		i := j
		if sel != nil {
			i = int(sel[j])
		}
		h := Hash(k0[i])
		for _, col := range rest {
			h = HashFold(h, col[i])
		}
		s := h >> (shift & 63)
	probe:
		for {
			sl := &slots[s]
			g := sl.gid
			if g == 0 {
				gids[i] = t.insert(h)
				for c, col := range cols {
					t.keys[c] = append(t.keys[c], col[i])
				}
				slots, mask, shift = t.slots, uint64(len(t.slots)-1), t.shift
				break
			}
			if sl.hash == h {
				for c, col := range rest {
					if restKeys[c][g-1] != col[i] {
						s = (s + 1) & mask
						continue probe
					}
				}
				gids[i] = g - 1
				break
			}
			s = (s + 1) & mask
		}
	}
	return int32(t.Len())
}

// assign1 is Assign at K=1 — the loops every single-key GROUP BY and
// every partial-aggregate merge spend their time in. The stored hash is
// the key, so the found path is hash, one slot load, one compare, one
// store. The loop without a selection vector is the hottest in the
// engine and spells its probe out: sharing find1 with the loop below
// costs it a second test of the gid per row (5-9 % measured).
func (t *GroupTable) assign1(keys []int64, sel []int32, gids []int32) {
	slots := t.slots
	mask := uint64(len(slots) - 1)
	shift := t.shift
	if sel != nil {
		for _, i := range sel {
			h := Hash(keys[i])
			g := find1(slots, mask, h>>(shift&63), h)
			if g == 0 {
				g = t.insert(h) + 1
				t.keys[0] = append(t.keys[0], keys[i])
				slots, mask, shift = t.slots, uint64(len(t.slots)-1), t.shift
			}
			gids[i] = g - 1
		}
		return
	}
	for i, k := range keys {
		h := Hash(k)
		s := h >> (shift & 63)
		for {
			sl := &slots[s]
			g := sl.gid
			if g != 0 {
				if sl.hash == h {
					gids[i] = g - 1
					break
				}
				s = (s + 1) & mask
				continue
			}
			gids[i] = t.insert(h)
			t.keys[0] = append(t.keys[0], k)
			slots, mask, shift = t.slots, uint64(len(t.slots)-1), t.shift
			break
		}
	}
}

// assignDense is Assign in the direct-address layout. A key k takes
// slot k-lo, which in uint64 arithmetic is below the value slots' count
// exactly when lo <= k <= hi; NULL (below every lo the constructor
// accepts) and an out-of-domain key both fail that one compare, and
// only then is the key told apart. An out-of-domain key converts the
// table to the hash layout, which assigns the rest of the batch.
func (t *GroupTable) assignDense(keys []int64, sel []int32, gids []int32) {
	dense, lo := t.dense, uint64(t.lo)
	span := uint64(len(dense) - 1) // the value slots; NULL's is dense[span]
	if sel != nil {
		for j, i := range sel {
			k := keys[i]
			d := uint64(k) - lo
			if d >= span {
				if k != bat.NilInt {
					t.toHash()
					t.assign1(keys, sel[j:], gids)
					return
				}
				d = span
			}
			g := dense[d]
			if g == 0 {
				g = t.insertDense(d, k)
			}
			gids[i] = g - 1
		}
		return
	}
	for i, k := range keys {
		d := uint64(k) - lo
		if d >= span {
			if k != bat.NilInt {
				t.toHash()
				t.assign1(keys[i:], nil, gids[i:])
				return
			}
			d = span
		}
		g := dense[d]
		if g == 0 {
			g = t.insertDense(d, k)
		}
		gids[i] = g - 1
	}
}

// insertDense gives key k, unseen at direct-address slot d, the next
// gid and returns gid+1.
func (t *GroupTable) insertDense(d uint64, k int64) int32 {
	g := int32(t.Len()) + 1
	t.dense[d] = g
	t.keys[0] = append(t.keys[0], k)
	return g
}

// toHash converts a direct-address table in place to the hash layout:
// the keys are re-inserted in gid order, so every gid handed out stays
// valid, and the key column is kept as it is.
func (t *GroupTable) toHash() {
	t.sizeSlots(max(t.Len(), 4))
	t.dense = nil
	mask := uint64(len(t.slots) - 1)
	for gid, k := range t.keys[0] {
		hk := Hash(k)
		s := hk >> t.shift
		for t.slots[s].gid != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = gslot{hash: hk, gid: int32(gid) + 1}
	}
}

// find1 walks hash h's probe sequence from slot s and returns the gid+1
// stored with it, or 0 at the empty slot that ends the sequence.
func find1(slots []gslot, mask, s, h uint64) int32 {
	for {
		sl := &slots[s]
		if g := sl.gid; g == 0 || sl.hash == h {
			return g
		}
		s = (s + 1) & mask
	}
}

// insert claims the slot for the absent tuple hash h, doubling the
// table first when the load would pass ½, and returns the new gid. It
// probes afresh rather than take the caller's empty slot: a slot index
// kept live across this call would be spilled on every row of the bulk
// loops' found path. The caller appends the key words next, and
// re-reads slots and shift, which a grow replaces.
func (t *GroupTable) insert(h uint64) int32 {
	if 2*(t.Len()+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	s := h >> t.shift
	for t.slots[s].gid != 0 {
		s = (s + 1) & mask
	}
	gid := int32(t.Len())
	t.slots[s] = gslot{hash: h, gid: gid + 1}
	return gid
}

func (t *GroupTable) grow() {
	old := t.slots
	t.slots = make([]gslot, 2*len(old))
	t.shift--
	mask := uint64(len(t.slots) - 1)
	for _, sl := range old {
		if sl.gid == 0 {
			continue
		}
		s := sl.hash >> t.shift
		for t.slots[s].gid != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = sl
	}
}
