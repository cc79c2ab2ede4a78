package radix

// StrTable is the open-addressing hash table for string keys — the
// string-join counterpart of Table. Strings are rare in inner loops
// (MonetDB routes them through hash heaps), but the join index over
// them should still not be a Go map: the map's per-bucket pointer
// chasing and random iteration are exactly what the int64 paths were
// rebuilt to avoid, and hotpathmap bans maps from this package.
//
// Layout mirrors Table: one slot array probed linearly, chain heads
// stored +1 so the zeroed allocation is "all empty", duplicate keys
// sharing one slot with next[row] linking rows LIFO. Each slot caches
// the key's full 64-bit hash so a probe rejects a colliding slot on an
// 8-byte compare instead of a string compare; the string itself is
// only compared when the hashes match.
type StrTable struct {
	slots []stslot
	next  []int32 // row id -> previous row with same key, +1; 0 = end
	shift uint    // 64 - log2(len(slots)); slot = hash >> shift
	n     int
}

type stslot struct {
	key  string
	hash uint64
	head int32 // head row id + 1; 0 = empty slot
}

// HashStr hashes s with FNV-1a 64, finished with the Fibonacci
// multiplier so the high bits — the ones the shift keeps — are well
// mixed even for short keys, matching Table's slot derivation.
func HashStr(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h * 0x9E3779B97F4A7C15
}

// BuildStrTable builds a table over keys, with row id i for keys[i] —
// the bulk path JoinStr uses. The table is pre-sized for load factor
// <= ½ and the chain array's zero value already encodes "end of
// chain", so the loop is growth-free.
func BuildStrTable(keys []string) *StrTable {
	nslots := 8
	for nslots < 2*len(keys) {
		nslots <<= 1
	}
	shift := uint(64)
	for s := nslots; s > 1; s >>= 1 {
		shift--
	}
	t := &StrTable{
		slots: make([]stslot, nslots),
		next:  make([]int32, len(keys)),
		shift: shift,
	}
	mask := uint64(nslots - 1)
	for i, k := range keys {
		h := HashStr(k)
		s := h >> t.shift
		for {
			hd := t.slots[s].head
			if hd == 0 {
				t.slots[s] = stslot{key: k, hash: h, head: int32(i) + 1}
				t.n++
				break
			}
			if t.slots[s].hash == h && t.slots[s].key == k {
				t.next[i] = hd
				t.slots[s].head = int32(i) + 1
				t.n++
				break
			}
			s = (s + 1) & mask
		}
	}
	return t
}

// Len returns the number of rows inserted.
func (t *StrTable) Len() int { return t.n }

// First returns the head row id of key's chain, or -1 if absent.
func (t *StrTable) First(key string) int32 {
	h := HashStr(key)
	s := h >> t.shift
	mask := uint64(len(t.slots) - 1)
	for {
		hd := t.slots[s].head
		if hd == 0 {
			return -1
		}
		if t.slots[s].hash == h && t.slots[s].key == key {
			return hd - 1
		}
		s = (s + 1) & mask
	}
}

// Next returns the row after row in its key chain, or -1 at the end.
func (t *StrTable) Next(row int32) int32 { return t.next[row] - 1 }

// ForEach calls f for every row id matching key, most recent first.
func (t *StrTable) ForEach(key string, f func(row int32)) {
	for r := t.First(key); r >= 0; r = t.Next(r) {
		f(r)
	}
}
