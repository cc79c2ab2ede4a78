package radix

import (
	"repro/internal/bat"
)

// Table is the one open-addressing join hash table of the engine: every
// equi-join — the BAT algebra's hash/semi/anti joins, the radix-clustered
// partitioned join of Figure 2, and the vectorized engine's JoinBuild —
// builds into this layout. It maps int64 keys to chains of int32 row ids
// with linear probing over a power-of-two slot array. Hashing is the
// Fibonacci multiplicative hash of Hash; slots are taken from the *high*
// bits (the well-mixed end of a multiplicative hash), which keeps the
// layout usable unchanged inside radix clusters: cluster-local keys share
// their low hash bits, but their high bits stay well distributed.
//
// Key and chain head share one 16-byte slot, so every probe step costs a
// single cache line, not one per array; heads and links are stored +1 so
// the zero-initialized allocation is already "all empty" (no init pass).
// Duplicate keys share one slot: the head holds the most recent row and
// next[row] links to the previous row with the same key (0 ends the
// chain), so iteration is LIFO in insertion order. A probe for a unique
// key resolves within one or two adjacent cache lines, and absent keys
// terminate at the first empty slot. Load factor stays <= ½.
//
// NULL semantics: a bat.NilInt key marks a missing value and never
// matches anything, not even another nil (SQL three-valued logic).
// Insert drops nil keys and First/ForEach report no matches for them, so
// every join path that builds on Table inherits the rule for free.
type Table struct {
	slots []tslot
	next  []int32 // row id -> previous row with same key, +1; 0 = end
	shift uint    // 64 - log2(len(slots)); Fibonacci slot = hash >> shift
	n     int     // rows inserted (nil keys excluded)
}

type tslot struct {
	key  int64
	head int32 // head row id + 1; 0 = empty slot
}

// nilKey is the never-matching missing-value key.
const nilKey = bat.NilInt

// NewTable returns a table pre-sized for n rows at load factor <= ½.
func NewTable(n int) *Table {
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

// BuildTable builds a table over keys, with row id i for keys[i]. It is
// the bulk fast path: the table is pre-sized, so the per-Insert capacity
// check and chain-array growth are hoisted out of the loop, and the
// zeroed chain array already encodes "end of chain".
func BuildTable(keys []int64) *Table {
	t := NewTable(len(keys))
	t.next = t.next[:len(keys)]
	mask := uint64(len(t.slots) - 1)
	for i, k := range keys {
		t.bulkInsert(int32(i), k, mask)
	}
	return t
}

// buildFromTuples is BuildTable over the Val field of tuples, with
// cluster-local row ids — the per-cluster build of the partitioned
// paths.
func buildFromTuples(l []Tuple) *Table {
	t := NewTable(len(l))
	t.next = t.next[:len(l)]
	mask := uint64(len(t.slots) - 1)
	for i := range l {
		t.bulkInsert(int32(i), l[i].Val, mask)
	}
	return t
}

// bulkInsert is the pre-sized insert shared by the bulk builders: no
// capacity check, no chain-array growth (next is already sized, and its
// zero value is "end of chain"). Small enough for the compiler to
// inline into the build loops.
func (t *Table) bulkInsert(i int32, k int64, mask uint64) {
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
			return
		}
		s = (s + 1) & mask
	}
}

// Len returns the number of rows inserted (nil keys are dropped and do
// not count).
func (t *Table) Len() int { return t.n }

// Insert adds (key, row). Rows must be inserted with ids 0,1,2,... (the
// chain array grows densely); inserting beyond the pre-sized capacity
// grows the slot array by rehashing. Nil keys are dropped: they can
// never match, so storing them would only lengthen probes.
func (t *Table) Insert(key int64, row int32) {
	if key == nilKey {
		return
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	for int(row) >= len(t.next) {
		t.next = append(t.next, 0)
	}
	s := Hash(key) >> t.shift
	mask := uint64(len(t.slots) - 1)
	for {
		h := t.slots[s].head
		if h == 0 {
			t.slots[s] = tslot{key: key, head: row + 1}
			t.next[row] = 0
			t.n++
			return
		}
		if t.slots[s].key == key {
			t.next[row] = h
			t.slots[s].head = row + 1
			t.n++
			return
		}
		s = (s + 1) & mask
	}
}

func (t *Table) grow() {
	old := t.slots
	t.slots = make([]tslot, 2*len(old))
	t.shift--
	mask := uint64(len(t.slots) - 1)
	for _, sl := range old {
		if sl.head == 0 {
			continue
		}
		s := Hash(sl.key) >> t.shift
		for t.slots[s].head != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = sl
	}
}

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

// ForEach calls f for every row id matching key.
func (t *Table) ForEach(key int64, f func(row int32)) {
	for r := t.First(key); r >= 0; r = t.Next(r) {
		f(r)
	}
}

// --- radix-partitioned build ---

// PartitionRows is the build-side size (in rows) beyond which
// NewJoinTable switches to a radix-partitioned table: past ~2^18 rows
// the flat table's slot array leaves the L2 cache and every probe
// becomes a TLB and cache miss, which is exactly the regime §4.2's
// multi-pass radix-cluster fixes.
const PartitionRows = 1 << 18

// partitionCacheBytes is the cache budget one partition's table should
// fit in (half of it, per JoinBits).
const partitionCacheBytes = 1 << 21

// PartitionedTable is a radix-partitioned Table: build rows are
// radix-clustered on the low bits of their key hash (reusing Cluster /
// SplitBits), then one small Table is built per cluster over
// cluster-local positions. Each probe touches exactly one cache-sized
// cluster.
type PartitionedTable struct {
	clustered Clustered
	tables    []*Table
	mask      uint64 // low-bit mask selecting the cluster
}

// BuildPartitionedTable radix-clusters (row, key) pairs on `bits` low
// hash bits in two passes and builds a per-cluster table. Row id i
// corresponds to keys[i].
func BuildPartitionedTable(keys []int64, bits int) *PartitionedTable {
	tuples := make([]Tuple, len(keys))
	for i, k := range keys {
		// The OID carries the build row id through the shuffle.
		tuples[i] = Tuple{OID: bat.OID(i), Val: k}
	}
	// Serial clustering on purpose: join builds run on the caller's
	// thread with no worker-count knob in this signature, and spawning
	// GOMAXPROCS goroutines here would bypass an embedder's Workers
	// setting.
	c := Cluster(tuples, SplitBits(bits, 2))
	p := &PartitionedTable{
		clustered: c,
		tables:    make([]*Table, c.NumClusters()),
		mask:      uint64(1<<c.Bits) - 1,
	}
	for i := 0; i < c.NumClusters(); i++ {
		cl := c.ClusterSlice(i)
		if len(cl) == 0 {
			continue
		}
		p.tables[i] = buildFromTuples(cl)
	}
	return p
}

// ForEach calls f with the global build row id of every match for key.
func (p *PartitionedTable) ForEach(key int64, f func(row int32)) {
	if key == nilKey {
		return
	}
	ci := int(Hash(key) & p.mask)
	t := p.tables[ci]
	if t == nil {
		return
	}
	cl := p.clustered.ClusterSlice(ci)
	for r := t.First(key); r >= 0; r = t.Next(r) {
		f(int32(cl[r].OID))
	}
}

// JoinTable is the build side of a hash join over the shared core: a
// flat Table for cache-resident builds, automatically radix-partitioned
// past PartitionRows rows. It is read-only once built and safe to share
// across concurrent probe pipelines.
type JoinTable struct {
	ht *Table
	pt *PartitionedTable
}

// NewJoinTable builds the join table over keys (row id i = keys[i]),
// picking the flat or partitioned layout by build size.
func NewJoinTable(keys []int64) *JoinTable {
	if len(keys) >= PartitionRows {
		return &JoinTable{pt: BuildPartitionedTable(keys, JoinBits(len(keys), partitionCacheBytes))}
	}
	return &JoinTable{ht: BuildTable(keys)}
}

// Partitioned reports whether the build took the radix-partitioned path.
func (jt *JoinTable) Partitioned() bool { return jt.pt != nil }

// Flat returns the underlying flat Table, or nil when the build was
// radix-partitioned. Hot probe loops use it to iterate First/Next
// inline instead of paying a closure call per match.
func (jt *JoinTable) Flat() *Table { return jt.ht }

// ForEach calls f with each build row id matching key.
func (jt *JoinTable) ForEach(key int64, f func(row int32)) {
	if jt.pt != nil {
		jt.pt.ForEach(key, f)
		return
	}
	jt.ht.ForEach(key, f)
}
