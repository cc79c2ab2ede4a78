package batalg

import (
	"math"
	"sort"

	"repro/internal/bat"
	"repro/internal/radix"
)

// Grouping and aggregation. Group assigns each tuple a dense group id;
// aggregates then fold tail values per group in a single bulk pass — the
// operator-at-a-time materializing style whose intermediates the recycler
// (§6.1) can cache.
//
// The group-id assignment rides the shared open-addressing core
// (radix.GroupTable, at key width 1 or 2): Fibonacci hashing, flat
// power-of-two slots, no per-key allocations — the same hash-table
// discipline the joins took for the build side, applied to grouping. A
// nil key (bat.NilInt) is a legal group key: SQL GROUP BY collects all
// NULLs into one group.

// GroupResult is the output of Group/GroupCand.
type GroupResult struct {
	// IDs maps each input position to its dense group id (tail: oid).
	IDs *bat.BAT
	// Extents holds, per group id, the head OID of the first tuple of the
	// group (a representative, used to fetch group-by key values).
	Extents *bat.BAT
	// Counts holds, per group id, the group cardinality.
	Counts *bat.BAT
	// NGroups is the number of distinct groups.
	NGroups int
}

// groupHint sizes the grouping table's initial capacity: assume up to
// n distinct keys but never pre-size beyond 1<<16 slots' worth — the
// table grows by rehashing if the guess is low, and a cache-resident
// start wins for the common low-cardinality grouping.
func groupHint(n int) int {
	if n > 1<<15 {
		return 1 << 15
	}
	return n
}

// Group computes dense group ids over an int tail: one bulk pass over
// the open-addressing table assigns the ids, a second sequential pass
// derives extents and counts.
func Group(b *bat.BAT) GroupResult {
	return groupInts(b.HSeq(), b.Ints())
}

// GroupFloat computes dense group ids over a float tail by grouping the
// values' bit patterns: -0 groups with 0, and every NaN — the float nil
// — is one key, so all NULLs form one group per SQL.
func GroupFloat(b *bat.BAT) GroupResult {
	fs := b.Floats()
	keys := make([]int64, len(fs))
	for i, f := range fs {
		switch {
		case bat.IsNilFloat(f):
			keys[i] = bat.NilInt
		case f != 0:
			keys[i] = int64(math.Float64bits(f))
		}
	}
	return groupInts(b.HSeq(), keys)
}

// groupInts groups rows by the tuple of the given equal-length int
// columns. The first occurrence of gid g is its extent — ids are handed
// out in first-seen order.
func groupInts(hseq bat.OID, cols ...[]int64) GroupResult {
	n := len(cols[0])
	gids := make([]int32, n)
	ng := int(radix.NewGroupTable(len(cols), groupHint(n)).Assign(cols, nil, gids))
	ids := make([]bat.OID, n)
	extents := make([]bat.OID, ng)
	counts := make([]int64, ng)
	for i, g := range gids {
		if counts[g] == 0 {
			extents[g] = hseq + bat.OID(i)
		}
		counts[g]++
		ids[i] = bat.OID(g)
	}
	return GroupResult{
		IDs:     bat.FromOIDs(ids),
		Extents: bat.FromOIDs(extents),
		Counts:  bat.FromInts(counts),
		NGroups: ng,
	}
}

// strSlot is one slot of the string grouping table: the full 64-bit key
// hash, a representative row (for the equality check on hash ties), and
// the dense group id.
type strSlot struct {
	hash uint64
	rep  int32
	gid  int32 // +1; 0 = empty
}

// strHash is FNV-1a — allocation-free, good low-and-high-bit mixing for
// the Fibonacci slotting below.
func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// GroupStr computes dense group ids over a string tail, open-addressed
// on the string hash with a representative-row equality check — no
// per-key map buckets, no string re-allocation.
func GroupStr(b *bat.BAT) GroupResult {
	n := b.Len()
	ids := make([]bat.OID, n)
	var extents []bat.OID
	var counts []int64
	nslots := 8
	for nslots < 2*groupHint(n) {
		nslots <<= 1
	}
	shift := uint(64)
	for s := nslots; s > 1; s >>= 1 {
		shift--
	}
	slots := make([]strSlot, nslots)
	hseq := b.HSeq()
	for i := 0; i < n; i++ {
		v := b.StrAt(i)
		h := strHash(v)
	probe:
		for {
			mask := uint64(len(slots) - 1)
			s := (h * 0x9E3779B97F4A7C15) >> shift
			for {
				sl := &slots[s]
				if sl.gid == 0 {
					break
				}
				if sl.hash == h && b.StrAt(int(sl.rep)) == v {
					g := sl.gid - 1
					ids[i] = bat.OID(g)
					counts[g]++
					break probe
				}
				s = (s + 1) & mask
			}
			if 2*(len(extents)+1) > len(slots) {
				old := slots
				slots = make([]strSlot, 2*len(old))
				shift--
				m := uint64(len(slots) - 1)
				for _, sl := range old {
					if sl.gid == 0 {
						continue
					}
					ns := (sl.hash * 0x9E3779B97F4A7C15) >> shift
					for slots[ns].gid != 0 {
						ns = (ns + 1) & m
					}
					slots[ns] = sl
				}
				continue
			}
			g := int32(len(extents))
			slots[s] = strSlot{hash: h, rep: int32(i), gid: g + 1}
			extents = append(extents, hseq+bat.OID(i))
			counts = append(counts, 0)
			ids[i] = bat.OID(g)
			counts[g]++
			break
		}
	}
	return GroupResult{
		IDs:     bat.FromOIDs(ids),
		Extents: bat.FromOIDs(extents),
		Counts:  bat.FromInts(counts),
		NGroups: len(extents),
	}
}

// SubGroup refines an existing grouping by an additional int column: tuples
// stay in the same refined group only if they agree on both the old group
// and the new column. This is how multi-column GROUP BY chains: the
// composite (previous gid, value) key is a 2-wide tuple of the same
// grouping table.
func SubGroup(prev GroupResult, b *bat.BAT) GroupResult {
	prevIDs := prev.IDs.OIDs()
	prevCol := make([]int64, len(prevIDs))
	for i, id := range prevIDs {
		prevCol[i] = int64(id)
	}
	return groupInts(b.HSeq(), prevCol, b.Ints())
}

// Sum folds an int tail to its total. Nil values are skipped.
func Sum(b *bat.BAT) int64 {
	s, _ := SumCount(b)
	return s
}

// SumCount folds an int tail to its total and the number of non-nil
// values folded, in one pass — SQL SUM needs the count to distinguish a
// real zero total from "no values" (NULL).
func SumCount(b *bat.BAT) (int64, int64) {
	var s, n int64
	for _, v := range b.Ints() {
		if v != bat.NilInt {
			s += v
			n++
		}
	}
	return s, n
}

// SumFloatCount is SumCount for float tails (NaN = nil).
func SumFloatCount(b *bat.BAT) (float64, int64) {
	var s float64
	var n int64
	for _, v := range b.Floats() {
		if !bat.IsNilFloat(v) {
			s += v
			n++
		}
	}
	return s, n
}

// Count returns the number of tuples, nil or not (SQL count(*)).
func Count(b *bat.BAT) int64 { return int64(b.Len()) }

// CountNonNil returns the number of non-nil tuples — SQL count(col).
// The nil representations are bat.NilInt for int tails, NaN for float
// tails (produced by IntToFloat/DivFloatNil over nil inputs), and
// bat.NilStr for string tails; other tail types count fully.
func CountNonNil(b *bat.BAT) int64 {
	var n int64
	switch {
	case b.TailType() == bat.TypeInt && !b.Props().NoNil:
		for _, v := range b.Ints() {
			if v != bat.NilInt {
				n++
			}
		}
	case b.TailType() == bat.TypeFloat:
		for _, v := range b.Floats() {
			if !bat.IsNilFloat(v) {
				n++
			}
		}
	case b.TailType() == bat.TypeStr && !b.Props().NoNil:
		for i, ln := 0, b.Len(); i < ln; i++ {
			if !bat.IsNilStr(b.StrAt(i)) {
				n++
			}
		}
	default:
		n = int64(b.Len())
	}
	return n
}

// Min returns the minimum int tail value; ok is false on an empty/all-nil BAT.
func Min(b *bat.BAT) (int64, bool) {
	first := true
	var m int64
	for _, v := range b.Ints() {
		if v == bat.NilInt {
			continue
		}
		if first || v < m {
			m = v
			first = false
		}
	}
	return m, !first
}

// Max returns the maximum int tail value; ok is false on an empty/all-nil BAT.
func Max(b *bat.BAT) (int64, bool) {
	first := true
	var m int64
	for _, v := range b.Ints() {
		if v == bat.NilInt {
			continue
		}
		if first || v > m {
			m = v
			first = false
		}
	}
	return m, !first
}

// SumPerGroup folds an int tail per group id; the result is aligned with
// group ids 0..n-1. A group with no non-nil contribution sums to nil,
// not 0 (SQL).
func SumPerGroup(vals *bat.BAT, g GroupResult) *bat.BAT {
	out := make([]int64, g.NGroups)
	seen := make([]bool, g.NGroups)
	ids := g.IDs.OIDs()
	tail := vals.Ints()
	for i, v := range tail {
		if v != bat.NilInt {
			out[ids[i]] += v
			seen[ids[i]] = true
		}
	}
	for gid, ok := range seen {
		if !ok {
			out[gid] = bat.NilInt
		}
	}
	return bat.FromInts(out)
}

// SumFloatPerGroup folds a float tail per group id, skipping NaN (the
// float nil stand-in). A group with no non-nil contribution sums to
// NaN, not 0.
func SumFloatPerGroup(vals *bat.BAT, g GroupResult) *bat.BAT {
	out := make([]float64, g.NGroups)
	seen := make([]bool, g.NGroups)
	ids := g.IDs.OIDs()
	tail := vals.Floats()
	for i, v := range tail {
		if !bat.IsNilFloat(v) {
			out[ids[i]] += v
			seen[ids[i]] = true
		}
	}
	for gid, ok := range seen {
		if !ok {
			out[gid] = math.NaN()
		}
	}
	return bat.FromFloats(out)
}

// MinPerGroup folds minimum per group; an all-nil group yields nil.
func MinPerGroup(vals *bat.BAT, g GroupResult) *bat.BAT {
	out := make([]int64, g.NGroups)
	seen := make([]bool, g.NGroups)
	ids := g.IDs.OIDs()
	for i, v := range vals.Ints() {
		if v == bat.NilInt {
			continue
		}
		gid := ids[i]
		if !seen[gid] || v < out[gid] {
			out[gid] = v
			seen[gid] = true
		}
	}
	for gid, ok := range seen {
		if !ok {
			out[gid] = bat.NilInt
		}
	}
	return bat.FromInts(out)
}

// MaxPerGroup folds maximum per group; an all-nil group yields nil.
func MaxPerGroup(vals *bat.BAT, g GroupResult) *bat.BAT {
	out := make([]int64, g.NGroups)
	seen := make([]bool, g.NGroups)
	ids := g.IDs.OIDs()
	for i, v := range vals.Ints() {
		if v == bat.NilInt {
			continue
		}
		gid := ids[i]
		if !seen[gid] || v > out[gid] {
			out[gid] = v
			seen[gid] = true
		}
	}
	for gid, ok := range seen {
		if !ok {
			out[gid] = bat.NilInt
		}
	}
	return bat.FromInts(out)
}

// MinFloat returns the minimum non-nil float tail value; ok is false on
// an empty or all-nil BAT. NaN (the float nil) is skipped.
func MinFloat(b *bat.BAT) (float64, bool) {
	first := true
	var m float64
	for _, v := range b.Floats() {
		if bat.IsNilFloat(v) {
			continue
		}
		if first || v < m {
			m = v
			first = false
		}
	}
	return m, !first
}

// MaxFloat returns the maximum non-nil float tail value; ok is false on
// an empty or all-nil BAT.
func MaxFloat(b *bat.BAT) (float64, bool) {
	first := true
	var m float64
	for _, v := range b.Floats() {
		if bat.IsNilFloat(v) {
			continue
		}
		if first || v > m {
			m = v
			first = false
		}
	}
	return m, !first
}

// MinFloatPerGroup folds the float minimum per group, skipping NaN; an
// all-nil group yields the float nil.
func MinFloatPerGroup(vals *bat.BAT, g GroupResult) *bat.BAT {
	out := make([]float64, g.NGroups)
	seen := make([]bool, g.NGroups)
	ids := g.IDs.OIDs()
	for i, v := range vals.Floats() {
		if bat.IsNilFloat(v) {
			continue
		}
		gid := ids[i]
		if !seen[gid] || v < out[gid] {
			out[gid] = v
			seen[gid] = true
		}
	}
	for gid, ok := range seen {
		if !ok {
			out[gid] = math.NaN()
		}
	}
	return bat.FromFloats(out)
}

// MaxFloatPerGroup folds the float maximum per group, skipping NaN; an
// all-nil group yields the float nil.
func MaxFloatPerGroup(vals *bat.BAT, g GroupResult) *bat.BAT {
	out := make([]float64, g.NGroups)
	seen := make([]bool, g.NGroups)
	ids := g.IDs.OIDs()
	for i, v := range vals.Floats() {
		if bat.IsNilFloat(v) {
			continue
		}
		gid := ids[i]
		if !seen[gid] || v > out[gid] {
			out[gid] = v
			seen[gid] = true
		}
	}
	for gid, ok := range seen {
		if !ok {
			out[gid] = math.NaN()
		}
	}
	return bat.FromFloats(out)
}

// CountPerGroup returns per-group cardinalities (a copy of g.Counts).
func CountPerGroup(g GroupResult) *bat.BAT { return g.Counts.Copy() }

// CountNonNilPerGroup counts the non-nil values of vals per group — the
// denominator of a grouped AVG and SQL's grouped count(col). Nil is
// bat.NilInt for int tails, NaN for float tails; other tail types
// degenerate to the group sizes.
func CountNonNilPerGroup(vals *bat.BAT, g GroupResult) *bat.BAT {
	out := make([]int64, g.NGroups)
	ids := g.IDs.OIDs()
	switch {
	case vals.TailType() == bat.TypeInt && !vals.Props().NoNil:
		for i, v := range vals.Ints() {
			if v != bat.NilInt {
				out[ids[i]]++
			}
		}
	case vals.TailType() == bat.TypeFloat:
		for i, v := range vals.Floats() {
			if !bat.IsNilFloat(v) {
				out[ids[i]]++
			}
		}
	case vals.TailType() == bat.TypeStr && !vals.Props().NoNil:
		for i := range ids {
			if !bat.IsNilStr(vals.StrAt(i)) {
				out[ids[i]]++
			}
		}
	default:
		for _, id := range ids {
			out[id]++
		}
	}
	return bat.FromInts(out)
}

// Unique returns a candidate list naming the first occurrence of each
// distinct int tail value, in head order.
func Unique(b *bat.BAT) *bat.BAT {
	tail := b.Ints()
	gids := make([]int32, len(tail))
	radix.NewGroupTable(1, groupHint(len(tail))).Assign([][]int64{tail}, nil, gids)
	out := make([]bat.OID, 0)
	for i, g := range gids {
		if int(g) == len(out) { // first sight of this key
			out = append(out, b.HSeq()+bat.OID(i))
		}
	}
	return candList(out)
}

// Sort returns (sorted values, order) where order is a candidate list such
// that LeftFetchJoin(order, b) yields the sorted values. The order BAT is
// the handle other columns are aligned with (ORDER BY on one column drags
// the projection columns along positionally).
func Sort(b *bat.BAT) (*bat.BAT, *bat.BAT) {
	n := b.Len()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	switch b.TailType() {
	case bat.TypeInt:
		tail := b.Ints()
		sort.SliceStable(perm, func(i, j int) bool { return tail[perm[i]] < tail[perm[j]] })
	case bat.TypeFloat:
		tail := b.Floats()
		// NaN is the float nil stand-in; < is false both ways for it, so
		// order NULLs explicitly first — matching int tails, where nil
		// (NilInt = MinInt64) also sorts first.
		sort.SliceStable(perm, func(i, j int) bool {
			x, y := tail[perm[i]], tail[perm[j]]
			if bat.IsNilFloat(x) {
				return !bat.IsNilFloat(y)
			}
			return x < y
		})
	case bat.TypeStr:
		// The one-byte NUL sentinel (bat.NilStr) is the string nil; order
		// NULLs explicitly first to match int tails, where nil (MinInt64)
		// sorts first naturally — byte order would put it after "".
		sort.SliceStable(perm, func(i, j int) bool {
			x, y := b.StrAt(perm[i]), b.StrAt(perm[j])
			if bat.IsNilStr(x) {
				return !bat.IsNilStr(y)
			}
			if bat.IsNilStr(y) {
				return false
			}
			return x < y
		})
	case bat.TypeOID:
		tail := b.OIDs()
		sort.SliceStable(perm, func(i, j int) bool { return tail[perm[i]] < tail[perm[j]] })
	case bat.TypeVoid:
		// already sorted
	}
	order := make([]bat.OID, n)
	for i, p := range perm {
		order[i] = b.HSeq() + bat.OID(p)
	}
	orderBAT := bat.FromOIDs(order)
	sorted := LeftFetchJoin(orderBAT, b)
	p := sorted.Props()
	p.Sorted = true
	sorted.SetProps(p)
	return sorted, orderBAT
}

// SortDesc is Sort with descending order.
func SortDesc(b *bat.BAT) (*bat.BAT, *bat.BAT) {
	sorted, order := Sort(b)
	n := sorted.Len()
	ro := make([]bat.OID, n)
	ord := order.OIDs()
	for i := range ro {
		ro[i] = ord[n-1-i]
	}
	orderBAT := bat.FromOIDs(ro)
	rs := LeftFetchJoin(orderBAT, b)
	p := rs.Props()
	p.RevSorted = true
	rs.SetProps(p)
	return rs, orderBAT
}

// Head returns the first k entries of a candidate list (LIMIT).
func Head(cand *bat.BAT, k int) *bat.BAT {
	if k > cand.Len() {
		k = cand.Len()
	}
	return cand.Slice(0, k)
}
