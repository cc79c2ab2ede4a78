// Package batalg implements the BAT Algebra: the zero-degree-of-freedom
// bulk relational operators at the heart of MonetDB (paper §3). Each
// operator performs one simple operation on entire columns in a tight loop,
// with no expression interpreter in the inner loop. Complex expressions are
// broken by the front-ends into sequences of these operators.
//
// Conventions (mirroring MonetDB):
//   - Selections return a candidate list: a BAT[:oid] of head OIDs of the
//     qualifying tuples, sorted ascending.
//   - Joins return two aligned BAT[:oid] (left OIDs, right OIDs).
//   - Projection is LeftFetchJoin(candidates, column): positional fetches.
package batalg

import (
	"fmt"

	"repro/internal/bat"
)

// Select returns the head OIDs of tuples whose int tail equals v. This is
// the literal R := select(B, V) example from §3 of the paper; the loop body
// is the paper's C fragment transcribed to Go.
func Select(b *bat.BAT, v int64) *bat.BAT {
	// Sorted tails admit binary search: the algorithm choice the MAL
	// interpreter makes from tail properties (§3.1).
	if b.Props().Sorted && b.TailType() == bat.TypeInt {
		return selectSortedEq(b, v)
	}
	tail := b.Ints()
	// Point equality is usually highly selective (often a key lookup):
	// start small and grow, instead of selCap's 1/8-of-input estimate —
	// recyclable candidate lists would otherwise retain the oversized
	// backing array across queries.
	out := make([]bat.OID, 0, 64)
	hseq := b.HSeq()
	for i, x := range tail {
		if x == v {
			out = append(out, hseq+bat.OID(i))
		}
	}
	return candList(out)
}

// selCap estimates a candidate-list capacity from the input size: 1/8
// selectivity plus slack, so typical selections do one allocation
// instead of log2(hits) grow-and-copy rounds from a fixed tiny cap.
func selCap(b *bat.BAT) int { return b.Len()/8 + 16 }

func selectSortedEq(b *bat.BAT, v int64) *bat.BAT {
	lo, ok := b.FindSorted(v)
	if !ok {
		return candList(nil)
	}
	tail := b.Ints()
	hi := lo
	for hi < len(tail) && tail[hi] == v {
		hi++
	}
	out := make([]bat.OID, hi-lo)
	for i := range out {
		out[i] = b.HSeq() + bat.OID(lo+i)
	}
	return candList(out)
}

// RangeSelect returns head OIDs of tuples with lo <= tail <= hi (bounds
// included per flag). Nil bounds are expressed with bat.NilInt (= unbounded
// low) and math.MaxInt64 handling is the caller's concern.
func RangeSelect(b *bat.BAT, lo, hi int64, loIncl, hiIncl bool) *bat.BAT {
	tail := b.Ints()
	hseq := b.HSeq()
	out := make([]bat.OID, 0, selCap(b))
	if b.Props().NoNil {
		// Nil-free tails (the common case, tracked by the property
		// system of §3.1) skip the per-tuple nil test entirely.
		for i, x := range tail {
			if x > lo || (loIncl && x == lo) {
				if x < hi || (hiIncl && x == hi) {
					out = append(out, hseq+bat.OID(i))
				}
			}
		}
		return candList(out)
	}
	for i, x := range tail {
		if x == bat.NilInt {
			continue
		}
		if x > lo || (loIncl && x == lo) {
			if x < hi || (hiIncl && x == hi) {
				out = append(out, hseq+bat.OID(i))
			}
		}
	}
	return candList(out)
}

// CmpOp is a comparison operator code for ThetaSelect.
type CmpOp uint8

// Comparison operator codes.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

// String returns the SQL spelling of the operator.
func (c CmpOp) String() string {
	switch c {
	case CmpEQ:
		return "="
	case CmpNE:
		return "<>"
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	}
	return "?"
}

// ThetaSelect returns head OIDs of int tuples satisfying (tail op v).
func ThetaSelect(b *bat.BAT, op CmpOp, v int64) *bat.BAT {
	tail := b.Ints()
	hseq := b.HSeq()
	out := make([]bat.OID, 0, selCap(b))
	noNil := b.Props().NoNil
	switch op {
	case CmpEQ:
		return Select(b, v)
	case CmpNE:
		if noNil {
			for i, x := range tail {
				if x != v {
					out = append(out, hseq+bat.OID(i))
				}
			}
			break
		}
		for i, x := range tail {
			if x != v && x != bat.NilInt {
				out = append(out, hseq+bat.OID(i))
			}
		}
	case CmpLT:
		if noNil {
			for i, x := range tail {
				if x < v {
					out = append(out, hseq+bat.OID(i))
				}
			}
			break
		}
		for i, x := range tail {
			if x < v && x != bat.NilInt {
				out = append(out, hseq+bat.OID(i))
			}
		}
	case CmpLE:
		if noNil {
			for i, x := range tail {
				if x <= v {
					out = append(out, hseq+bat.OID(i))
				}
			}
			break
		}
		for i, x := range tail {
			if x <= v && x != bat.NilInt {
				out = append(out, hseq+bat.OID(i))
			}
		}
	case CmpGT:
		for i, x := range tail {
			if x > v {
				out = append(out, hseq+bat.OID(i))
			}
		}
	case CmpGE:
		for i, x := range tail {
			if x >= v {
				out = append(out, hseq+bat.OID(i))
			}
		}
	}
	return candList(out)
}

// ThetaSelectFloat is ThetaSelect for float tails.
func ThetaSelectFloat(b *bat.BAT, op CmpOp, v float64) *bat.BAT {
	tail := b.Floats()
	hseq := b.HSeq()
	out := make([]bat.OID, 0, selCap(b))
	for i, x := range tail {
		keep := false
		switch op {
		case CmpEQ:
			keep = x == v
		case CmpNE:
			// NaN is the float nil; x != v would keep it, but NULL <> v
			// is unknown, not true. The other comparisons exclude NaN
			// naturally (IEEE 754 orders nothing against it).
			keep = x != v && !bat.IsNilFloat(x)
		case CmpLT:
			keep = x < v
		case CmpLE:
			keep = x <= v
		case CmpGT:
			keep = x > v
		case CmpGE:
			keep = x >= v
		}
		if keep {
			out = append(out, hseq+bat.OID(i))
		}
	}
	return candList(out)
}

// SelectStr returns head OIDs of tuples whose string tail op-compares to
// v. The string nil (bat.NilStr) never qualifies: every comparison with
// NULL is unknown, including <> — mirroring the int/float selects.
func SelectStr(b *bat.BAT, op CmpOp, v string) *bat.BAT {
	n := b.Len()
	hseq := b.HSeq()
	out := make([]bat.OID, 0, selCap(b))
	noNil := b.Props().NoNil
	for i := 0; i < n; i++ {
		x := b.StrAt(i)
		if !noNil && bat.IsNilStr(x) {
			continue
		}
		keep := false
		switch op {
		case CmpEQ:
			keep = x == v
		case CmpNE:
			keep = x != v
		case CmpLT:
			keep = x < v
		case CmpLE:
			keep = x <= v
		case CmpGT:
			keep = x > v
		case CmpGE:
			keep = x >= v
		}
		if keep {
			out = append(out, hseq+bat.OID(i))
		}
	}
	return candList(out)
}

// SelectNil returns head OIDs of tuples whose tail is the stored nil
// sentinel (bat.NilInt for ints, the canonical NaN for floats, the
// one-byte bat.NilStr for strings). Candidate tails have no stored nil,
// so the selection is empty — which is exactly SQL's answer for IS NULL
// over a column that cannot hold one.
func SelectNil(b *bat.BAT) *bat.BAT {
	hseq := b.HSeq()
	var out []bat.OID
	switch b.TailType() {
	case bat.TypeInt:
		if b.Props().NoNil {
			break // property says no nils: empty without touching the tail
		}
		for i, x := range b.Ints() {
			if x == bat.NilInt {
				out = append(out, hseq+bat.OID(i))
			}
		}
	case bat.TypeFloat:
		if b.Props().NoNil {
			break
		}
		for i, x := range b.Floats() {
			if bat.IsNilFloat(x) {
				out = append(out, hseq+bat.OID(i))
			}
		}
	case bat.TypeStr:
		if b.Props().NoNil {
			break
		}
		for i, n := 0, b.Len(); i < n; i++ {
			if bat.IsNilStr(b.StrAt(i)) {
				out = append(out, hseq+bat.OID(i))
			}
		}
	}
	return candList(out)
}

// SelectNotNil returns head OIDs of tuples whose tail is NOT nil — the
// complement of SelectNil over the same tail-type rules (tail types
// without a stored nil qualify whole).
func SelectNotNil(b *bat.BAT) *bat.BAT {
	n := b.Len()
	hseq := b.HSeq()
	out := make([]bat.OID, 0, n)
	switch b.TailType() {
	case bat.TypeInt:
		if !b.Props().NoNil {
			for i, x := range b.Ints() {
				if x != bat.NilInt {
					out = append(out, hseq+bat.OID(i))
				}
			}
			return candList(out)
		}
	case bat.TypeFloat:
		if !b.Props().NoNil {
			for i, x := range b.Floats() {
				if !bat.IsNilFloat(x) {
					out = append(out, hseq+bat.OID(i))
				}
			}
			return candList(out)
		}
	case bat.TypeStr:
		if !b.Props().NoNil {
			for i := 0; i < n; i++ {
				if !bat.IsNilStr(b.StrAt(i)) {
					out = append(out, hseq+bat.OID(i))
				}
			}
			return candList(out)
		}
	}
	for i := 0; i < n; i++ {
		out = append(out, hseq+bat.OID(i))
	}
	return candList(out)
}

// SelectCand re-selects within a candidate list: it returns the subset of
// cand whose corresponding int tail value in b satisfies (op v). This is how
// conjunctive WHERE clauses chain without re-touching disqualified tuples.
func SelectCand(b *bat.BAT, cand *bat.BAT, op CmpOp, v int64) *bat.BAT {
	tail := b.Ints()
	hseq := b.HSeq()
	out := make([]bat.OID, 0, selCap(cand)) // output is bounded by the candidates
	n := cand.Len()
	for i := 0; i < n; i++ {
		o := cand.OIDAt(i)
		x := tail[o-hseq]
		keep := false
		switch op {
		case CmpEQ:
			keep = x == v
		case CmpNE:
			keep = x != v && x != bat.NilInt
		case CmpLT:
			keep = x < v && x != bat.NilInt
		case CmpLE:
			keep = x <= v && x != bat.NilInt
		case CmpGT:
			keep = x > v
		case CmpGE:
			keep = x >= v
		}
		if keep {
			out = append(out, o)
		}
	}
	return candList(out)
}

// candList wraps a sorted OID slice as a candidate BAT with key property.
func candList(oids []bat.OID) *bat.BAT {
	b := bat.FromOIDs(oids)
	b.SetProps(bat.Props{Sorted: true, RevSorted: len(oids) <= 1, Key: true, NoNil: true})
	return b
}

// Mirror returns a void→void identity view over b's head: a candidate list
// naming every tuple.
func Mirror(b *bat.BAT) *bat.BAT {
	return bat.NewVoid(b.HSeq(), b.Len())
}

// Diff returns the candidate OIDs of a (sorted candidate list) that do not
// appear in b (also a sorted candidate list): an anti-semijoin on head OIDs.
func Diff(a, b *bat.BAT) *bat.BAT {
	out := make([]bat.OID, 0, a.Len())
	i, j := 0, 0
	for i < a.Len() {
		av := a.OIDAt(i)
		for j < b.Len() && b.OIDAt(j) < av {
			j++
		}
		if j >= b.Len() || b.OIDAt(j) != av {
			out = append(out, av)
		}
		i++
	}
	return candList(out)
}

// Intersect returns the OIDs present in both sorted candidate lists.
func Intersect(a, b *bat.BAT) *bat.BAT {
	out := make([]bat.OID, 0)
	i, j := 0, 0
	for i < a.Len() && j < b.Len() {
		av, bv := a.OIDAt(i), b.OIDAt(j)
		switch {
		case av == bv:
			out = append(out, av)
			i++
			j++
		case av < bv:
			i++
		default:
			j++
		}
	}
	return candList(out)
}

// Union merges two sorted candidate lists, dropping duplicates.
func Union(a, b *bat.BAT) *bat.BAT {
	out := make([]bat.OID, 0, a.Len()+b.Len())
	i, j := 0, 0
	for i < a.Len() || j < b.Len() {
		switch {
		case i >= a.Len():
			out = append(out, b.OIDAt(j))
			j++
		case j >= b.Len():
			out = append(out, a.OIDAt(i))
			i++
		default:
			av, bv := a.OIDAt(i), b.OIDAt(j)
			switch {
			case av == bv:
				out = append(out, av)
				i++
				j++
			case av < bv:
				out = append(out, av)
				i++
			default:
				out = append(out, bv)
				j++
			}
		}
	}
	return candList(out)
}

// LeftFetchJoin projects: for each OID in cand it fetches the tail value of
// col at that position. This is the positional O(1) lookup that virtual
// (void) heads make possible (paper §3) and the second phase of the
// join-index + column-projection strategy (§4.3).
func LeftFetchJoin(cand *bat.BAT, col *bat.BAT) *bat.BAT {
	n := cand.Len()
	hseq := col.HSeq()
	switch col.TailType() {
	case bat.TypeInt:
		tail := col.Ints()
		out := make([]int64, n)
		for i := 0; i < n; i++ {
			out[i] = tail[cand.OIDAt(i)-hseq]
		}
		r := bat.FromInts(out)
		if cand.Props().Sorted && col.Props().Sorted {
			p := r.Props()
			p.Sorted = true
			r.SetProps(p)
		}
		return r
	case bat.TypeFloat:
		tail := col.Floats()
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			out[i] = tail[cand.OIDAt(i)-hseq]
		}
		return bat.FromFloats(out)
	case bat.TypeBool:
		tail := col.Bools()
		out := make([]bool, n)
		for i := 0; i < n; i++ {
			out[i] = tail[cand.OIDAt(i)-hseq]
		}
		return bat.FromBools(out)
	case bat.TypeStr:
		out := bat.New(bat.TypeStr)
		for i := 0; i < n; i++ {
			out.AppendStr(col.StrAt(int(cand.OIDAt(i) - hseq)))
		}
		return out
	case bat.TypeOID:
		tail := col.OIDs()
		out := make([]bat.OID, n)
		for i := 0; i < n; i++ {
			out[i] = tail[cand.OIDAt(i)-hseq]
		}
		return bat.FromOIDs(out)
	case bat.TypeVoid:
		out := make([]bat.OID, n)
		for i := 0; i < n; i++ {
			out[i] = col.TSeq() + (cand.OIDAt(i) - hseq)
		}
		return bat.FromOIDs(out)
	}
	panic(fmt.Sprintf("batalg: LeftFetchJoin on %s tail", col.TailType()))
}
