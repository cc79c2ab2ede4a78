// Package bat implements the Binary Association Table (BAT), the storage
// unit of the Decomposed Storage Model used by MonetDB (Copeland &
// Khoshafian's DSM, VLDB-2009 paper §3).
//
// A BAT is conceptually a two-column <head, tail> table. As in MonetDB, the
// head is virtually dense: it is not stored, only a sequence base (hseqbase)
// is kept, and head OIDs are hseqbase, hseqbase+1, ... This makes positional
// lookup an O(1) array read — the property experiment E1 measures against
// B-tree lookup into slotted pages.
//
// Tail columns are simple memory arrays. Variable-width types (strings) are
// split into an offset array and a byte heap holding the concatenated
// values, exactly as described in the paper.
package bat

import (
	"fmt"
	"math"
	"sort"
)

// OID is an object identifier: the (virtual) head value of a BAT.
type OID uint64

// NilOID marks a missing OID value.
const NilOID = OID(math.MaxUint64)

// NilInt marks a missing integer tail value.
const NilInt = int64(math.MinInt64)

// NilFloat returns the missing float tail value: the canonical quiet NaN
// (the bit pattern math.NaN() produces). MonetDB reserves a domain
// sentinel per type; for floats the natural reserved value is NaN, which
// no arithmetic result representable in SQL produces and which compares
// unequal to everything — three-valued logic for free.
func NilFloat() float64 { return math.NaN() }

// IsNilFloat reports whether f is the float nil. Any NaN counts: nil
// floats flow through arithmetic (where IEEE 754 propagates them with
// arbitrary payload bits), so the payload is not significant.
func IsNilFloat(f float64) bool { return f != f }

// NilStr is the missing string tail value: a single NUL byte. Real
// string values are NUL-free (the front-end rejects NUL-bearing text),
// so the sentinel is unforgeable — the same reserved-domain-value
// convention MonetDB uses for str nil.
const NilStr = "\x00"

// IsNilStr reports whether s is the string nil.
func IsNilStr(s string) bool { return s == NilStr }

// Type enumerates tail column types.
type Type uint8

// Tail column types. TypeVoid is a virtual dense sequence (no storage).
const (
	TypeVoid Type = iota
	TypeOID
	TypeInt
	TypeFloat
	TypeBool
	TypeStr
)

// String returns the MAL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeVoid:
		return "void"
	case TypeOID:
		return "oid"
	case TypeInt:
		return "int"
	case TypeFloat:
		return "flt"
	case TypeBool:
		return "bit"
	case TypeStr:
		return "str"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Props carries the tail-column properties the MAL interpreter maintains to
// gear algorithm selection (paper §3.1): sortedness, uniqueness, nil-freedom.
type Props struct {
	Sorted    bool // tail values are in non-decreasing order
	RevSorted bool // tail values are in non-increasing order
	Key       bool // tail values are unique
	NoNil     bool // no nil values present
}

// BAT is a Binary Association Table: a virtually dense head plus one typed
// tail column.
type BAT struct {
	name string
	ttyp Type
	hseq OID // head sequence base

	// Tail storage; exactly one of these is used, selected by ttyp.
	oids   []OID
	ints   []int64
	floats []float64
	bools  []bool
	offs   []uint32 // string offsets into heap; len(offs) == count
	heap   []byte   // concatenated string bytes; NUL appears only as the one-byte NilStr sentinel

	// tseq is the tail sequence base for TypeVoid tails.
	tseq OID

	voidN int // explicit length for TypeVoid tails

	props Props
}

// New returns an empty BAT with the given tail type.
func New(t Type) *BAT {
	return &BAT{ttyp: t, props: Props{Sorted: true, RevSorted: true, Key: true, NoNil: true}}
}

// NewVoid returns a BAT with a void (virtual dense) tail of n values
// starting at tseq. Both head and tail are virtual; it occupies O(1) space.
func NewVoid(tseq OID, n int) *BAT {
	return &BAT{
		ttyp:  TypeVoid,
		tseq:  tseq,
		voidN: n,
		props: Props{Sorted: true, RevSorted: n <= 1, Key: true, NoNil: true},
	}
}

// FromInts wraps (without copying) an int64 slice as a BAT tail.
func FromInts(v []int64) *BAT {
	b := New(TypeInt)
	b.ints = v
	b.recomputeIntProps()
	return b
}

// WrapInts wraps an int64 slice with conservative (all-unknown) tail
// properties, skipping FromInts' O(n) property scan. Intended for hot
// paths that rebuild transient BATs per batch (e.g. stream baskets).
func WrapInts(v []int64) *BAT {
	return &BAT{ttyp: TypeInt, ints: v}
}

// FromOIDs wraps (without copying) an OID slice as a BAT tail.
func FromOIDs(v []OID) *BAT {
	b := New(TypeOID)
	b.oids = v
	b.recomputeOIDProps()
	return b
}

// FromFloats wraps (without copying) a float64 slice as a BAT tail.
func FromFloats(v []float64) *BAT {
	b := New(TypeFloat)
	b.floats = v
	noNil := true
	for _, x := range v {
		if IsNilFloat(x) {
			noNil = false
			break
		}
	}
	b.props = Props{NoNil: noNil}
	return b
}

// FromBools wraps (without copying) a bool slice as a BAT tail.
func FromBools(v []bool) *BAT {
	b := New(TypeBool)
	b.bools = v
	b.props = Props{NoNil: true}
	return b
}

// FromStrings builds a string BAT, copying values into the offset/heap pair.
func FromStrings(v []string) *BAT {
	b := New(TypeStr)
	for _, s := range v {
		b.AppendStr(s)
	}
	return b
}

func (b *BAT) recomputeIntProps() {
	p := Props{Sorted: true, RevSorted: true, Key: true, NoNil: true}
	seen := len(b.ints) <= 1024
	var set map[int64]struct{}
	if seen {
		set = make(map[int64]struct{}, len(b.ints))
	}
	for i, x := range b.ints {
		if x == NilInt {
			p.NoNil = false
		}
		if i > 0 {
			if x < b.ints[i-1] {
				p.Sorted = false
			}
			if x > b.ints[i-1] {
				p.RevSorted = false
			}
		}
		if seen {
			if _, dup := set[x]; dup {
				p.Key = false
				seen = false
			} else {
				set[x] = struct{}{}
			}
		}
	}
	if !seen && len(b.ints) > 1024 {
		p.Key = false // unknown; be conservative
	}
	b.props = p
}

func (b *BAT) recomputeOIDProps() {
	p := Props{Sorted: true, RevSorted: true, Key: true, NoNil: true}
	for i, x := range b.oids {
		if x == NilOID {
			p.NoNil = false
		}
		if i > 0 {
			if x < b.oids[i-1] {
				p.Sorted = false
			}
			if x > b.oids[i-1] {
				p.RevSorted = false
			}
			if x == b.oids[i-1] {
				p.Key = false
			}
		}
	}
	if !p.Sorted && !p.RevSorted {
		p.Key = false // unknown; be conservative
	}
	b.props = p
}

// SetName attaches a catalog name (used by front-ends and the recycler).
func (b *BAT) SetName(n string) *BAT { b.name = n; return b }

// Name returns the catalog name, possibly empty.
func (b *BAT) Name() string { return b.name }

// TailType returns the tail column type.
func (b *BAT) TailType() Type { return b.ttyp }

// HSeq returns the head sequence base.
func (b *BAT) HSeq() OID { return b.hseq }

// SetHSeq sets the head sequence base.
func (b *BAT) SetHSeq(s OID) *BAT { b.hseq = s; return b }

// TSeq returns the tail sequence base (void tails only).
func (b *BAT) TSeq() OID { return b.tseq }

// Props returns the tail properties.
func (b *BAT) Props() Props { return b.props }

// SetProps overrides the tail properties (used by operators that know the
// properties of their output by construction).
func (b *BAT) SetProps(p Props) *BAT { b.props = p; return b }

// Len returns the number of tuples (BUNs) in the BAT.
func (b *BAT) Len() int {
	switch b.ttyp {
	case TypeVoid:
		return b.voidN
	case TypeOID:
		return len(b.oids)
	case TypeInt:
		return len(b.ints)
	case TypeFloat:
		return len(b.floats)
	case TypeBool:
		return len(b.bools)
	case TypeStr:
		return len(b.offs)
	}
	return 0
}

// Ints returns the int64 tail array. It panics if the tail is not int.
func (b *BAT) Ints() []int64 {
	if b.ttyp != TypeInt {
		panic("bat: Ints() on " + b.ttyp.String() + " tail")
	}
	return b.ints
}

// OIDs returns the OID tail array, materializing a void tail if necessary.
func (b *BAT) OIDs() []OID {
	switch b.ttyp {
	case TypeOID:
		return b.oids
	case TypeVoid:
		out := make([]OID, b.voidN)
		for i := range out {
			out[i] = b.tseq + OID(i)
		}
		return out
	}
	panic("bat: OIDs() on " + b.ttyp.String() + " tail")
}

// Floats returns the float64 tail array. It panics if the tail is not float.
func (b *BAT) Floats() []float64 {
	if b.ttyp != TypeFloat {
		panic("bat: Floats() on " + b.ttyp.String() + " tail")
	}
	return b.floats
}

// Bools returns the bool tail array. It panics if the tail is not bool.
func (b *BAT) Bools() []bool {
	if b.ttyp != TypeBool {
		panic("bat: Bools() on " + b.ttyp.String() + " tail")
	}
	return b.bools
}

// StrAt returns the string tail value at position i.
func (b *BAT) StrAt(i int) string {
	if b.ttyp != TypeStr {
		panic("bat: StrAt() on " + b.ttyp.String() + " tail")
	}
	start := b.offs[i]
	var end uint32
	if i+1 < len(b.offs) {
		end = b.offs[i+1]
	} else {
		end = uint32(len(b.heap))
	}
	return string(b.heap[start:end])
}

// OIDAt returns the OID tail value at position i, handling void tails.
func (b *BAT) OIDAt(i int) OID {
	if b.ttyp == TypeVoid {
		return b.tseq + OID(i)
	}
	return b.oids[i]
}

// IntAt returns the int tail value at position i.
func (b *BAT) IntAt(i int) int64 { return b.ints[i] }

// FloatAt returns the float tail value at position i.
func (b *BAT) FloatAt(i int) float64 { return b.floats[i] }

// Value returns the tail value at position i boxed as an interface value.
// Bulk operators never use this; it exists for front-end result rendering.
func (b *BAT) Value(i int) any {
	switch b.ttyp {
	case TypeVoid:
		return b.tseq + OID(i)
	case TypeOID:
		return b.oids[i]
	case TypeInt:
		return b.ints[i]
	case TypeFloat:
		return b.floats[i]
	case TypeBool:
		return b.bools[i]
	case TypeStr:
		return b.StrAt(i)
	}
	return nil
}

// AppendInt appends an int tail value, maintaining properties incrementally.
func (b *BAT) AppendInt(v int64) {
	n := len(b.ints)
	if n > 0 {
		last := b.ints[n-1]
		if v < last {
			b.props.Sorted = false
		}
		if v > last {
			b.props.RevSorted = false
		}
		if v == last {
			b.props.Key = false
		} else if !b.props.Sorted && !b.props.RevSorted {
			b.props.Key = false
		}
	}
	if v == NilInt {
		b.props.NoNil = false
	}
	b.ints = append(b.ints, v)
}

// AppendOID appends an OID tail value.
func (b *BAT) AppendOID(v OID) {
	n := len(b.oids)
	if n > 0 {
		last := b.oids[n-1]
		if v < last {
			b.props.Sorted = false
		}
		if v > last {
			b.props.RevSorted = false
		}
		if v == last {
			b.props.Key = false
		} else if !b.props.Sorted && !b.props.RevSorted {
			b.props.Key = false
		}
	}
	if v == NilOID {
		b.props.NoNil = false
	}
	b.oids = append(b.oids, v)
}

// AppendFloat appends a float tail value. NaN is the float nil (see
// NilFloat): it clears NoNil, and ordering/uniqueness flags degrade
// conservatively (nil sorts first, so a nil after real values breaks
// Sorted; two nils are duplicates).
func (b *BAT) AppendFloat(v float64) {
	n := len(b.floats)
	if IsNilFloat(v) {
		b.props.NoNil = false
		if n > 0 {
			b.props.Sorted = false
			b.props.Key = false
		}
	} else if n > 0 {
		last := b.floats[n-1]
		if IsNilFloat(last) {
			// A real value after nil keeps nil-first ascending order.
			b.props.RevSorted = false
		} else {
			if v < last {
				b.props.Sorted = false
			}
			if v > last {
				b.props.RevSorted = false
			}
			if v == last || (!b.props.Sorted && !b.props.RevSorted) {
				b.props.Key = false
			}
		}
	}
	b.floats = append(b.floats, v)
}

// AppendBool appends a bool tail value.
func (b *BAT) AppendBool(v bool) {
	b.bools = append(b.bools, v)
	if len(b.bools) > 1 {
		b.props = Props{NoNil: true}
	}
}

// AppendStr appends a string tail value to the offset/heap pair. NilStr
// (the string nil) clears NoNil; ordering/uniqueness flags degrade
// conservatively past the first value.
func (b *BAT) AppendStr(v string) {
	b.offs = append(b.offs, uint32(len(b.heap)))
	b.heap = append(b.heap, v...)
	if len(b.offs) > 1 {
		b.props = Props{NoNil: b.props.NoNil}
	}
	if v == NilStr {
		b.props.NoNil = false
	}
}

// Append appends a boxed value of the tail type.
func (b *BAT) Append(v any) error {
	switch b.ttyp {
	case TypeOID:
		x, ok := v.(OID)
		if !ok {
			return fmt.Errorf("bat: append %T to oid tail", v)
		}
		b.AppendOID(x)
	case TypeInt:
		x, ok := v.(int64)
		if !ok {
			return fmt.Errorf("bat: append %T to int tail", v)
		}
		b.AppendInt(x)
	case TypeFloat:
		x, ok := v.(float64)
		if !ok {
			return fmt.Errorf("bat: append %T to flt tail", v)
		}
		b.AppendFloat(x)
	case TypeBool:
		x, ok := v.(bool)
		if !ok {
			return fmt.Errorf("bat: append %T to bit tail", v)
		}
		b.AppendBool(x)
	case TypeStr:
		x, ok := v.(string)
		if !ok {
			return fmt.Errorf("bat: append %T to str tail", v)
		}
		b.AppendStr(x)
	default:
		return fmt.Errorf("bat: cannot append to %s tail", b.ttyp)
	}
	return nil
}

// Slice returns a new BAT sharing storage with positions [lo,hi) of b.
// The head sequence base is shifted so head OIDs are preserved.
func (b *BAT) Slice(lo, hi int) *BAT {
	if lo < 0 || hi > b.Len() || lo > hi {
		panic(fmt.Sprintf("bat: slice [%d:%d) of %d", lo, hi, b.Len()))
	}
	out := &BAT{name: b.name, ttyp: b.ttyp, hseq: b.hseq + OID(lo), props: b.props}
	switch b.ttyp {
	case TypeVoid:
		out.tseq = b.tseq + OID(lo)
		out.voidN = hi - lo
	case TypeOID:
		out.oids = b.oids[lo:hi]
	case TypeInt:
		out.ints = b.ints[lo:hi]
	case TypeFloat:
		out.floats = b.floats[lo:hi]
	case TypeBool:
		out.bools = b.bools[lo:hi]
	case TypeStr:
		// Offsets stay valid against the shared heap; trim the heap so the
		// last sliced string ends where the next original string begins.
		out.offs = b.offs[lo:hi]
		out.heap = b.heap
		if hi < len(b.offs) {
			out.heap = b.heap[:b.offs[hi]]
		}
	}
	return out
}

// Copy returns a deep copy of b.
func (b *BAT) Copy() *BAT {
	out := &BAT{name: b.name, ttyp: b.ttyp, hseq: b.hseq, tseq: b.tseq, voidN: b.voidN, props: b.props}
	out.oids = append([]OID(nil), b.oids...)
	out.ints = append([]int64(nil), b.ints...)
	out.floats = append([]float64(nil), b.floats...)
	out.bools = append([]bool(nil), b.bools...)
	out.offs = append([]uint32(nil), b.offs...)
	out.heap = append([]byte(nil), b.heap...)
	return out
}

// materialize converts a void tail into an explicit OID tail; other tails
// are returned unchanged.
func (b *BAT) materialize() *BAT {
	if b.ttyp != TypeVoid {
		return b
	}
	out := &BAT{name: b.name, ttyp: TypeOID, hseq: b.hseq, props: b.props}
	out.oids = b.OIDs()
	return out
}

// FindSorted returns the position of value v in a sorted int tail using
// binary search, and whether it was found.
func (b *BAT) FindSorted(v int64) (int, bool) {
	if b.ttyp != TypeInt || !b.props.Sorted {
		panic("bat: FindSorted requires a sorted int tail")
	}
	i := sort.Search(len(b.ints), func(i int) bool { return b.ints[i] >= v })
	return i, i < len(b.ints) && b.ints[i] == v
}

// HeapBytes reports the number of bytes of tail storage, the quantity
// column stores reduce relative to n-ary slotted pages.
func (b *BAT) HeapBytes() int {
	switch b.ttyp {
	case TypeVoid:
		return 0
	case TypeOID:
		return 8 * len(b.oids)
	case TypeInt:
		return 8 * len(b.ints)
	case TypeFloat:
		return 8 * len(b.floats)
	case TypeBool:
		return len(b.bools)
	case TypeStr:
		return 4*len(b.offs) + len(b.heap)
	}
	return 0
}

// String renders a small textual summary, for debugging and the shell.
func (b *BAT) String() string {
	return fmt.Sprintf("BAT[%s](%q, %d BUNs, hseq=%d)", b.ttyp, b.name, b.Len(), b.hseq)
}
