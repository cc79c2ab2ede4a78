// Package vector implements an X100-style vectorized execution engine
// (paper §5): pull-based relational operators exchanging small slices of
// columns ("vectors") instead of single tuples or whole columns. The
// engine keeps MonetDB's zero-degree-of-freedom columnar primitives but
// embeds them in a pipelined model, separating columnar data flow from
// pipelined control flow.
//
// The vector size is the central tuning knob: with size 1 the engine
// degenerates to tuple-at-a-time performance, with sizes in the hundreds
// the per-tuple interpretation overhead amortizes away while the working
// set still fits the CPU cache (experiment E6 sweeps this).
package vector

import (
	"fmt"

	"repro/internal/bat"
)

// DefaultSize is the default vector length: in the paper's sweet spot
// (100..1000).
const DefaultSize = 1024

// Kind is a column type tag.
type Kind uint8

// Column kinds.
const (
	KindInt Kind = iota
	KindFloat
	KindBool
)

// Col is one column vector.
type Col struct {
	Kind   Kind
	Ints   []int64
	Floats []float64
	Bools  []bool
}

// Len returns the vector length.
func (c *Col) Len() int {
	switch c.Kind {
	case KindInt:
		return len(c.Ints)
	case KindFloat:
		return len(c.Floats)
	case KindBool:
		return len(c.Bools)
	}
	return 0
}

// Batch is the unit of data flow: n rows across len(Cols) columns, with an
// optional selection vector. If Sel is non-nil, only the row indexes it
// lists qualify; columns still hold all n positions (selection vectors
// avoid copying, as in X100).
type Batch struct {
	N    int
	Sel  []int32 // nil = all rows 0..N-1 qualify
	Cols []Col
}

// Rows returns the number of qualifying rows.
func (b *Batch) Rows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// ForEach calls f for every qualifying row index.
func (b *Batch) ForEach(f func(i int32)) {
	if b.Sel != nil {
		for _, i := range b.Sel {
			f(i)
		}
		return
	}
	for i := int32(0); i < int32(b.N); i++ {
		f(i)
	}
}

// Operator is the pull-based X100 operator interface. Next returns nil at
// end of stream. Returned batches are valid until the next call.
type Operator interface {
	Open() error
	Next() (*Batch, error)
	Close() error
}

// --- scan ---

// Source is an in-memory columnar table the scan reads from.
type Source struct {
	Names []string
	Cols  []Col
	n     int
	// ranges are the row ranges a scan visits, sorted and disjoint: the
	// whole table unless Restrict narrowed them. They are a scan hint,
	// not a filter: whoever narrows them promises that every row outside
	// fails a predicate the pipeline still evaluates, so a consumer that
	// reads Cols directly and ignores them is slower, never wrong.
	ranges []RowRange
	// deleted are tombstoned row positions, sorted. Unlike ranges they
	// ARE a filter: a scan leaves them out of its selection vectors, and
	// a consumer that reads Cols directly for more than an estimate must
	// not run over a source that has any (Deleted).
	deleted []bat.OID
}

// RowRange is the half-open row range [Lo,Hi) of a Source.
type RowRange struct{ Lo, Hi int }

// NewSource builds a source from named columns, validating equal lengths.
func NewSource(names []string, cols []Col) (*Source, error) {
	if len(names) != len(cols) {
		return nil, fmt.Errorf("vector: %d names for %d cols", len(names), len(cols))
	}
	n := -1
	for i := range cols {
		if n == -1 {
			n = cols[i].Len()
		} else if cols[i].Len() != n {
			return nil, fmt.Errorf("vector: column %q length %d != %d", names[i], cols[i].Len(), n)
		}
	}
	if n == -1 {
		n = 0
	}
	return &Source{Names: names, Cols: cols, n: n, ranges: []RowRange{{0, n}}}, nil
}

// NewSourceWithLen builds a source of exactly n rows; cols may be empty
// (a pure row-count scan, e.g. count(*) touching no columns), otherwise
// every column's length must equal n.
func NewSourceWithLen(names []string, cols []Col, n int) (*Source, error) {
	src, err := NewSource(names, cols)
	if err != nil {
		return nil, err
	}
	if len(cols) > 0 && src.n != n {
		return nil, fmt.Errorf("vector: source length %d != declared %d", src.n, n)
	}
	src.n, src.ranges = n, []RowRange{{0, n}}
	return src, nil
}

// Len returns the number of rows in the source.
func (s *Source) Len() int { return s.n }

// Restrict returns a view of the same columns whose scans visit only
// the given row ranges (sorted, disjoint, non-empty, inside [0,Len())).
// Positions stay global: Len, Cols and the RowIDs a scan emits are
// those of the whole table.
func (s *Source) Restrict(ranges []RowRange) (*Source, error) {
	end := 0
	for _, r := range ranges {
		if r.Lo < end || r.Hi <= r.Lo || r.Hi > s.n {
			return nil, fmt.Errorf("vector: row range [%d,%d) out of order or outside [%d,%d)", r.Lo, r.Hi, end, s.n)
		}
		end = r.Hi
	}
	out := *s
	out.ranges = ranges
	return &out, nil
}

// Ranges returns the row ranges a scan of the source visits, sorted and
// disjoint. The slice is the source's own: callers must not modify it.
func (s *Source) Ranges() []RowRange { return s.ranges }

// WithDeleted returns a view of the same columns whose scans skip the
// given tombstoned positions (sorted, inside [0,Len())). Len, Cols and
// row positions stay those of the whole table.
func (s *Source) WithDeleted(deleted []bat.OID) *Source {
	out := *s
	out.deleted = deleted
	return &out
}

// Deleted returns the number of tombstoned positions.
func (s *Source) Deleted() int { return len(s.deleted) }

// ScanRows returns the number of positions a scan of the source visits:
// Len unless Restrict narrowed it, tombstones included.
func (s *Source) ScanRows() int {
	n := 0
	for _, r := range s.ranges {
		n += r.Hi - r.Lo
	}
	return n
}

// Scan produces vectors of at most Size rows from a Source, zero-copy
// (column vectors are sub-slices of the source arrays): a MorselScan
// that is its cursor's only claimant.
type Scan struct {
	Src  *Source
	Size int
	ms   MorselScan
}

// NewScan returns a scan with the given vector size (DefaultSize if <= 0).
func NewScan(src *Source, size int) *Scan {
	if size <= 0 {
		size = DefaultSize
	}
	return &Scan{Src: src, Size: size}
}

// Open implements Operator.
func (s *Scan) Open() error {
	s.ms = MorselScan{Cur: NewMorselCursor(s.Src, 0), Size: s.Size}
	return s.ms.Open()
}

// Next implements Operator.
func (s *Scan) Next() (*Batch, error) { return s.ms.Next() }

// Close implements Operator.
func (s *Scan) Close() error { return nil }
