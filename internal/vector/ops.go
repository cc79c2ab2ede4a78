package vector

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/bat"
	"repro/internal/memgov"
	"repro/internal/radix"
)

// Filter evaluates a conjunction of simple predicates per batch, refining
// the selection vector. Predicates are pre-compiled to primitive calls —
// the per-vector (not per-tuple) interpretation X100 relies on — and
// each call picks the primitive's flavour, branching or branch-free,
// from the pass rate that predicate had on this Filter's previous
// vector (micro-adaptivity). A Filter belongs to one worker, so that
// state needs no synchronisation.
type Filter struct {
	Child Operator
	Preds []Pred
	// Counts, when set, holds one optional pair of row counters per
	// predicate index: In counts the rows that reach Preds[i], Kept the
	// rows it lets through. Predicates past its end count nothing.
	// Every worker's Filter shares them.
	Counts []PredCount
	sel    []int32
	tmp    []int32
	// branchy has bit i set while Preds[i] runs its branching flavour;
	// predicates from the 64th on always run branch-free.
	branchy uint64
}

// PredCount is one predicate's pair of row counters; either may be nil.
type PredCount struct{ In, Kept *int64 }

// PredOp is a comparison code for vectorized predicates.
type PredOp uint8

// Predicate operator codes. The *Nil int variants skip the nil sentinel
// (bat.NilInt sorts below every value, so plain <, <=, <> would let
// stored NULLs qualify); PredIsNull/PredIsNotNull select ON nil-ness.
// PredInBits keeps the int values whose bit is set in a key bitmap: the
// exact filter a join build publishes on its probe side.
const (
	PredGe PredOp = iota
	PredLt
	PredEq
	PredLeF
	PredGeF
	PredLe
	PredGt
	PredNe
	PredLtF
	PredGtF
	PredEqF
	PredNeF
	PredLtNil
	PredLeNil
	PredNeNil
	PredIsNull
	PredIsNotNull
	PredIsNullF
	PredIsNotNullF
	PredInBits
)

// Pred is one predicate: column ColIdx compared against a constant, or
// for PredInBits tested against Bits, where bit k stands for the value
// IntVal+k.
type Pred struct {
	ColIdx int
	Op     PredOp
	IntVal int64
	FltVal float64
	Bits   []uint64
}

// Open implements Operator.
func (f *Filter) Open() error { return f.Child.Open() }

// The branching flavour runs while the last vector's pass rate was
// below branchyBelow or above 1 − branchyBelow; in between the
// branch-free one does. On a 2-core x86-64 host, over 1024-row vectors
// of random values, fresh for every call (no selection vector, or every
// other row), the branch-free loop cost about 1 ns a candidate at any
// pass rate, the branching one 0.6 ns at 0 %, 0.9 at 1–2 %, 1.4 at 5 %,
// 2.2 at 10 % and 5–6 at 50 %, back to 1.4 at 95 % and about 1 above
// 98 %: the crossovers sit 3–4 % from either end. The bitmap test
// crosses at the same rates.
const branchyBelow = 1.0 / 25

// branchy reports whether a predicate that kept kept of in rows should
// run its branching flavour on the next vector.
func branchy(kept, in int) bool {
	return float64(kept) < branchyBelow*float64(in) || float64(in-kept) < branchyBelow*float64(in)
}

// Next implements Operator.
func (f *Filter) Next() (*Batch, error) {
	for {
		b, err := f.Child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		sel := b.Sel
		for pi := range f.Preds {
			in := len(sel)
			if sel == nil {
				in = b.N
			}
			var ct PredCount
			if pi < len(f.Counts) {
				ct = f.Counts[pi]
			}
			if ct.In != nil {
				atomic.AddInt64(ct.In, int64(in))
			}
			// Both flavours write by index: out must hold every candidate.
			// A non-nil empty slice, since nil means "all rows".
			out := f.sel[:0]
			if cap(out) < in || out == nil {
				out = make([]int32, 0, b.N)
			}
			bit := uint64(1) << pi // 0 from the 64th predicate on
			if out, err = f.Preds[pi].sel(&b.Cols[f.Preds[pi].ColIdx], sel, out, f.branchy&bit == 0); err != nil {
				return nil, err
			}
			if ct.Kept != nil {
				atomic.AddInt64(ct.Kept, int64(len(out)))
			}
			if in > 0 && branchy(len(out), in) {
				f.branchy |= bit
			} else if in > 0 {
				f.branchy &^= bit
			}
			f.sel, f.tmp = f.tmp, out
			sel = out
		}
		if len(sel) == 0 {
			continue // fully filtered batch; pull the next one
		}
		b.Sel = sel
		return b, nil
	}
}

// sel runs p over c, the column it reads, appending the indexes of the
// candidates in sel (or every row when sel is nil) that pass to out, in
// the branch-free flavour when bf is set.
func (p *Pred) sel(c *Col, sel, out []int32, bf bool) ([]int32, error) {
	switch p.Op {
	case PredGe:
		return selGe(c.Ints, sel, p.IntVal, out, bf), nil
	case PredGt:
		return selGt(c.Ints, sel, p.IntVal, out, bf), nil
	case PredLe:
		return selLe(c.Ints, sel, p.IntVal, out, bf), nil
	case PredLt:
		return selLt(c.Ints, sel, p.IntVal, out, bf), nil
	case PredEq:
		return selEq(c.Ints, sel, p.IntVal, out, bf), nil
	case PredNe:
		return selNeInt(c.Ints, sel, p.IntVal, out, bf), nil
	case PredGeF:
		return selGe(c.Floats, sel, p.FltVal, out, bf), nil
	case PredGtF:
		return selGt(c.Floats, sel, p.FltVal, out, bf), nil
	case PredLeF:
		return selLe(c.Floats, sel, p.FltVal, out, bf), nil
	case PredLtF:
		return selLt(c.Floats, sel, p.FltVal, out, bf), nil
	case PredEqF:
		return selEq(c.Floats, sel, p.FltVal, out, bf), nil
	case PredNeF:
		return selNeFloat(c.Floats, sel, p.FltVal, out, bf), nil
	case PredLtNil:
		return selLtIntNil(c.Ints, sel, p.IntVal, out, bf), nil
	case PredLeNil:
		return selLeIntNil(c.Ints, sel, p.IntVal, out, bf), nil
	case PredNeNil:
		return selNeIntNil(c.Ints, sel, p.IntVal, out, bf), nil
	case PredIsNull:
		return selEq(c.Ints, sel, bat.NilInt, out, bf), nil
	case PredIsNotNull:
		return selNeIntNil(c.Ints, sel, bat.NilInt, out, bf), nil
	case PredIsNullF:
		return selNilFloat(c.Floats, sel, true, out, bf), nil
	case PredIsNotNullF:
		return selNilFloat(c.Floats, sel, false, out, bf), nil
	case PredInBits:
		return selInBits(c.Ints, sel, p.IntVal, p.Bits, out, bf), nil
	}
	return nil, fmt.Errorf("vector: bad predicate op %d", p.Op)
}

// Close implements Operator.
func (f *Filter) Close() error { return f.Child.Close() }

// --- expressions for Project ---

// Expr is a vectorized expression compiled over batch columns.
type Expr interface {
	// eval computes the expression into a full-length column for batch b,
	// touching only qualifying rows.
	eval(b *Batch, scratch *scratch) (Col, error)
	// kind reports the result kind given input columns.
	kind(cols []Col) Kind
}

type scratch struct {
	ints [][]int64
	flts [][]float64
}

func (s *scratch) intBuf(n int) []int64 {
	for i := range s.ints {
		if cap(s.ints[i]) >= n {
			buf := s.ints[i][:n]
			s.ints = append(s.ints[:i], s.ints[i+1:]...)
			return buf
		}
	}
	return make([]int64, n)
}

func (s *scratch) fltBuf(n int) []float64 {
	for i := range s.flts {
		if cap(s.flts[i]) >= n {
			buf := s.flts[i][:n]
			s.flts = append(s.flts[:i], s.flts[i+1:]...)
			return buf
		}
	}
	return make([]float64, n)
}

// ColRef references batch column i.
type ColRef struct{ Idx int }

func (c ColRef) eval(b *Batch, _ *scratch) (Col, error) {
	if c.Idx < 0 || c.Idx >= len(b.Cols) {
		return Col{}, fmt.Errorf("vector: column %d out of range", c.Idx)
	}
	return b.Cols[c.Idx], nil
}

func (c ColRef) kind(cols []Col) Kind { return cols[c.Idx].Kind }

// ExprOp enumerates vectorized expression operators.
type ExprOp uint8

// Expression operator codes. The zero ExprOp names no operator.
const (
	EMulFloat ExprOp = iota + 1
	EAddFloat
	ESubConstFloat // const - expr
	// Nil-aware variants mirroring the MAL calc kernels bit for bit
	// (INT nil sentinel propagates; INT->FLOAT widens nil to NaN).
	// Query expressions lowered from SQL use these, so the vector path
	// and the interpreter agree on every nil-laden row.
	EAddIntNil
	ESubIntNil
	EMulIntNil
	EAddIntConstNil
	EMulIntConstNil
	ESubFloat
	EAddFloatConst
	EMulFloatConst
	EIntToFloat // unary: widen L to float, nil -> NaN
)

// Bin is a binary vectorized expression.
type Bin struct {
	Op       ExprOp
	L, R     Expr
	IntConst int64
	FltConst float64
}

func (e Bin) kind(cols []Col) Kind {
	switch e.Op {
	case EMulFloat, EAddFloat, ESubConstFloat, ESubFloat, EAddFloatConst, EMulFloatConst, EIntToFloat:
		return KindFloat
	}
	return KindInt
}

func (e Bin) eval(b *Batch, s *scratch) (Col, error) {
	switch e.Op {
	case ESubConstFloat:
		l, err := e.L.eval(b, s)
		if err != nil {
			return Col{}, err
		}
		out := s.fltBuf(b.N)
		MapSubConstFloat(e.FltConst, l.Floats, b.Sel, out)
		return Col{Kind: KindFloat, Floats: out}, nil
	case EAddIntConstNil:
		l, err := e.L.eval(b, s)
		if err != nil {
			return Col{}, err
		}
		out := s.intBuf(b.N)
		MapAddIntConstNil(l.Ints, e.IntConst, b.Sel, out)
		return Col{Kind: KindInt, Ints: out}, nil
	case EMulIntConstNil:
		l, err := e.L.eval(b, s)
		if err != nil {
			return Col{}, err
		}
		out := s.intBuf(b.N)
		MapMulIntConstNil(l.Ints, e.IntConst, b.Sel, out)
		return Col{Kind: KindInt, Ints: out}, nil
	case EAddFloatConst:
		l, err := e.L.eval(b, s)
		if err != nil {
			return Col{}, err
		}
		out := s.fltBuf(b.N)
		MapAddFloatConst(l.Floats, e.FltConst, b.Sel, out)
		return Col{Kind: KindFloat, Floats: out}, nil
	case EMulFloatConst:
		l, err := e.L.eval(b, s)
		if err != nil {
			return Col{}, err
		}
		out := s.fltBuf(b.N)
		MapMulFloatConst(l.Floats, e.FltConst, b.Sel, out)
		return Col{Kind: KindFloat, Floats: out}, nil
	case EIntToFloat:
		l, err := e.L.eval(b, s)
		if err != nil {
			return Col{}, err
		}
		out := s.fltBuf(b.N)
		MapIntToFloat(l.Ints, b.Sel, out)
		return Col{Kind: KindFloat, Floats: out}, nil
	}
	l, err := e.L.eval(b, s)
	if err != nil {
		return Col{}, err
	}
	r, err := e.R.eval(b, s)
	if err != nil {
		return Col{}, err
	}
	switch e.Op {
	case EMulFloat:
		out := s.fltBuf(b.N)
		MapMulFloat(l.Floats, r.Floats, b.Sel, out)
		return Col{Kind: KindFloat, Floats: out}, nil
	case EAddFloat:
		out := s.fltBuf(b.N)
		MapAddFloat(l.Floats, r.Floats, b.Sel, out)
		return Col{Kind: KindFloat, Floats: out}, nil
	case EAddIntNil:
		out := s.intBuf(b.N)
		MapAddIntNil(l.Ints, r.Ints, b.Sel, out)
		return Col{Kind: KindInt, Ints: out}, nil
	case ESubIntNil:
		out := s.intBuf(b.N)
		MapSubIntNil(l.Ints, r.Ints, b.Sel, out)
		return Col{Kind: KindInt, Ints: out}, nil
	case EMulIntNil:
		out := s.intBuf(b.N)
		MapMulIntNil(l.Ints, r.Ints, b.Sel, out)
		return Col{Kind: KindInt, Ints: out}, nil
	case ESubFloat:
		out := s.fltBuf(b.N)
		MapSubFloat(l.Floats, r.Floats, b.Sel, out)
		return Col{Kind: KindFloat, Floats: out}, nil
	}
	return Col{}, fmt.Errorf("vector: bad expression op %d", e.Op)
}

// Project computes expressions per batch, emitting batches whose columns
// are the expression results (selection vector carried through).
type Project struct {
	Child Operator
	Exprs []Expr
	s     scratch
	out   Batch
}

// Open implements Operator.
func (p *Project) Open() error { return p.Child.Open() }

// Next implements Operator.
func (p *Project) Next() (*Batch, error) {
	b, err := p.Child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	// Recycle previous output columns as scratch. ColRef outputs ALIAS
	// the child's columns (possibly shared source storage) — handing
	// those out as writable scratch would corrupt the source, so only
	// computed (expression-owned) columns are recycled.
	for i, c := range p.out.Cols {
		if _, isRef := p.Exprs[i].(ColRef); isRef {
			continue
		}
		switch c.Kind {
		case KindInt:
			if c.Ints != nil {
				p.s.ints = append(p.s.ints, c.Ints)
			}
		case KindFloat:
			if c.Floats != nil {
				p.s.flts = append(p.s.flts, c.Floats)
			}
		}
	}
	cols := make([]Col, len(p.Exprs))
	for i, e := range p.Exprs {
		cols[i], err = e.eval(b, &p.s)
		if err != nil {
			return nil, err
		}
	}
	p.out = Batch{N: b.N, Sel: b.Sel, Cols: cols}
	return &p.out, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.Child.Close() }

// --- aggregation ---

// AggKind enumerates aggregate functions.
type AggKind uint8

// Aggregate kinds. The first three are the nil-blind fast paths (the
// caller guarantees nil-free inputs); the *Nil / NN / Min / Max kinds
// are nil-aware — bat.NilInt and NaN inputs are skipped, min/max
// accumulators rest at the nil sentinel, so an all-NULL group reads
// back as nil. See the per-group primitives for the merge property
// that makes these kinds safe to re-aggregate across workers.
const (
	AggSumInt AggKind = iota
	AggSumFloat
	AggCount
	AggSumIntNil
	AggSumFloatNil
	AggCountNNInt
	AggCountNNFloat
	AggMinInt
	AggMaxInt
	AggMinFloat
	AggMaxFloat
)

// Float reports whether the aggregate emits a float column.
func (k AggKind) Float() bool {
	switch k {
	case AggSumFloat, AggSumFloatNil, AggMinFloat, AggMaxFloat:
		return true
	}
	return false
}

// init returns the accumulator identity element.
func (k AggKind) initInt() int64 {
	switch k {
	case AggMinInt, AggMaxInt:
		return bat.NilInt
	}
	return 0
}

func (k AggKind) initFloat() float64 {
	switch k {
	case AggMinFloat, AggMaxFloat:
		return math.NaN()
	}
	return 0
}

// AggSpec is one aggregate over batch column Col.
type AggSpec struct {
	Kind AggKind
	Col  int
}

// fold accumulates the qualifying rows of one batch (its columns cols,
// n rows, selection sel) into the aggregate's per-group accumulator —
// ints or flts, whichever the kind uses, already sized to the groups
// gids reaches. gids maps each row to its group.
func (spec AggSpec) fold(cols []Col, sel []int32, n int, gids []int32, ints []int64, flts []float64) error {
	switch spec.Kind {
	case AggSumInt:
		SumIntPerGroup(cols[spec.Col].Ints, sel, gids, ints)
	case AggSumFloat:
		SumFloatPerGroup(cols[spec.Col].Floats, sel, gids, flts)
	case AggCount:
		CountPerGroup(sel, n, gids, ints)
	case AggSumIntNil:
		SumIntNilPerGroup(cols[spec.Col].Ints, sel, gids, ints)
	case AggSumFloatNil:
		SumFloatNilPerGroup(cols[spec.Col].Floats, sel, gids, flts)
	case AggCountNNInt:
		CountNNIntPerGroup(cols[spec.Col].Ints, sel, gids, ints)
	case AggCountNNFloat:
		CountNNFloatPerGroup(cols[spec.Col].Floats, sel, gids, ints)
	case AggMinInt:
		MinIntNilPerGroup(cols[spec.Col].Ints, sel, gids, ints)
	case AggMaxInt:
		MaxIntNilPerGroup(cols[spec.Col].Ints, sel, gids, ints)
	case AggMinFloat:
		MinFloatNilPerGroup(cols[spec.Col].Floats, sel, gids, flts)
	case AggMaxFloat:
		MaxFloatNilPerGroup(cols[spec.Col].Floats, sel, gids, flts)
	default:
		return fmt.Errorf("vector: bad aggregate kind %d", spec.Kind)
	}
	return nil
}

// Agg drains its child, aggregating per group of the int key columns
// Keys — any number of them; none means a single global group. Group
// ids at every key width are assigned by the one radix.GroupTable in
// first-seen order, the same order the final batch emits: hashed
// (Fibonacci hashing, flat power-of-two slots, no per-key allocations),
// or, for one key with a known Domain, direct-addressed by the key
// itself. It emits one final batch with columns: the key(s) — the
// table's own column-major key arrays, handed off without a copy —
// then one column per aggregate. A keyed aggregation over empty input
// emits an empty batch (zero groups); the global form emits its
// identity row.
type Agg struct {
	Child Operator
	Keys  []int
	Aggs  []AggSpec

	// Res, when set, is charged for the grouping state (table slots,
	// key arrays, accumulator columns) as it grows; a denied charge
	// surfaces as the query's memgov.ErrExceeded, which the physical
	// layer may answer by re-planning to grace-hash partitioning.
	Res *memgov.Reservation

	// Groups, when positive, bounds the groups the input can form: the
	// first grouping table is sized for at most that many, not 1024 —
	// for a Domain, its key column and accumulators hold that many.
	Groups int

	// Domain, when set, is the value range of the one key: the table
	// takes the direct-address layout (radix.NewDenseGroupTable).
	Domain *radix.Domain

	// Stats, when set, counts what the Agg saw; the Aggs of one
	// grouping share it.
	Stats *AggStats

	// merge marks the final Agg over workers' grouped partials: each
	// batch holds distinct keys, usually most of the result's groups.
	merge bool

	done    bool
	charged int64
}

// AggStats is what a grouping's Aggs observed, for \plan. The workers'
// Aggs and their merge share one, hence atomics.
type AggStats struct {
	RowsIn    atomic.Int64 // rows the partial (non-merge) Aggs folded
	Partials  atomic.Int64 // partial batches the merge folded
	Converted atomic.Int64 // direct-address tables an out-of-domain key turned to hash
}

// Open implements Operator.
func (a *Agg) Open() error { a.done = false; return a.Child.Open() }

// Next implements Operator.
func (a *Agg) Next() (*Batch, error) {
	if a.done {
		return nil, nil
	}
	a.done = true

	var gt *radix.GroupTable
	switch {
	case a.Domain != nil && len(a.Keys) == 1:
		gt = radix.NewDenseGroupTable(*a.Domain, a.Groups)
	case len(a.Keys) > 0:
		size := 1024
		if a.Groups > 0 {
			size = min(size, a.Groups)
		}
		gt = radix.NewGroupTable(len(a.Keys), size)
	}
	var gids []int32
	keyCols := make([][]int64, len(a.Keys))
	// The output batch's columns: the keys, filled in last, then the
	// accumulators, folded in place.
	cols := make([]Col, len(a.Keys)+len(a.Aggs))
	accs := cols[len(a.Keys):]
	ngroups := int32(1)
	var rows, batches int64

	for {
		b, err := a.Child.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		rows += int64(b.Rows())
		batches++
		if a.merge && gt != nil && !gt.Dense() && gt.Len() == 0 && b.N > 1024 {
			// Size the table for the first partial at once rather than
			// rehashing it through every doubling on the way.
			gt = radix.NewGroupTable(len(a.Keys), b.N)
		}
		if cap(gids) < b.N {
			gids = make([]int32, b.N)
		}
		gids = gids[:b.N]
		if gt != nil { // else the one global group: gids stay all zero
			for ki, k := range a.Keys {
				keyCols[ki] = b.Cols[k].Ints
			}
			ngroups = gt.Assign(keyCols, b.Sel, gids)
		}
		// The accumulators grow with the key columns, to their capacity:
		// once for a direct-address table, by doubling for a hash one.
		size := int(ngroups)
		if gt != nil {
			size = cap(gt.Key(0))
		}
		for ai, spec := range a.Aggs {
			acc := &accs[ai]
			acc.grow(spec.Kind, ngroups, size)
			if err := spec.fold(b.Cols, b.Sel, b.N, gids, acc.Ints, acc.Floats); err != nil {
				return nil, err
			}
		}
		if a.Res != nil {
			foot := aggFootprint(gt, accs)
			if d := foot - a.charged; d > 0 {
				if err := a.Res.Acquire(d); err != nil {
					return nil, err
				}
				a.charged = foot
			}
		}
	}
	if st := a.Stats; st != nil {
		if a.merge {
			st.Partials.Add(batches)
		} else {
			st.RowsIn.Add(rows)
		}
		if a.Domain != nil && gt != nil && !gt.Dense() {
			st.Converted.Add(1)
		}
	}

	n := 1
	if gt != nil {
		n = gt.Len()
		// Key(c) aliases the table, which dies with this call — safe to
		// hand off directly.
		for c := range a.Keys {
			cols[c] = Col{Kind: KindInt, Ints: gt.Key(c)}
		}
	}
	for ai, spec := range a.Aggs {
		accs[ai].grow(spec.Kind, int32(n), n)
	}
	return &Batch{N: n, Cols: cols}, nil
}

// grow pads accumulator column c of aggregate kind k to n groups of the
// kind's identity, taking capacity for size groups when it must
// reallocate.
func (c *Col) grow(k AggKind, n int32, size int) {
	if k.Float() {
		c.Kind, c.Floats = KindFloat, growAccs(c.Floats, n, size, k.initFloat())
	} else {
		c.Kind, c.Ints = KindInt, growAccs(c.Ints, n, size, k.initInt())
	}
}

// growAccs pads an accumulator to n groups of init, taking capacity
// for size groups (at least n, and at least double what it had) when
// it must reallocate.
func growAccs[T int64 | float64](accs []T, n int32, size int, init T) []T {
	if int32(len(accs)) >= n {
		return accs
	}
	if int(n) > cap(accs) {
		grown := make([]T, len(accs), max(int(n), size, 2*cap(accs)))
		copy(grown, accs)
		accs = grown
	}
	for int32(len(accs)) < n {
		accs = append(accs, init)
	}
	return accs
}

// Close implements Operator: the grouping state dies with the
// operator, so its reservation charge is handed back here — which is
// also what lets a failed merged-plan attempt return its memory before
// the grace-hash re-plan starts over.
func (a *Agg) Close() error {
	if a.charged != 0 {
		a.Res.Release(a.charged)
		a.charged = 0
	}
	return a.Child.Close()
}

// aggFootprint is the live heap held by one Agg's grouping state: the
// table's slots and key columns, and every accumulator's capacity.
func aggFootprint(gt *radix.GroupTable, accs []Col) int64 {
	var f int64
	if gt != nil {
		f = gt.MemBytes()
	}
	for _, c := range accs {
		f += int64(cap(c.Ints)+cap(c.Floats)) * 8
	}
	return f
}

// Drain pulls an operator tree to completion, returning all batches fully
// materialized (selection vectors applied). Intended for tests and result
// delivery, not inner loops.
func Drain(op Operator) ([][]any, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var rows [][]any
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return rows, nil
		}
		b.ForEach(func(i int32) {
			row := make([]any, len(b.Cols))
			for c := range b.Cols {
				switch b.Cols[c].Kind {
				case KindInt:
					row[c] = b.Cols[c].Ints[i]
				case KindFloat:
					row[c] = b.Cols[c].Floats[i]
				case KindBool:
					row[c] = b.Cols[c].Bools[i]
				}
			}
			rows = append(rows, row)
		})
	}
}
