// Package volcano implements the classical tuple-at-a-time iterator
// execution model the paper contrasts MonetDB with (§3): every relational
// operator is an iterator with a Next() method returning one tuple; complex
// Boolean expressions are evaluated by a runtime expression interpreter
// sitting in the critical code path of Select and Join.
//
// The per-tuple method-call recursion and interface boxing here are not
// accidental inefficiency — they are the faithful model of the
// interpretation overhead and instruction-cache pressure that experiments
// E2 and E6 quantify against bulk (BAT) and vectorized (X100) execution.
package volcano

import (
	"errors"
	"fmt"
	"sort"
)

// Value is one attribute value: int64, float64, string or bool.
type Value any

// Row is one n-ary tuple (the NSM record).
type Row []Value

// Table is an NSM relation: a slice of rows plus a schema.
type Table struct {
	Name    string
	Columns []string
	Rows    []Row
}

// Iterator is the Volcano operator interface.
type Iterator interface {
	// Open prepares the iterator for a fresh pass.
	Open() error
	// Next produces the next tuple; ok is false at end of stream.
	Next() (row Row, ok bool, err error)
	// Close releases resources.
	Close() error
}

// --- interpreted expressions ---

// Expr is an interpreted scalar expression over a Row.
type Expr interface {
	Eval(Row) (Value, error)
}

// Col references the i-th attribute of the input row.
type Col struct{ Idx int }

// Eval implements Expr.
func (c Col) Eval(r Row) (Value, error) {
	if c.Idx < 0 || c.Idx >= len(r) {
		return nil, fmt.Errorf("volcano: column index %d out of range", c.Idx)
	}
	return r[c.Idx], nil
}

// Const is a literal.
type Const struct{ V Value }

// Eval implements Expr.
func (c Const) Eval(Row) (Value, error) { return c.V, nil }

// BinOpKind enumerates binary operators.
type BinOpKind uint8

// Binary operator kinds.
const (
	OpAdd BinOpKind = iota
	OpSub
	OpMul
	OpDiv
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

// BinOp applies an operator to two sub-expressions, dispatching on the
// runtime types of the operands — the expression interpreter whose cost
// the BAT algebra forsakes.
type BinOp struct {
	Op   BinOpKind
	L, R Expr
}

// Eval implements Expr.
func (b BinOp) Eval(r Row) (Value, error) {
	lv, err := b.L.Eval(r)
	if err != nil {
		return nil, err
	}
	rv, err := b.R.Eval(r)
	if err != nil {
		return nil, err
	}
	switch b.Op {
	case OpAnd, OpOr:
		lb, lok := lv.(bool)
		rb, rok := rv.(bool)
		if !lok || !rok {
			return nil, fmt.Errorf("volcano: AND/OR on non-bool %T,%T", lv, rv)
		}
		if b.Op == OpAnd {
			return lb && rb, nil
		}
		return lb || rb, nil
	}
	switch l := lv.(type) {
	case int64:
		rr, ok := rv.(int64)
		if !ok {
			if rf, ok := rv.(float64); ok {
				return evalFloat(b.Op, float64(l), rf)
			}
			return nil, typeErr(lv, rv)
		}
		return evalInt(b.Op, l, rr)
	case float64:
		switch rr := rv.(type) {
		case float64:
			return evalFloat(b.Op, l, rr)
		case int64:
			return evalFloat(b.Op, l, float64(rr))
		}
		return nil, typeErr(lv, rv)
	case string:
		rr, ok := rv.(string)
		if !ok {
			return nil, typeErr(lv, rv)
		}
		return evalStr(b.Op, l, rr)
	}
	return nil, typeErr(lv, rv)
}

func typeErr(l, r Value) error {
	return fmt.Errorf("volcano: type mismatch %T vs %T", l, r)
}

func evalInt(op BinOpKind, l, r int64) (Value, error) {
	switch op {
	case OpAdd:
		return l + r, nil
	case OpSub:
		return l - r, nil
	case OpMul:
		return l * r, nil
	case OpDiv:
		if r == 0 {
			return nil, errors.New("volcano: division by zero")
		}
		return l / r, nil
	case OpEq:
		return l == r, nil
	case OpNe:
		return l != r, nil
	case OpLt:
		return l < r, nil
	case OpLe:
		return l <= r, nil
	case OpGt:
		return l > r, nil
	case OpGe:
		return l >= r, nil
	}
	return nil, fmt.Errorf("volcano: bad int op %d", op)
}

func evalFloat(op BinOpKind, l, r float64) (Value, error) {
	switch op {
	case OpAdd:
		return l + r, nil
	case OpSub:
		return l - r, nil
	case OpMul:
		return l * r, nil
	case OpDiv:
		if r == 0 {
			return nil, errors.New("volcano: division by zero")
		}
		return l / r, nil
	case OpEq:
		return l == r, nil
	case OpNe:
		return l != r, nil
	case OpLt:
		return l < r, nil
	case OpLe:
		return l <= r, nil
	case OpGt:
		return l > r, nil
	case OpGe:
		return l >= r, nil
	}
	return nil, fmt.Errorf("volcano: bad float op %d", op)
}

func evalStr(op BinOpKind, l, r string) (Value, error) {
	switch op {
	case OpEq:
		return l == r, nil
	case OpNe:
		return l != r, nil
	case OpLt:
		return l < r, nil
	case OpLe:
		return l <= r, nil
	case OpGt:
		return l > r, nil
	case OpGe:
		return l >= r, nil
	}
	return nil, fmt.Errorf("volcano: bad string op %d", op)
}

// --- operators ---

// Scan iterates over a Table.
type Scan struct {
	T   *Table
	pos int
}

// NewScan returns a scan over t.
func NewScan(t *Table) *Scan { return &Scan{T: t} }

// Open implements Iterator.
func (s *Scan) Open() error { s.pos = 0; return nil }

// Next implements Iterator.
func (s *Scan) Next() (Row, bool, error) {
	if s.pos >= len(s.T.Rows) {
		return nil, false, nil
	}
	r := s.T.Rows[s.pos]
	s.pos++
	return r, true, nil
}

// Close implements Iterator.
func (s *Scan) Close() error { return nil }

// SelectOp filters its child by an interpreted predicate.
type SelectOp struct {
	Child Iterator
	Pred  Expr
}

// Open implements Iterator.
func (s *SelectOp) Open() error { return s.Child.Open() }

// Next implements Iterator.
func (s *SelectOp) Next() (Row, bool, error) {
	for {
		r, ok, err := s.Child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		v, err := s.Pred.Eval(r)
		if err != nil {
			return nil, false, err
		}
		if b, ok := v.(bool); ok && b {
			return r, true, nil
		}
	}
}

// Close implements Iterator.
func (s *SelectOp) Close() error { return s.Child.Close() }

// Project maps each input row through a list of expressions.
type Project struct {
	Child Iterator
	Exprs []Expr
}

// Open implements Iterator.
func (p *Project) Open() error { return p.Child.Open() }

// Next implements Iterator.
func (p *Project) Next() (Row, bool, error) {
	r, ok, err := p.Child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := make(Row, len(p.Exprs))
	for i, e := range p.Exprs {
		out[i], err = e.Eval(r)
		if err != nil {
			return nil, false, err
		}
	}
	return out, true, nil
}

// Close implements Iterator.
func (p *Project) Close() error { return p.Child.Close() }

// HashJoin joins left and right on equality of the keyed expressions,
// building on the right input. Output rows are left ++ right.
type HashJoin struct {
	Left, Right Iterator
	LKey, RKey  Expr

	table   map[Value][]Row
	pending []Row
	lrow    Row
}

// Open implements Iterator: builds the hash table from the right child.
func (j *HashJoin) Open() error {
	if err := j.Left.Open(); err != nil {
		return err
	}
	if err := j.Right.Open(); err != nil {
		return err
	}
	j.table = make(map[Value][]Row)
	for {
		r, ok, err := j.Right.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		k, err := j.RKey.Eval(r)
		if err != nil {
			return err
		}
		j.table[k] = append(j.table[k], r)
	}
	j.pending = nil
	return nil
}

// Next implements Iterator.
func (j *HashJoin) Next() (Row, bool, error) {
	for {
		if len(j.pending) > 0 {
			r := j.pending[0]
			j.pending = j.pending[1:]
			out := make(Row, 0, len(j.lrow)+len(r))
			out = append(out, j.lrow...)
			out = append(out, r...)
			return out, true, nil
		}
		l, ok, err := j.Left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		k, err := j.LKey.Eval(l)
		if err != nil {
			return nil, false, err
		}
		j.lrow = l
		j.pending = j.table[k]
	}
}

// Close implements Iterator.
func (j *HashJoin) Close() error {
	if err := j.Left.Close(); err != nil {
		return err
	}
	return j.Right.Close()
}

// AggKind enumerates aggregate functions.
type AggKind uint8

// Aggregate function kinds.
const (
	AggSum AggKind = iota
	AggCount
	AggMin
	AggMax
)

// AggSpec is one aggregate over an input expression.
type AggSpec struct {
	Kind AggKind
	Arg  Expr // ignored for AggCount
}

// HashAgg groups by the key expressions and computes the aggregates.
// Output rows are keys ++ aggregates, in first-seen group order.
type HashAgg struct {
	Child Iterator
	Keys  []Expr
	Aggs  []AggSpec

	out []Row
	pos int
}

// Open implements Iterator: drains the child and materializes groups.
func (a *HashAgg) Open() error {
	if err := a.Child.Open(); err != nil {
		return err
	}
	type group struct {
		key  Row
		accs []Value
	}
	idx := make(map[string]int)
	var groups []*group
	for {
		r, ok, err := a.Child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		key := make(Row, len(a.Keys))
		for i, k := range a.Keys {
			key[i], err = k.Eval(r)
			if err != nil {
				return err
			}
		}
		ks := fmt.Sprintf("%v", []Value(key))
		gi, ok := idx[ks]
		if !ok {
			gi = len(groups)
			idx[ks] = gi
			groups = append(groups, &group{key: key, accs: make([]Value, len(a.Aggs))})
		}
		g := groups[gi]
		for i, spec := range a.Aggs {
			var v Value
			if spec.Kind != AggCount {
				v, err = spec.Arg.Eval(r)
				if err != nil {
					return err
				}
			}
			g.accs[i], err = foldAgg(spec.Kind, g.accs[i], v)
			if err != nil {
				return err
			}
		}
	}
	a.out = a.out[:0]
	for _, g := range groups {
		row := make(Row, 0, len(g.key)+len(g.accs))
		row = append(row, g.key...)
		for i, acc := range g.accs {
			if acc == nil && a.Aggs[i].Kind == AggCount {
				acc = int64(0)
			}
			row = append(row, acc)
		}
		a.out = append(a.out, row)
	}
	a.pos = 0
	return nil
}

func foldAgg(kind AggKind, acc Value, v Value) (Value, error) {
	switch kind {
	case AggCount:
		if acc == nil {
			return int64(1), nil
		}
		return acc.(int64) + 1, nil
	case AggSum:
		if acc == nil {
			return v, nil
		}
		switch a := acc.(type) {
		case int64:
			return a + v.(int64), nil
		case float64:
			return a + v.(float64), nil
		}
	case AggMin:
		if acc == nil {
			return v, nil
		}
		if less(v, acc) {
			return v, nil
		}
		return acc, nil
	case AggMax:
		if acc == nil {
			return v, nil
		}
		if less(acc, v) {
			return v, nil
		}
		return acc, nil
	}
	return nil, fmt.Errorf("volcano: bad aggregate fold %d over %T", kind, acc)
}

func less(a, b Value) bool {
	switch x := a.(type) {
	case int64:
		return x < b.(int64)
	case float64:
		return x < b.(float64)
	case string:
		return x < b.(string)
	}
	return false
}

// Next implements Iterator.
func (a *HashAgg) Next() (Row, bool, error) {
	if a.pos >= len(a.out) {
		return nil, false, nil
	}
	r := a.out[a.pos]
	a.pos++
	return r, true, nil
}

// Close implements Iterator.
func (a *HashAgg) Close() error { return a.Child.Close() }

// SortOp materializes and sorts its input by the key expression.
type SortOp struct {
	Child Iterator
	Key   Expr
	Desc  bool

	out []Row
	pos int
}

// Open implements Iterator.
func (s *SortOp) Open() error {
	if err := s.Child.Open(); err != nil {
		return err
	}
	s.out = s.out[:0]
	keys := []Value{}
	for {
		r, ok, err := s.Child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		k, err := s.Key.Eval(r)
		if err != nil {
			return err
		}
		s.out = append(s.out, r)
		keys = append(keys, k)
	}
	idx := make([]int, len(s.out))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool {
		if s.Desc {
			return less(keys[idx[j]], keys[idx[i]])
		}
		return less(keys[idx[i]], keys[idx[j]])
	})
	sorted := make([]Row, len(s.out))
	for i, p := range idx {
		sorted[i] = s.out[p]
	}
	s.out = sorted
	s.pos = 0
	return nil
}

// Next implements Iterator.
func (s *SortOp) Next() (Row, bool, error) {
	if s.pos >= len(s.out) {
		return nil, false, nil
	}
	r := s.out[s.pos]
	s.pos++
	return r, true, nil
}

// Close implements Iterator.
func (s *SortOp) Close() error { return s.Child.Close() }

// Limit passes through at most N rows.
type Limit struct {
	Child Iterator
	N     int
	seen  int
}

// Open implements Iterator.
func (l *Limit) Open() error { l.seen = 0; return l.Child.Open() }

// Next implements Iterator.
func (l *Limit) Next() (Row, bool, error) {
	if l.seen >= l.N {
		return nil, false, nil
	}
	r, ok, err := l.Child.Next()
	if ok {
		l.seen++
	}
	return r, ok, err
}

// Close implements Iterator.
func (l *Limit) Close() error { return l.Child.Close() }

// Drain runs an iterator tree to completion and returns all rows.
func Drain(it Iterator) ([]Row, error) {
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer it.Close()
	var out []Row
	for {
		r, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, r)
	}
}
