package sqlfe

import (
	"fmt"
	"math"
	"strings"
)

// Placeholder support: a parsed statement may contain ? bind slots
// (Lit.Param > 0, ordinals assigned in lexical order). NumParams counts
// them; BindParams substitutes concrete literals, producing a statement
// the ordinary executor can run. SELECTs executed through a prepared
// plan do NOT go through BindParams — their placeholders compile into
// mal.P bind slots and are bound per execution by the interpreter.

// NumParams returns the number of ? placeholders in a statement.
func NumParams(st Stmt) int {
	max := 0
	note := func(l Lit) {
		if l.Param > max {
			max = l.Param
		}
	}
	var walkExpr func(e Expr)
	walkExpr = func(e Expr) {
		switch x := e.(type) {
		case Lit:
			note(x)
		case BinExpr:
			walkExpr(x.L)
			walkExpr(x.R)
		}
	}
	walkPreds := func(ps []Pred) {
		for _, p := range ps {
			note(p.Val)
		}
	}
	switch s := st.(type) {
	case *Select:
		for _, it := range s.Items {
			if it.Expr != nil {
				walkExpr(it.Expr)
			}
		}
		walkPreds(s.Where)
	case *Insert:
		for _, row := range s.Rows {
			for _, l := range row {
				note(l)
			}
		}
	case *Update:
		for _, l := range s.Set {
			note(l)
		}
		walkPreds(s.Where)
	case *Delete:
		walkPreds(s.Where)
	}
	return max
}

// bindLit resolves one literal against the bound arguments.
func bindLit(l Lit, args []Lit) (Lit, error) {
	if l.Param == 0 {
		return l, nil
	}
	if l.Param > len(args) {
		return Lit{}, fmt.Errorf("sql: parameter ?%d not bound (%d arguments)", l.Param, len(args))
	}
	return args[l.Param-1], nil
}

// BindParams returns a copy of st with every ? placeholder replaced by
// the corresponding argument literal. The input statement is not
// modified, so a prepared statement can be re-bound any number of times.
func BindParams(st Stmt, args []Lit) (Stmt, error) {
	var err error
	bind := func(l Lit) Lit {
		if err != nil {
			return l
		}
		var b Lit
		b, err = bindLit(l, args)
		return b
	}
	var bindExpr func(e Expr) Expr
	bindExpr = func(e Expr) Expr {
		switch x := e.(type) {
		case Lit:
			return bind(x)
		case BinExpr:
			x.L = bindExpr(x.L)
			x.R = bindExpr(x.R)
			return x
		}
		return e
	}
	bindPreds := func(ps []Pred) []Pred {
		if ps == nil {
			return nil
		}
		out := make([]Pred, len(ps))
		for i, p := range ps {
			p.Val = bind(p.Val)
			out[i] = p
		}
		return out
	}
	var out Stmt
	switch s := st.(type) {
	case *Select:
		c := *s
		c.Items = make([]SelItem, len(s.Items))
		for i, it := range s.Items {
			if it.Expr != nil {
				it.Expr = bindExpr(it.Expr)
			}
			c.Items[i] = it
		}
		c.Where = bindPreds(s.Where)
		out = &c
	case *Insert:
		c := *s
		c.Rows = make([][]Lit, len(s.Rows))
		for ri, row := range s.Rows {
			nr := make([]Lit, len(row))
			for i, l := range row {
				nr[i] = bind(l)
			}
			c.Rows[ri] = nr
		}
		out = &c
	case *Update:
		c := *s
		c.Set = make(map[string]Lit, len(s.Set))
		for k, l := range s.Set {
			c.Set[k] = bind(l)
		}
		c.Where = bindPreds(s.Where)
		out = &c
	case *Delete:
		c := *s
		c.Where = bindPreds(s.Where)
		out = &c
	default:
		out = st
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// LitFromArg converts one Go argument to a SQL literal. Supported: nil
// (NULL), Go integers, float32/64, string.
func LitFromArg(a any) (Lit, error) {
	switch v := a.(type) {
	case nil:
		return Lit{Null: true}, nil
	case int64:
		return Lit{Kind: TInt, I: v}, nil
	case int:
		return Lit{Kind: TInt, I: int64(v)}, nil
	case int32:
		return Lit{Kind: TInt, I: int64(v)}, nil
	case int16:
		return Lit{Kind: TInt, I: int64(v)}, nil
	case int8:
		return Lit{Kind: TInt, I: int64(v)}, nil
	case uint8:
		return Lit{Kind: TInt, I: int64(v)}, nil
	case uint16:
		return Lit{Kind: TInt, I: int64(v)}, nil
	case uint32:
		return Lit{Kind: TInt, I: int64(v)}, nil
	case uint64:
		if v > math.MaxInt64 {
			return Lit{}, fmt.Errorf("sql: uint64 argument %d overflows INT", v)
		}
		return Lit{Kind: TInt, I: int64(v)}, nil
	case uint:
		if uint64(v) > math.MaxInt64 {
			return Lit{}, fmt.Errorf("sql: uint argument %d overflows INT", v)
		}
		return Lit{Kind: TInt, I: int64(v)}, nil
	case float64:
		return Lit{Kind: TFloat, F: v}, nil
	case float32:
		return Lit{Kind: TFloat, F: float64(v)}, nil
	case string:
		return Lit{Kind: TText, S: v}, nil
	}
	return Lit{}, fmt.Errorf("sql: unsupported argument type %T", a)
}

// CoerceArg converts one bound argument to the column type its slot
// compares against. It is the single definition of the comparison
// binding rules — the MAL interpreter and the vectorized physical plan
// both go through it, so the two executors of one prepared statement
// can never drift: int columns take int arguments, float columns widen
// ints, text columns take strings, and NULL is rejected (the comparison
// would be unknown for every row; IS NULL asks for nils instead).
func CoerceArg(a any, want ColType, pos int) (Lit, error) {
	lit, err := LitFromArg(a)
	if err != nil {
		return Lit{}, fmt.Errorf("argument %d: %w", pos, err)
	}
	if lit.Null {
		return Lit{}, fmt.Errorf("sql: argument %d: comparison with NULL is always unknown", pos)
	}
	switch want {
	case TInt:
		if lit.Kind != TInt {
			return Lit{}, fmt.Errorf("sql: argument %d: int column compared with %s", pos, lit.Kind)
		}
	case TFloat:
		switch lit.Kind {
		case TFloat:
		case TInt:
			lit = Lit{Kind: TFloat, F: float64(lit.I)}
		default:
			return Lit{}, fmt.Errorf("sql: argument %d: float column compared with %s", pos, lit.Kind)
		}
	default:
		if lit.Kind != TText {
			return Lit{}, fmt.Errorf("sql: argument %d: text column compared with %s", pos, lit.Kind)
		}
		// NUL-bearing strings are unstorable (they would forge the stored
		// text nil sentinel), so a comparison with one can never match.
		if strings.ContainsRune(lit.S, 0) {
			return Lit{}, fmt.Errorf("sql: argument %d: text values may not contain NUL bytes", pos)
		}
	}
	return lit, nil
}
