package sqlfe

import (
	"fmt"
	"strings"

	"repro/internal/batalg"
)

// Bound is a SELECT resolved against a snapshot's catalog — the one
// front door both executors consume. Every rule about what a statement
// MEANS lives in Bind: which table owns a column name, how a JOIN's ON
// pair is oriented, what * expands to, what each output column is
// called, which literal a column may be compared with, which aggregate
// shapes are legal, what ORDER BY names. The MAL code generator
// (Bound.CompileMAL) and the vector planner (physical.LowerBound)
// translate a Bound and cannot fail on user input: the generator
// always produces a program, the planner a plan or a routing reason.
type Bound struct {
	Tables []*Table    // the FROM table, then the JOIN tables in textual order
	Where  []BoundPred // WHERE conjuncts in textual order
	Joins  []BoundJoin // Joins[k] folds Tables[k+1] into Tables[0..k]

	Shape   Shape
	Items   []BoundItem // the select list, * expanded
	Names   []string    // output labels, one per item
	GroupBy []ColID     // group keys (ShapeGrouped); all INT when there are several

	// ORDER BY. Ordered says the statement has one; OrderItem >= 0 is
	// the output item it names, otherwise (ShapePlain only) OrderCol is
	// the unprojected column. Over a global aggregate it orders a single
	// row and stays unresolved.
	Ordered   bool
	OrderItem int
	OrderCol  ColID
	Desc      bool
	Limit     int // -1 = none

	ParamTypes []ColType // column type each ? slot compares against, by ordinal
}

// Shape is the form of a SELECT's output.
type Shape uint8

const (
	ShapePlain     Shape = iota // one output row per qualifying input row
	ShapeGlobalAgg              // every item an aggregate, no GROUP BY: one row
	ShapeGrouped                // GROUP BY: one row per distinct key tuple
)

// ColID is a resolved column reference: the owning table's index in
// Bound.Tables, the column's index in that table, and its type.
type ColID struct {
	Table, Col int
	Type       ColType
}

// BoundPred is one WHERE conjunct. Val is typed as the column: an INT
// literal compared with a FLOAT column is already widened, and a
// placeholder (Val.Param > 0) takes the column's type at execution.
// The nil tests carry no value.
type BoundPred struct {
	Col ColID
	Op  string // "=", "<>", "<", "<=", ">", ">=", "isnull", "isnotnull"
	Val Lit
}

// BoundJoin is one equi-join edge, oriented: New belongs to the table
// its JOIN clause introduced, Prior to an earlier one. Both keys have
// the same type, INT or TEXT.
type BoundJoin struct{ Prior, New ColID }

// BoundItem is one output column. Expr is nil for count(*). In a
// grouped statement a plain (AggNone) item is group key GroupKey.
type BoundItem struct {
	Agg      AggFn
	Expr     *BoundExpr
	GroupKey int
}

// ExprOp is a BoundExpr node kind.
type ExprOp uint8

const (
	ExprCol      ExprOp = iota // the column Col
	ExprAdd                    // L + R
	ExprSub                    // L - R
	ExprMul                    // L * R
	ExprAddConst               // L + constant
	ExprMulConst               // L * constant
	ExprConstSub               // constant - L (FLOAT only)
)

// BoundExpr is a type-annotated arithmetic tree in the normal form both
// executors evaluate op for op, so their nil propagation, int
// wraparound and float promotion agree bit for bit: column-vs-literal
// arithmetic is a constant op (x - 3 is x + -3; 3 - x over INT is
// x * -1 + 3), and an INT operand under a FLOAT node is converted by
// whoever evaluates the node. The constant is I under an INT node, F
// under a FLOAT one. Only a bare column can be TEXT.
type BoundExpr struct {
	Op   ExprOp
	Type ColType
	Col  ColID
	L, R *BoundExpr
	I    int64
	F    float64
}

// cmpCodes are the comparison operators of a value predicate.
var cmpCodes = map[string]batalg.CmpOp{
	"=": batalg.CmpEQ, "<>": batalg.CmpNE, "<": batalg.CmpLT,
	"<=": batalg.CmpLE, ">": batalg.CmpGT, ">=": batalg.CmpGE,
}

// arithOps are the operators of a two-column arithmetic node.
var arithOps = map[byte]ExprOp{'+': ExprAdd, '-': ExprSub, '*': ExprMul}

// binder carries one Bind call: the Bound under construction and which
// placeholder ordinals have been given a type.
type binder struct {
	*Bound
	typed []bool
}

// Bind resolves a parsed SELECT against the snapshot. Its errors are
// the only errors a SELECT can fail to compile with.
func (s *Snapshot) Bind(sel *Select) (*Bound, error) {
	n := NumParams(sel)
	b := &binder{
		Bound: &Bound{Ordered: sel.OrderBy != "", OrderItem: -1, Desc: sel.Desc, Limit: sel.Limit, ParamTypes: make([]ColType, n)},
		typed: make([]bool, n),
	}
	from, err := s.Table(sel.From)
	if err != nil {
		return nil, err
	}
	b.Tables = append(b.Tables, from)
	for _, j := range sel.Joins {
		t, err := s.Table(j.Table)
		if err != nil {
			return nil, err
		}
		for _, prev := range b.Tables {
			if prev.Name == t.Name {
				// Columns are owned by table name, so the same table twice
				// would be one table; self-joins need aliases, which the
				// surface language does not have.
				return nil, fmt.Errorf("sql: table %q appears twice in FROM/JOIN (self-joins are not supported)", t.Name)
			}
		}
		b.Tables = append(b.Tables, t)
	}
	for _, p := range sel.Where {
		if err := b.bindPred(p); err != nil {
			return nil, err
		}
	}
	for k, j := range sel.Joins {
		if err := b.bindJoin(j, k+1); err != nil {
			return nil, err
		}
	}
	if err := b.bindOutput(sel); err != nil {
		return nil, err
	}
	for i, ok := range b.typed {
		if !ok {
			return nil, paramOutsideWhere(i + 1)
		}
	}
	return b.Bound, nil
}

func paramOutsideWhere(ord int) error {
	return fmt.Errorf("sql: parameter ?%d: SELECT placeholders are only supported as WHERE comparison values", ord)
}

// resolve finds which table owns a column. Unqualified names take the
// first match in FROM/JOIN order.
func (b *binder) resolve(name string) (ColID, error) {
	return b.resolveIn(name, len(b.Tables)-1, false, "", "")
}

// resolveJoinCol resolves one ON column of the join bringing in
// Tables[k]: only Tables[0..k] are in scope. Unqualified names prefer
// the new table when preferNew is set (the `ON prior = new`
// convention), prior tables in FROM order otherwise.
func (b *binder) resolveJoinCol(name string, k int, preferNew bool) (ColID, error) {
	return b.resolveIn(name, k, preferNew, "join condition ", " in join condition")
}

// resolveIn resolves a column name among Tables[0..k]; before and after
// word the two not-found errors for the clause being bound.
func (b *binder) resolveIn(name string, k int, preferNew bool, before, after string) (ColID, error) {
	in := func(ti int, col string) (ColID, error) {
		t := b.Tables[ti]
		i, err := t.colIndex(col)
		if err != nil {
			return ColID{}, err
		}
		return ColID{Table: ti, Col: i, Type: t.ColTypes[i]}, nil
	}
	if tbl, col, ok := splitQualified(name); ok {
		for ti := 0; ti <= k; ti++ {
			if b.Tables[ti].Name == tbl {
				return in(ti, col)
			}
		}
		return ColID{}, fmt.Errorf("sql: unknown table %q in %s%q", tbl, before, name)
	}
	if preferNew {
		if c, err := in(k, name); err == nil {
			return c, nil
		}
	}
	for ti := 0; ti <= k; ti++ {
		if c, err := in(ti, name); err == nil {
			return c, nil
		}
	}
	return ColID{}, fmt.Errorf("sql: unknown column %q%s", name, after)
}

// bindPred resolves one WHERE conjunct and types its comparison value.
func (b *binder) bindPred(p Pred) error {
	col, err := b.resolve(p.Col)
	if err != nil {
		return err
	}
	bp := BoundPred{Col: col, Op: p.Op, Val: p.Val}
	_, isCmp := cmpCodes[p.Op]
	switch {
	case p.IsNilTest():
		// IS [NOT] NULL selects on the stored nil sentinel of any type.
	case p.Val.Null:
		// col = NULL is three-valued-logic unknown for every row; refuse
		// it loudly and point at the predicate that does ask for nils.
		return fmt.Errorf("sql: comparison with NULL is always unknown; use %q IS [NOT] NULL", p.Col)
	case !isCmp:
		return fmt.Errorf("sql: bad operator %q", p.Op)
	case p.Val.Param > 0:
		ord := p.Val.Param
		if b.typed[ord-1] && b.ParamTypes[ord-1] != col.Type {
			return fmt.Errorf("sql: parameter ?%d used as both %s and %s", ord, b.ParamTypes[ord-1], col.Type)
		}
		b.ParamTypes[ord-1], b.typed[ord-1] = col.Type, true
	case col.Type == TFloat && p.Val.Kind == TInt:
		bp.Val = Lit{Kind: TFloat, F: float64(p.Val.I)}
	case p.Val.Kind != col.Type:
		return fmt.Errorf("sql: comparing %s column %q with %v", strings.ToLower(col.Type.String()), p.Col, p.Val.Kind)
	}
	b.Where = append(b.Where, bp)
	return nil
}

// bindJoin resolves the ON pair of the JOIN bringing in Tables[k]. The
// columns may appear in either order; one must belong to Tables[k], the
// other to a prior table.
func (b *binder) bindJoin(j *JoinClause, k int) error {
	l, err := b.resolveJoinCol(j.LCol, k, false)
	if err != nil {
		return err
	}
	r, err := b.resolveJoinCol(j.RCol, k, true)
	if err != nil {
		return err
	}
	if r.Table != k {
		l, r = r, l
	}
	if r.Table != k || l.Table >= k {
		return fmt.Errorf("sql: JOIN %s ON must compare a column of %q with a column of a prior table", b.Tables[k].Name, b.Tables[k].Name)
	}
	if l.Type != r.Type {
		return fmt.Errorf("sql: join ON compares %s with %s", l.Type, r.Type)
	}
	if l.Type == TFloat {
		// Neither executor's join table keys floats (equality joins on
		// floats are a modeling smell anyway).
		return fmt.Errorf("sql: JOIN on %s keys is not supported", l.Type)
	}
	b.Joins = append(b.Joins, BoundJoin{Prior: l, New: r})
	return nil
}

// bindExpr types one scalar expression into the BoundExpr normal form.
func (b *binder) bindExpr(e Expr) (*BoundExpr, error) {
	switch x := e.(type) {
	case ColRef:
		col, err := b.resolve(x.Name)
		if err != nil {
			return nil, err
		}
		return &BoundExpr{Op: ExprCol, Type: col.Type, Col: col}, nil
	case Lit:
		if x.Param > 0 {
			return nil, paramOutsideWhere(x.Param)
		}
		return nil, fmt.Errorf("sql: bare literals in the select list are not supported")
	case BinExpr:
		if lit, ok := x.R.(Lit); ok {
			if _, also := x.L.(Lit); !also {
				return b.bindConstArith(x.L, x.Op, lit, false)
			}
		}
		if lit, ok := x.L.(Lit); ok {
			return b.bindConstArith(x.R, x.Op, lit, true)
		}
		l, err := b.bindExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := b.bindExpr(x.R)
		if err != nil {
			return nil, err
		}
		if l.Type == TText || r.Type == TText {
			return nil, fmt.Errorf("sql: arithmetic on text column")
		}
		op, ok := arithOps[x.Op]
		if !ok {
			return nil, fmt.Errorf("sql: bad operator %q", x.Op)
		}
		t := TInt
		if l.Type == TFloat || r.Type == TFloat {
			t = TFloat
		}
		return &BoundExpr{Op: op, Type: t, L: l, R: r}, nil
	}
	return nil, fmt.Errorf("sql: unsupported expression %T", e)
}

// bindConstArith types column-vs-literal arithmetic. litOnLeft matters
// only for subtraction (lit - col).
func (b *binder) bindConstArith(other Expr, op byte, lit Lit, litOnLeft bool) (*BoundExpr, error) {
	if lit.Param > 0 {
		return nil, paramOutsideWhere(lit.Param)
	}
	if lit.Null {
		return nil, fmt.Errorf("sql: NULL literals are only supported in INSERT/UPDATE values")
	}
	o, err := b.bindExpr(other)
	if err != nil {
		return nil, err
	}
	if o.Type == TText || lit.Kind == TText {
		return nil, fmt.Errorf("sql: arithmetic on text operand")
	}
	if op != '+' && op != '-' && op != '*' {
		return nil, fmt.Errorf("sql: bad operator %q", op)
	}
	if o.Type == TInt && lit.Kind == TInt {
		switch {
		case op == '+':
			return &BoundExpr{Op: ExprAddConst, Type: TInt, L: o, I: lit.I}, nil
		case op == '*':
			return &BoundExpr{Op: ExprMulConst, Type: TInt, L: o, I: lit.I}, nil
		case !litOnLeft:
			return &BoundExpr{Op: ExprAddConst, Type: TInt, L: o, I: -lit.I}, nil
		}
		neg := &BoundExpr{Op: ExprMulConst, Type: TInt, L: o, I: -1}
		return &BoundExpr{Op: ExprAddConst, Type: TInt, L: neg, I: lit.I}, nil
	}
	f := lit.F
	if lit.Kind == TInt {
		f = float64(lit.I)
	}
	switch {
	case op == '+':
		return &BoundExpr{Op: ExprAddConst, Type: TFloat, L: o, F: f}, nil
	case op == '*':
		return &BoundExpr{Op: ExprMulConst, Type: TFloat, L: o, F: f}, nil
	case litOnLeft:
		return &BoundExpr{Op: ExprConstSub, Type: TFloat, L: o, F: f}, nil
	}
	return &BoundExpr{Op: ExprAddConst, Type: TFloat, L: o, F: -f}, nil
}

// itemName returns the output label of an item.
func itemName(it SelItem, idx int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(ColRef); ok {
		if it.Agg != AggNone {
			return it.Agg.String() + "(" + cr.Name + ")"
		}
		return cr.Name
	}
	if it.Agg == AggCount && it.Expr == nil {
		return "count(*)"
	}
	return fmt.Sprintf("col%d", idx)
}

// bindOutput expands *, labels the items, classifies the shape and
// binds the select list, GROUP BY and ORDER BY under that shape's rules.
func (b *binder) bindOutput(sel *Select) error {
	var items []SelItem
	hasAgg := false
	for _, it := range sel.Items {
		if !it.Star {
			items = append(items, it)
			hasAgg = hasAgg || it.Agg != AggNone
			continue
		}
		for _, t := range b.Tables {
			for _, cn := range t.ColNames {
				items = append(items, SelItem{Expr: ColRef{Name: t.Name + "." + cn}, Alias: cn})
			}
		}
	}
	b.Names = make([]string, len(items))
	for i, it := range items {
		b.Names[i] = itemName(it, i)
	}
	b.Items = make([]BoundItem, len(items))

	switch {
	case sel.Grouped():
		b.Shape = ShapeGrouped
		// Multi-key grouping pairs int64 halves in the composite-key
		// table, so only a lone key may be FLOAT or TEXT.
		for ki, name := range sel.GroupBy {
			col, err := b.resolve(name)
			if err != nil {
				return err
			}
			if ki > 0 && col.Type != TInt {
				return fmt.Errorf("sql: GROUP BY key %q must be INT when grouping by multiple columns", name)
			}
			b.GroupBy = append(b.GroupBy, col)
		}
	case hasAgg:
		b.Shape = ShapeGlobalAgg
	}

	for i, it := range items {
		switch {
		case it.Agg != AggNone:
			if it.Expr == nil { // count(*)
				b.Items[i] = BoundItem{Agg: it.Agg}
				continue
			}
			e, err := b.bindExpr(it.Expr)
			if err != nil {
				return err
			}
			if e.Type == TText && it.Agg != AggCount {
				return fmt.Errorf("sql: %s over a text column is not supported", it.Agg)
			}
			b.Items[i] = BoundItem{Agg: it.Agg, Expr: e}
		case b.Shape == ShapeGlobalAgg:
			return fmt.Errorf("sql: mixing aggregates and plain columns requires GROUP BY")
		case b.Shape == ShapeGrouped:
			// A plain column in a grouped query must be one of the group
			// keys, whichever way either is spelled.
			cr, ok := it.Expr.(ColRef)
			if !ok {
				return fmt.Errorf("sql: non-aggregate expression in GROUP BY query")
			}
			e, err := b.bindExpr(cr)
			if err != nil {
				return err
			}
			ki := indexOf(b.GroupBy, e.Col)
			if ki < 0 {
				return fmt.Errorf("sql: column %q not in GROUP BY", cr.Name)
			}
			b.Items[i] = BoundItem{Expr: e, GroupKey: ki}
		default:
			e, err := b.bindExpr(it.Expr)
			if err != nil {
				return err
			}
			b.Items[i] = BoundItem{Expr: e}
		}
	}
	if !b.Ordered || b.Shape == ShapeGlobalAgg {
		return nil
	}

	// ORDER BY names an output label first — the FIRST item carrying
	// it, so a duplicated alias orders by the leftmost.
	for i, name := range b.Names {
		if name == sel.OrderBy {
			b.OrderItem = i
			return nil
		}
	}
	if b.Shape == ShapeGrouped {
		// Otherwise a group key that is projected, by (table, column)
		// identity: ORDER BY a finds the item spelled t.a.
		if col, err := b.resolve(sel.OrderBy); err == nil {
			for i, it := range b.Items {
				if it.Agg == AggNone && it.Expr.Col == col {
					b.OrderItem = i
					return nil
				}
			}
		}
		return fmt.Errorf("sql: ORDER BY %q must name an output column", sel.OrderBy)
	}
	// Plain: otherwise an item that is this column reference as
	// spelled, otherwise a column that is not projected at all.
	for i, it := range items {
		if cr, ok := it.Expr.(ColRef); ok && cr.Name == sel.OrderBy {
			b.OrderItem = i
			return nil
		}
	}
	col, err := b.resolve(sel.OrderBy)
	b.OrderCol = col
	return err
}

func indexOf(cols []ColID, c ColID) int {
	for i, x := range cols {
		if x == c {
			return i
		}
	}
	return -1
}
