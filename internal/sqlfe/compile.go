package sqlfe

import "repro/internal/mal"

// gen generates the MAL program of one Bound SELECT. It follows the
// MonetDB/SQL strategy: build a candidate list per table (WHERE
// conjuncts chained over candidates, deleted positions subtracted),
// then positional fetches for every needed column, then bulk
// arithmetic, grouping, aggregation, sorting. Everything it reads was
// resolved and checked by Bind, so it has no error path.
type gen struct {
	*Bound
	b *mal.Builder

	// cands holds the candidate-list variable of each table,
	// index-aligned with Tables. Before a table's join step its
	// candidate list is per-table (live rows minus its WHERE conjuncts);
	// after, all already-joined lists are row-aligned with each other —
	// one entry per intermediate row — so joins compile as a strict
	// left-to-right fold. That textual fold is deliberately order-naive:
	// it is the baseline the vectorized planner's greedy join ordering
	// is benchmarked against.
	cands []int
}

// CompileSelect compiles a SELECT statement to MAL.
func (s *Snapshot) CompileSelect(sel *Select) (*mal.Program, error) {
	prog, _, err := s.CompileSelectBound(sel)
	return prog, err
}

// CompileSelectBound binds a SELECT that may contain ? placeholders and
// compiles it to MAL. Placeholders become typed MAL bind slots (mal.P):
// the program is compiled and optimized once, and each execution
// supplies values via mal.Interp.Params. The returned slice gives the
// expected column type of each slot, in ordinal order.
func (s *Snapshot) CompileSelectBound(sel *Select) (*mal.Program, []ColType, error) {
	b, err := s.Bind(sel)
	if err != nil {
		return nil, nil, err
	}
	return b.CompileMAL(), b.ParamTypes, nil
}

// CompileMAL generates the optimized MAL program of a bound SELECT.
func (bd *Bound) CompileMAL() *mal.Program {
	g := &gen{Bound: bd, b: mal.NewBuilder()}
	g.candidates()
	switch g.Shape {
	case ShapeGrouped:
		g.grouped()
	case ShapeGlobalAgg:
		g.globalAggs()
	default:
		g.plain()
	}
	return mal.DefaultPipeline().Run(g.b.Program())
}

// bindCol emits bind of a table column.
func (g *gen) bindCol(c ColID) int {
	t := g.Tables[c.Table]
	return g.b.Emit("bind", mal.CS(t.Name+"."+t.ColNames[c.Col]))
}

// fetchCol emits a column's values aligned with the candidate lists.
func (g *gen) fetchCol(c ColID) int {
	col := g.bindCol(c)
	return g.b.Emit("fetch", mal.V(g.cands[c.Table]), mal.V(col))
}

// liveCand emits the candidate list of live (non-deleted) positions.
func (g *gen) liveCand(ti int) int {
	anyCol := g.bindCol(ColID{Table: ti})
	all := g.b.Emit("mirror", mal.V(anyCol))
	del := g.b.Emit("bind", mal.CS(g.Tables[ti].Name+".%del"))
	return g.b.Emit("diff", mal.V(all), mal.V(del))
}

// predCand emits the candidate list for one predicate over a full
// column. IS [NOT] NULL selects on the stored nil sentinel (bat.NilInt,
// the canonical NaN, bat.NilStr) — the MAL op handles all tail types
// uniformly. A comparison picks its op by the column's type; the value
// is a constant, or for a placeholder a typed bind slot whose value
// arrives at execution time through Interp.Params.
func (g *gen) predCand(p BoundPred) int {
	col := g.bindCol(p.Col)
	switch p.Op {
	case "isnull":
		return g.b.Emit("select_nil", mal.V(col))
	case "isnotnull":
		return g.b.Emit("select_notnil", mal.V(col))
	}
	var op string
	var val mal.Arg
	switch p.Col.Type {
	case TInt:
		op, val = "theta_select", mal.CI(p.Val.I)
	case TFloat:
		op, val = "theta_select_flt", mal.CF(p.Val.F)
	default:
		op, val = "select_str", mal.CS(p.Val.S)
	}
	if p.Val.Param > 0 {
		val = mal.P(p.Val.Param)
	}
	return g.b.Emit(op, mal.V(col), mal.CI(int64(cmpCodes[p.Op])), val)
}

// candidates computes every table's candidate list, applying WHERE
// conjuncts and the deleted filter per table, then folds the join chain
// left to right: each join step maps all already-joined candidate lists
// through the join's left output (keeping them row-aligned) and the new
// table's list through the right output.
func (g *gen) candidates() {
	g.cands = make([]int, len(g.Tables))
	for ti := range g.Tables {
		g.cands[ti] = g.liveCand(ti)
	}
	for _, p := range g.Where {
		ti := p.Col.Table
		g.cands[ti] = g.b.Emit("intersect", mal.V(g.cands[ti]), mal.V(g.predCand(p)))
	}
	for i, j := range g.Joins {
		k := i + 1
		lvals, rvals := g.fetchCol(j.Prior), g.fetchCol(j.New)
		op := "join"
		if j.New.Type == TText {
			op = "join_str"
		}
		lo, ro := g.b.Emit2(op, mal.V(lvals), mal.V(rvals))
		// lvals is row-aligned with EVERY already-joined candidate list,
		// so the join's left positions remap all of them at once.
		for ti := 0; ti < k; ti++ {
			g.cands[ti] = g.b.Emit("fetch", mal.V(lo), mal.V(g.cands[ti]))
		}
		g.cands[k] = g.b.Emit("fetch", mal.V(ro), mal.V(g.cands[k]))
	}
}

// exprOps names the MAL primitive of each arithmetic BoundExpr node, by
// node type: {INT, FLOAT}.
var exprOps = [...][2]string{
	ExprAdd:      {"add", "add_flt"},
	ExprSub:      {"sub", "sub_flt"},
	ExprMul:      {"mul", "mul_flt"},
	ExprAddConst: {"add_scalar", "add_scalar_flt"},
	ExprMulConst: {"mul_scalar", "mul_scalar_flt"},
	ExprConstSub: {"", "sub_const_flt"},
}

// expr emits MAL computing e as a column aligned with the candidate
// lists.
func (g *gen) expr(e *BoundExpr) int {
	if e.Op == ExprCol {
		return g.fetchCol(e.Col)
	}
	// Operands first, then the INT-to-FLOAT conversions the node's type
	// asks for.
	lv := g.expr(e.L)
	rv := -1
	if e.R != nil {
		rv = g.expr(e.R)
	}
	widen := func(v int, operand *BoundExpr) int {
		if e.Type == TFloat && operand.Type == TInt {
			return g.b.Emit("int_to_flt", mal.V(v))
		}
		return v
	}
	lv = widen(lv, e.L)
	op := exprOps[e.Op][e.Type]
	k := mal.CI(e.I)
	if e.Type == TFloat {
		k = mal.CF(e.F)
	}
	switch e.Op {
	case ExprAddConst, ExprMulConst:
		return g.b.Emit(op, mal.V(lv), k)
	case ExprConstSub:
		return g.b.Emit(op, k, mal.V(lv))
	}
	return g.b.Emit(op, mal.V(lv), mal.V(widen(rv, e.R)))
}

// sorted emits the ORDER BY / LIMIT tail shared by the plain and
// grouped forms and reorders vars by it: a chain of stable ascending
// sorts over the nties tiebreak columns tie(i), least-significant
// (highest i) first, then the key sort last (sort_desc fully reverses a
// stable ascending sort, so a descending query reverses the whole
// lexicographic order — ties included — exactly as the vectorized sort
// does). With no ties the order is the stable sort of the key alone.
func (g *gen) sorted(key, nties int, tie func(i int) int, vars []int) {
	order := -1
	for i := nties - 1; i >= 0; i-- {
		v := tie(i)
		if order < 0 {
			_, order = g.b.Emit2("sort", mal.V(v))
			continue
		}
		v = g.b.Emit("fetch", mal.V(order), mal.V(v))
		_, o2 := g.b.Emit2("sort", mal.V(v))
		order = g.b.Emit("fetch", mal.V(o2), mal.V(order))
	}
	op := "sort"
	if g.Desc {
		op = "sort_desc"
	}
	if order < 0 {
		_, order = g.b.Emit2(op, mal.V(key))
	} else {
		kv := g.b.Emit("fetch", mal.V(order), mal.V(key))
		_, o2 := g.b.Emit2(op, mal.V(kv))
		order = g.b.Emit("fetch", mal.V(o2), mal.V(order))
	}
	if g.Limit >= 0 {
		order = g.b.Emit("head", mal.V(order), mal.CI(int64(g.Limit)))
	}
	for i := range vars {
		vars[i] = g.b.Emit("fetch", mal.V(order), mal.V(vars[i]))
	}
}

func (g *gen) plain() {
	// Early LIMIT without ORDER BY: cut the (row-aligned) candidate
	// lists first.
	if g.Limit >= 0 && !g.Ordered {
		for i := range g.cands {
			g.cands[i] = g.b.Emit("head", mal.V(g.cands[i]), mal.CI(int64(g.Limit)))
		}
	}
	vars := make([]int, len(g.Items))
	for i, it := range g.Items {
		vars[i] = g.expr(it.Expr)
	}
	if g.Ordered {
		var key int
		if g.OrderItem >= 0 {
			key = vars[g.OrderItem]
		} else {
			key = g.fetchCol(g.OrderCol)
		}
		// Canonical join-output order: a join has no meaningful row
		// order to be stable against, so ties on the sort key break by
		// every output column left to right. TEXT items are skipped: they
		// never reach the vectorized path, so their relative order is
		// MAL's alone to define.
		var ties []int
		if len(g.Joins) > 0 {
			for i, it := range g.Items {
				if it.Expr.Type != TText {
					ties = append(ties, vars[i])
				}
			}
		}
		g.sorted(key, len(ties), func(i int) int { return ties[i] }, vars)
	}
	g.b.Return(g.Names, vars...)
}

func (g *gen) globalAggs() {
	vars := make([]int, len(g.Items))
	if g.Limit == 0 {
		// LIMIT 0 of the one aggregate row: every column is empty.
		none := g.b.Emit("head", mal.V(g.cands[0]), mal.CI(0))
		for i := range vars {
			vars[i] = none
		}
		g.b.Return(g.Names, vars...)
		return
	}
	for i, it := range g.Items {
		if it.Expr == nil {
			// count(*) counts candidate rows.
			vars[i] = g.b.Emit("count", mal.V(g.cands[0]))
			continue
		}
		v := g.expr(it.Expr)
		switch it.Agg {
		case AggCount:
			// count(col) skips nils.
			vars[i] = g.b.Emit("count_nn", mal.V(v))
		case AggAvg:
			// avg = sum / non-nil count; div_scalar yields NULL when the
			// count is zero (empty or all-nil input), per SQL.
			s := g.b.Emit("sum", mal.V(v))
			n := g.b.Emit("count_nn", mal.V(v))
			vars[i] = g.b.Emit("div_scalar", mal.V(s), mal.V(n))
		default: // sum, min, max: the MAL primitive of the same name
			vars[i] = g.b.Emit(it.Agg.String(), mal.V(v))
		}
	}
	g.b.Return(g.Names, vars...)
}

func (g *gen) grouped() {
	// Multi-key GROUP BY refines the grouping one key at a time: group on
	// the first key, then subgroup on each further key column (the MAL
	// subgroup op pairs the previous group ids with the new values as a
	// 2-wide key of the shared radix.GroupTable). The final ids/ext/cnt
	// describe the composite groups; every key column's representative
	// values are fetched through the final extents.
	keyVals := make([]int, len(g.GroupBy)) // key values aligned with the candidate lists
	var ids, ext, cnt int
	for ki, key := range g.GroupBy {
		keyVals[ki] = g.fetchCol(key)
		if ki == 0 {
			ids, ext, cnt = g.b.Emit3("group", mal.V(keyVals[ki]))
		} else {
			ids, ext, cnt = g.b.Emit3("subgroup", mal.V(ids), mal.V(ext), mal.V(cnt), mal.V(keyVals[ki]))
		}
	}

	vars := make([]int, len(g.Items))
	for i, it := range g.Items {
		switch {
		case it.Agg == AggNone:
			// A group key's per-group value is the representative row's.
			vars[i] = g.b.Emit("fetch", mal.V(ext), mal.V(keyVals[it.GroupKey]))
		case it.Expr == nil:
			// count(*) is the group size.
			vars[i] = cnt
		case it.Agg == AggAvg:
			// Per-group avg divides by the group's NON-nil count, not its
			// cardinality; an all-nil group has a zero count and
			// div_flt_nil yields the float nil (NaN, rendered as NULL).
			v := g.expr(it.Expr)
			s := g.b.Emit("sum_per_group", mal.V(v), mal.V(ids), mal.V(ext))
			if it.Expr.Type == TInt {
				s = g.b.Emit("int_to_flt", mal.V(s))
			}
			nn := g.b.Emit("count_nn_per_group", mal.V(v), mal.V(ids), mal.V(ext))
			nf := g.b.Emit("int_to_flt", mal.V(nn))
			vars[i] = g.b.Emit("div_flt_nil", mal.V(s), mal.V(nf))
		default:
			// count(col) skips nils, like sum/min/max.
			op := it.Agg.String() + "_per_group"
			if it.Agg == AggCount {
				op = "count_nn_per_group"
			}
			vars[i] = g.b.Emit(op, mal.V(g.expr(it.Expr)), mal.V(ids), mal.V(ext))
		}
	}
	switch {
	case g.Ordered:
		// Canonical grouped order: groups tying on the ordered item break
		// by the full group-key tuple (each key's representative value),
		// so both engines emit one well-defined row order. TEXT keys are
		// skipped: they never reach the vectorized path.
		var ties []int
		for ki, key := range g.GroupBy {
			if key.Type != TText {
				ties = append(ties, keyVals[ki])
			}
		}
		rep := func(i int) int { return g.b.Emit("fetch", mal.V(ext), mal.V(ties[i])) }
		g.sorted(vars[g.OrderItem], len(ties), rep, vars)
	case g.Limit >= 0:
		for i := range vars {
			lim := g.b.Emit("mirror", mal.V(vars[i]))
			lim = g.b.Emit("head", mal.V(lim), mal.CI(int64(g.Limit)))
			vars[i] = g.b.Emit("fetch", mal.V(lim), mal.V(vars[i]))
		}
	}
	g.b.Return(g.Names, vars...)
}
