package physical

import (
	"slices"

	"repro/internal/sqlfe"
	"repro/internal/vector"
)

// Lower binds a parsed SELECT and lowers it. A statement that does not
// bind has neither a plan nor a routing reason — (nil, nil): its error
// is sqlfe.Snapshot.Bind's to report, which every caller that prepares
// a statement has already asked for.
func Lower(sel *sqlfe.Select, snap *sqlfe.Snapshot) (*Plan, *Fallback) {
	b, err := snap.Bind(sel)
	if err != nil {
		return nil, nil
	}
	return LowerBound(b)
}

// LowerBound emits the physical-plan tree of a bound SELECT, or a typed
// Fallback naming why the statement must run on the MAL interpreter
// instead. The binder has already resolved every name and rejected
// every illegal statement, so the checks here only decide ROUTING — per
// operator, not per query shape — and a Fallback is never an error in
// disguise.
//
// Every plan has one skeleton, Project ← Sort? ← GroupAgg? ← pipeline.
// FROM/JOIN clauses of any length lower into one JoinTreeNode (one
// table: a Scan, filtered when WHERE has a conjunct); GROUP BY and
// global aggregates (zero keys) into a GroupAggNode; ORDER BY into a
// SortNode; so N-way joins, grouped joins and ordered joins run
// vectorized. The structural fallbacks are per-column/per-operator:
// TEXT anywhere in the pipeline, non-INT join or group keys, plain
// (non-aggregated) arithmetic items.
func LowerBound(b *sqlfe.Bound) (*Plan, *Fallback) {
	p := &planner{b: b, scans: make([]*ScanNode, len(b.Tables)), preds: make([][]Pred, len(b.Tables))}
	for i, t := range b.Tables {
		p.scans[i] = &ScanNode{Table: t.Name}
	}
	// WHERE conjuncts route to the leaf owning their column.
	for _, wp := range b.Where {
		if fb := p.textFallback(wp.Col); fb != nil {
			return nil, fb
		}
		p.preds[wp.Col.Table] = append(p.preds[wp.Col.Table],
			Pred{Col: p.source(wp.Col), Op: wp.Op, Type: wp.Col.Type, Lit: wp.Val, Param: wp.Val.Param})
	}
	// JOIN edges, in textual order (Tables[k+1] joins the prefix).
	for _, j := range b.Joins {
		if j.New.Type != sqlfe.TInt {
			// The shared open-addressing table keys int64; text joins stay
			// on MAL's join_str.
			return nil, fallback(ReasonJoinKeyType, "ON compares %s keys", j.New.Type)
		}
		p.edges = append(p.edges, JoinEdge{A: j.Prior.Table, B: j.New.Table, AKey: p.source(j.Prior), BKey: p.source(j.New)})
	}
	lower := p.lowerAgg
	if b.Shape == sqlfe.ShapePlain {
		lower = p.lowerPlain
	}
	root, fb := lower()
	if fb != nil {
		return nil, fb
	}
	return &Plan{Root: root, Limit: b.Limit, Names: b.Names}, nil
}

// planner carries one LowerBound invocation's state: the per-table
// scans being populated with referenced columns, the predicate lists
// routed to each, and the join edges in textual order.
type planner struct {
	b     *sqlfe.Bound
	scans []*ScanNode
	preds [][]Pred
	edges []JoinEdge
}

// textFallback routes a TEXT column to MAL: the pipeline moves int and
// float vectors only.
func (p *planner) textFallback(c sqlfe.ColID) *Fallback {
	if c.Type != sqlfe.TText {
		return nil
	}
	t := p.b.Tables[c.Table]
	return fallback(ReasonTextColumn, "column %s.%s is TEXT", t.Name, t.ColNames[c.Col])
}

// source registers a (non-TEXT) column in its leaf's scan on first use
// and returns its position within that scan.
func (p *planner) source(c sqlfe.ColID) int {
	return p.scans[c.Table].col(c.Col, c.Type, p.b.Tables[c.Table].ColNames[c.Col])
}

// sourceExpr registers every column an expression reads.
func (p *planner) sourceExpr(e *sqlfe.BoundExpr) {
	if e.Op == sqlfe.ExprCol {
		p.source(e.Col)
		return
	}
	p.sourceExpr(e.L)
	if e.R != nil {
		p.sourceExpr(e.R)
	}
}

// virt is a column's virtual position — its offset in the FROM-order
// concatenation of the leaves' pipeline columns (for a single-table
// plan, the pipeline position). Positions are final only once lowering
// has registered EVERY column (late registrations grow earlier leaves'
// layouts), so node assembly calls virt last.
func (p *planner) virt(c sqlfe.ColID) int {
	off := 0
	for ti := 0; ti < c.Table; ti++ {
		off += len(p.scans[ti].Cols)
	}
	return off + p.source(c)
}

// child assembles the plan subtree producing the (virtual) pipeline:
// a Filter-over-Scan for one table, a JoinTreeNode for many.
func (p *planner) child() Node {
	if len(p.scans) == 1 {
		var n Node = p.scans[0]
		if len(p.preds[0]) > 0 {
			n = &FilterNode{Child: n, Preds: p.preds[0]}
		}
		return n
	}
	leaves := make([]JoinLeaf, len(p.scans))
	for i := range p.scans {
		leaves[i] = JoinLeaf{Scan: p.scans[i], Preds: p.preds[i]}
	}
	return &JoinTreeNode{Leaves: leaves, Edges: p.edges}
}

// --- plain projection, optionally sorted ---

func (p *planner) lowerPlain() (Node, *Fallback) {
	b := p.b
	for i, it := range b.Items {
		if it.Expr.Op != sqlfe.ExprCol {
			return nil, fallback(ReasonExprInSelect, "item %d", i+1)
		}
		if fb := p.textFallback(it.Expr.Col); fb != nil {
			return nil, fb
		}
		p.source(it.Expr.Col)
	}
	key := b.OrderCol
	if b.OrderItem >= 0 {
		key = b.Items[b.OrderItem].Expr.Col
	}
	if b.Ordered {
		if key.Type == sqlfe.TText {
			return nil, fallback(ReasonOrderKeyType, "key %q is TEXT", b.Tables[key.Table].ColNames[key.Col])
		}
		p.source(key)
	}

	// Every column is registered now; materialize virtual positions.
	vouts := make([]int, len(b.Items))
	for i, it := range b.Items {
		vouts[i] = p.virt(it.Expr.Col)
	}
	root := p.child()
	if b.Ordered {
		sn := &SortNode{Child: root, Key: p.virt(key), Desc: b.Desc, Limit: b.Limit}
		if len(b.Tables) > 1 {
			// Canonical join-output order: ties on the key break by every
			// output column left to right (both engines sort this way — a
			// join has no meaningful row-id order to be stable against).
			sn.Ties = append([]int{}, vouts...)
		}
		root = sn
	}
	return &ProjectNode{Child: root, Outs: vouts}, nil
}

// --- aggregates: grouped, or global (no keys), optionally sorted ---

func (p *planner) lowerAgg() (Node, *Fallback) {
	b := p.b
	// The grouping table assigns dense ids over int64 key tuples of any
	// width. Text and float keys fall back to MAL's grouping. NULL keys
	// are fine: the table treats bat.NilInt as an ordinary key, so all
	// NULLs form one group per SQL.
	for _, k := range b.GroupBy {
		if k.Type != sqlfe.TInt {
			return nil, fallback(ReasonGroupKeyType, "key %q is %s", b.Tables[k.Table].ColNames[k.Col], k.Type)
		}
		p.source(k)
	}
	agg := &aggBuilder{p: p}
	for _, it := range b.Items {
		if it.Agg == sqlfe.AggNone {
			agg.outs = append(agg.outs, AggOut{Key: true, KeyIdx: it.GroupKey, Acc: -1, CntAcc: -1})
		} else if fb := agg.item(it); fb != nil {
			return nil, fb
		}
	}
	accs, pre := agg.materialize(b.GroupBy)
	vkeys := make([]int, len(b.GroupBy))
	for i, k := range b.GroupBy {
		if pre != nil {
			vkeys[i] = i // keys lead the Pre projection
		} else {
			vkeys[i] = p.virt(k)
		}
	}
	g := &GroupAggNode{Child: p.child(), Keys: vkeys, Accs: accs, Outs: agg.outs, Pre: pre}
	outs := make([]int, len(b.Items))
	for i := range outs {
		outs[i] = i
	}
	if b.OrderItem < 0 {
		// No ORDER BY, or one over a global aggregate: the binder leaves
		// that unresolved, as a one-row result has nothing to order.
		return &ProjectNode{Child: g, Outs: outs}, nil
	}
	// Grouped ORDER BY names an output item; ties break on the full
	// group-key tuple, which group rows are unique on, so the order is
	// total on both engines. A projected key ties through its item; the
	// node emits the others after the items, for the Project to drop.
	ties := make([]int, len(b.GroupBy))
	for ki := range ties {
		ties[ki] = slices.IndexFunc(g.Outs, func(o AggOut) bool { return o.Key && o.KeyIdx == ki })
		if ties[ki] < 0 {
			ties[ki] = len(g.Outs)
			g.Outs = append(g.Outs, AggOut{Key: true, KeyIdx: ki, Acc: -1, CntAcc: -1})
		}
	}
	sn := &SortNode{Child: g, Key: b.OrderItem, Ties: ties, Desc: b.Desc, Limit: b.Limit}
	return &ProjectNode{Child: sn, Outs: outs}, nil
}

// --- aggregate sources (plain columns and arithmetic expressions) ---

// vecOps names the vector kernel of each arithmetic BoundExpr node, by
// node type: {INT, FLOAT}. The nil-propagating kernels produce
// bit-identical columns to MAL's primitives (including int wraparound
// and the exact nil/NaN promotions).
var vecOps = [...][2]vector.ExprOp{
	sqlfe.ExprAdd:      {vector.EAddIntNil, vector.EAddFloat},
	sqlfe.ExprSub:      {vector.ESubIntNil, vector.ESubFloat},
	sqlfe.ExprMul:      {vector.EMulIntNil, vector.EMulFloat},
	sqlfe.ExprAddConst: {vector.EAddIntConstNil, vector.EAddFloatConst},
	sqlfe.ExprMulConst: {vector.EMulIntConstNil, vector.EMulFloatConst},
	sqlfe.ExprConstSub: {0, vector.ESubConstFloat}, // FLOAT only
}

// vexpr materializes a bound expression over the final column layout.
func (p *planner) vexpr(e *sqlfe.BoundExpr) vector.Expr {
	if e.Op == sqlfe.ExprCol {
		return vector.ColRef{Idx: p.virt(e.Col)}
	}
	operand := func(o *sqlfe.BoundExpr) vector.Expr {
		if e.Type == sqlfe.TFloat && o.Type == sqlfe.TInt {
			return vector.Bin{Op: vector.EIntToFloat, L: p.vexpr(o)}
		}
		return p.vexpr(o)
	}
	out := vector.Bin{Op: vecOps[e.Op][e.Type], L: operand(e.L), IntConst: e.I, FltConst: e.F}
	if e.R != nil {
		out.R = operand(e.R)
	}
	return out
}

// aggBuilder accumulates the accumulator columns and per-item mappings
// of an aggregate's items. Accumulator sources are symbolic (srcs
// indexes) until materialize resolves them against the final layout —
// directly to virtual positions when every source is a plain column,
// through a Pre expression projection otherwise.
type aggBuilder struct {
	p    *planner
	srcs []*sqlfe.BoundExpr // aggregate arguments
	accs []AccSpec          // Col = index into srcs; -1 for count(*)
	outs []AggOut
}

// src registers an aggregate argument, deduplicating plain columns (so
// sum(x)+avg(x) share one source, keeping accumulator layouts stable).
func (a *aggBuilder) src(e *sqlfe.BoundExpr) int {
	a.p.sourceExpr(e)
	if e.Op == sqlfe.ExprCol {
		for i, s := range a.srcs {
			if s.Op == sqlfe.ExprCol && s.Col == e.Col {
				return i
			}
		}
	}
	a.srcs = append(a.srcs, e)
	return len(a.srcs) - 1
}

// need registers an accumulator column once per (kind, source).
func (a *aggBuilder) need(kind vector.AggKind, src int) int {
	for i, s := range a.accs {
		if s.Kind == kind && s.Col == src {
			return i
		}
	}
	a.accs = append(a.accs, AccSpec{Kind: kind, Col: src})
	return len(a.accs) - 1
}

// item lowers one aggregate select item.
func (a *aggBuilder) item(it sqlfe.BoundItem) *Fallback {
	if it.Expr == nil { // count(*)
		a.outs = append(a.outs, AggOut{Fn: sqlfe.AggCount, Acc: a.need(vector.AggCount, -1), CntAcc: -1})
		return nil
	}
	if it.Expr.Type == sqlfe.TText { // count(s): only a bare column can be TEXT
		return a.p.textFallback(it.Expr.Col)
	}
	si := a.src(it.Expr)
	isFlt := it.Expr.Type == sqlfe.TFloat
	cntKind := vector.AggCountNNInt
	if isFlt {
		cntKind = vector.AggCountNNFloat
	}
	switch it.Agg {
	case sqlfe.AggCount: // count(col/expr): non-nil count
		a.outs = append(a.outs, AggOut{Fn: sqlfe.AggCount, Acc: a.need(cntKind, si), CntAcc: -1})
	case sqlfe.AggSum, sqlfe.AggAvg:
		sumKind := vector.AggSumIntNil
		if isFlt {
			sumKind = vector.AggSumFloatNil
		}
		a.outs = append(a.outs, AggOut{Fn: it.Agg, Acc: a.need(sumKind, si), CntAcc: a.need(cntKind, si), Flt: isFlt || it.Agg == sqlfe.AggAvg})
	case sqlfe.AggMin, sqlfe.AggMax:
		var kind vector.AggKind
		switch {
		case it.Agg == sqlfe.AggMin && isFlt:
			kind = vector.AggMinFloat
		case it.Agg == sqlfe.AggMin:
			kind = vector.AggMinInt
		case isFlt:
			kind = vector.AggMaxFloat
		default:
			kind = vector.AggMaxInt
		}
		a.outs = append(a.outs, AggOut{Fn: it.Agg, Acc: a.need(kind, si), CntAcc: -1, Flt: isFlt})
	}
	return nil
}

// materialize resolves accumulator sources against the final column
// layout. When every source is a plain column the accumulators index
// the child pipeline directly (virtual positions) and Pre is nil. With
// any expression source, a Pre projection [keys..., sources...] is
// emitted and the accumulators index its outputs.
func (a *aggBuilder) materialize(keys []sqlfe.ColID) ([]AccSpec, []vector.Expr) {
	hasExpr := false
	for _, s := range a.srcs {
		hasExpr = hasExpr || s.Op != sqlfe.ExprCol
	}
	accs := append([]AccSpec(nil), a.accs...)
	if !hasExpr {
		for i := range accs {
			if accs[i].Col >= 0 {
				accs[i].Col = a.p.virt(a.srcs[accs[i].Col].Col)
			}
		}
		return accs, nil
	}
	pre := make([]vector.Expr, 0, len(keys)+len(a.srcs))
	for _, k := range keys {
		pre = append(pre, vector.ColRef{Idx: a.p.virt(k)})
	}
	for _, s := range a.srcs {
		pre = append(pre, a.p.vexpr(s))
	}
	for i := range accs {
		if accs[i].Col >= 0 {
			accs[i].Col += len(keys)
		}
	}
	return accs, pre
}
