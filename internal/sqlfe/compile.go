package sqlfe

import (
	"fmt"

	"repro/internal/batalg"
	"repro/internal/mal"
)

// compiler translates one SELECT into a MAL program against a Snapshot.
// It follows the MonetDB/SQL strategy: build a candidate list per table
// (WHERE conjuncts chained over candidates, deleted positions subtracted),
// then positional fetches for every needed column, then bulk arithmetic,
// grouping, aggregation, sorting.
type compiler struct {
	b    *mal.Builder
	snap *Snapshot
	sel  *Select

	// tables holds the FROM table followed by every JOIN table in
	// textual order; cands holds the candidate-list variable for each,
	// index-aligned. Before a table's join step its candidate list is
	// per-table (live rows minus its WHERE conjuncts); after, all
	// already-joined lists are row-aligned with each other — one entry
	// per intermediate row — so joins compile as a strict left-to-right
	// fold. That textual fold is deliberately order-naive: it is the
	// baseline the vectorized planner's greedy join ordering is
	// benchmarked against.
	tables []*Table
	cands  []int

	// params maps ? placeholder ordinals to the column type each slot
	// compares against; a prepared statement coerces its arguments to
	// these types before execution.
	params map[int]ColType
}

// CompileSelect compiles a SELECT statement to MAL.
func (s *Snapshot) CompileSelect(sel *Select) (*mal.Program, error) {
	prog, _, err := s.CompileSelectBound(sel)
	return prog, err
}

// CompileSelectBound compiles a SELECT that may contain ? placeholders.
// Placeholders become typed MAL bind slots (mal.P): the program is
// compiled and optimized once, and each execution supplies values via
// mal.Interp.Params. The returned slice gives the expected column type
// of each slot, in ordinal order.
func (s *Snapshot) CompileSelectBound(sel *Select) (*mal.Program, []ColType, error) {
	c := &compiler{b: mal.NewBuilder(), snap: s, sel: sel}
	from, err := s.Table(sel.From)
	if err != nil {
		return nil, nil, err
	}
	c.tables = append(c.tables, from)
	for _, j := range sel.Joins {
		t, err := s.Table(j.Table)
		if err != nil {
			return nil, nil, err
		}
		for _, prev := range c.tables {
			if prev.Name == t.Name {
				// Candidate lists are keyed by table, so the same table
				// twice would alias one list; self-joins need aliases,
				// which the surface language does not have.
				return nil, nil, fmt.Errorf("sql: table %q appears twice in FROM/JOIN (self-joins are not supported)", t.Name)
			}
		}
		c.tables = append(c.tables, t)
	}
	if err := c.buildCandidates(); err != nil {
		return nil, nil, err
	}
	if err := c.buildOutput(); err != nil {
		return nil, nil, err
	}
	n := NumParams(sel)
	ptypes := make([]ColType, n)
	for i := 1; i <= n; i++ {
		t, ok := c.params[i]
		if !ok {
			return nil, nil, fmt.Errorf("sql: parameter ?%d: SELECT placeholders are only supported as WHERE comparison values", i)
		}
		ptypes[i-1] = t
	}
	return mal.DefaultPipeline().Run(c.b.Program()), ptypes, nil
}

// noteParam records the column type placeholder ord compares against.
func (c *compiler) noteParam(ord int, t ColType) error {
	if c.params == nil {
		c.params = map[int]ColType{}
	}
	if prev, ok := c.params[ord]; ok && prev != t {
		return fmt.Errorf("sql: parameter ?%d used as both %s and %s", ord, prev, t)
	}
	c.params[ord] = t
	return nil
}

// resolve finds which table owns a column; returns the table and its
// index. Unqualified names take the first match in FROM/JOIN order.
func (c *compiler) resolve(name string) (*Table, int, error) {
	if tbl, col, ok := splitQualified(name); ok {
		for _, t := range c.tables {
			if t.Name == tbl {
				i, err := t.colIndex(col)
				return t, i, err
			}
		}
		return nil, 0, fmt.Errorf("sql: unknown table %q in %q", tbl, name)
	}
	for _, t := range c.tables {
		if i, err := t.colIndex(name); err == nil {
			return t, i, nil
		}
	}
	return nil, 0, fmt.Errorf("sql: unknown column %q", name)
}

// tableIndex returns a table's position in FROM/JOIN order.
func (c *compiler) tableIndex(t *Table) int {
	for i, x := range c.tables {
		if x == t {
			return i
		}
	}
	return -1
}

// bindCol emits bind of a table column.
func (c *compiler) bindCol(t *Table, i int) int {
	return c.b.Emit("bind", mal.CS(t.Name+"."+t.ColNames[i]))
}

// liveCand emits the candidate list of live (non-deleted) positions.
func (c *compiler) liveCand(t *Table) int {
	anyCol := c.bindCol(t, 0)
	all := c.b.Emit("mirror", mal.V(anyCol))
	del := c.b.Emit("bind", mal.CS(t.Name+".%del"))
	return c.b.Emit("diff", mal.V(all), mal.V(del))
}

func cmpCode(op string) (batalg.CmpOp, error) {
	switch op {
	case "=":
		return batalg.CmpEQ, nil
	case "<>":
		return batalg.CmpNE, nil
	case "<":
		return batalg.CmpLT, nil
	case "<=":
		return batalg.CmpLE, nil
	case ">":
		return batalg.CmpGT, nil
	case ">=":
		return batalg.CmpGE, nil
	}
	return 0, fmt.Errorf("sql: bad operator %q", op)
}

// predCand emits the candidate list for one predicate over a full column.
func (c *compiler) predCand(t *Table, p Pred) (int, error) {
	if p.IsNilTest() {
		// IS [NOT] NULL selects on the stored nil sentinel (bat.NilInt /
		// the canonical NaN); text columns have no stored nil, so IS NULL
		// over text is empty and IS NOT NULL is everything — the MAL op
		// handles all tail types uniformly.
		ci, err := t.colIndex(p.Col)
		if err != nil {
			return 0, err
		}
		col := c.bindCol(t, ci)
		if p.Op == "isnull" {
			return c.b.Emit("select_nil", mal.V(col)), nil
		}
		return c.b.Emit("select_notnil", mal.V(col)), nil
	}
	if p.Val.Param > 0 {
		// A placeholder compiles to a typed bind slot: the comparison op
		// is chosen by the column's type now, the value arrives at
		// execution time through Interp.Params.
		ci, err := t.colIndex(p.Col)
		if err != nil {
			return 0, err
		}
		code, err := cmpCode(p.Op)
		if err != nil {
			return 0, err
		}
		if err := c.noteParam(p.Val.Param, t.ColTypes[ci]); err != nil {
			return 0, err
		}
		col := c.bindCol(t, ci)
		switch t.ColTypes[ci] {
		case TInt:
			return c.b.Emit("theta_select", mal.V(col), mal.CI(int64(code)), mal.P(p.Val.Param)), nil
		case TFloat:
			return c.b.Emit("theta_select_flt", mal.V(col), mal.CI(int64(code)), mal.P(p.Val.Param)), nil
		default:
			return c.b.Emit("select_str", mal.V(col), mal.CI(int64(code)), mal.P(p.Val.Param)), nil
		}
	}
	if p.Val.Null {
		// col = NULL is three-valued-logic unknown for every row; refuse
		// it loudly and point at the predicate that does ask for nils.
		return 0, fmt.Errorf("sql: comparison with NULL is always unknown; use %q IS [NOT] NULL", p.Col)
	}
	ci, err := t.colIndex(p.Col)
	if err != nil {
		return 0, err
	}
	col := c.bindCol(t, ci)
	code, err := cmpCode(p.Op)
	if err != nil {
		return 0, err
	}
	switch t.ColTypes[ci] {
	case TInt:
		if p.Val.Kind != TInt {
			return 0, fmt.Errorf("sql: comparing int column %q with %v", p.Col, p.Val.Kind)
		}
		return c.b.Emit("theta_select", mal.V(col), mal.CI(int64(code)), mal.CI(p.Val.I)), nil
	case TFloat:
		f := p.Val.F
		if p.Val.Kind == TInt {
			f = float64(p.Val.I)
		} else if p.Val.Kind != TFloat {
			return 0, fmt.Errorf("sql: comparing float column %q with %v", p.Col, p.Val.Kind)
		}
		return c.b.Emit("theta_select_flt", mal.V(col), mal.CI(int64(code)), mal.CF(f)), nil
	default:
		if p.Val.Kind != TText {
			return 0, fmt.Errorf("sql: comparing text column %q with %v", p.Col, p.Val.Kind)
		}
		return c.b.Emit("select_str", mal.V(col), mal.CI(int64(code)), mal.CS(p.Val.S)), nil
	}
}

// buildCandidates computes every table's candidate list, applying WHERE
// conjuncts and the deleted filter per table, then folds the join chain
// left to right: each join step maps all already-joined candidate lists
// through the join's left output (keeping them row-aligned) and the new
// table's list through the right output.
func (c *compiler) buildCandidates() error {
	c.cands = make([]int, len(c.tables))
	for i, t := range c.tables {
		c.cands[i] = c.liveCand(t)
	}
	for _, p := range c.sel.Where {
		t, _, err := c.resolve(p.Col)
		if err != nil {
			return err
		}
		ti := c.tableIndex(t)
		pc, err := c.predCand(t, p)
		if err != nil {
			return err
		}
		c.cands[ti] = c.b.Emit("intersect", mal.V(c.cands[ti]), mal.V(pc))
	}
	for k, j := range c.sel.Joins {
		if err := c.buildJoin(j, k+1); err != nil {
			return err
		}
	}
	return nil
}

// buildJoin folds tables[k] into the intermediate built from
// tables[0..k-1]. ON columns may appear in either order; one must
// belong to tables[k], the other to a prior table.
func (c *compiler) buildJoin(j *JoinClause, k int) error {
	lIdx, li, err := c.resolveJoinCol(j.LCol, k, false)
	if err != nil {
		return err
	}
	rIdx, ri, err := c.resolveJoinCol(j.RCol, k, true)
	if err != nil {
		return err
	}
	if rIdx != k {
		lIdx, li, rIdx, ri = rIdx, ri, lIdx, li
	}
	if rIdx != k || lIdx >= k {
		return fmt.Errorf("sql: JOIN %s ON must compare a column of %q with a column of a prior table", c.tables[k].Name, c.tables[k].Name)
	}
	lt, rt := c.tables[lIdx], c.tables[rIdx]
	if lt.ColTypes[li] != rt.ColTypes[ri] {
		return fmt.Errorf("sql: join ON compares %s with %s", lt.ColTypes[li], rt.ColTypes[ri])
	}
	lvals := c.b.Emit("fetch", mal.V(c.cands[lIdx]), mal.V(c.bindCol(lt, li)))
	rvals := c.b.Emit("fetch", mal.V(c.cands[rIdx]), mal.V(c.bindCol(rt, ri)))
	var lo, ro int
	switch lt.ColTypes[li] {
	case TText:
		lo, ro = c.b.Emit2("join_str", mal.V(lvals), mal.V(rvals))
	case TInt:
		lo, ro = c.b.Emit2("join", mal.V(lvals), mal.V(rvals))
	default:
		// The MAL join op is int/text only; a float key would panic the
		// interpreter's bulk path (equality joins on floats are a
		// modeling smell anyway).
		return fmt.Errorf("sql: JOIN on %s keys is not supported", lt.ColTypes[li])
	}
	// lvals is row-aligned with EVERY already-joined candidate list, so
	// the join's left positions remap all of them at once.
	for i := 0; i < k; i++ {
		c.cands[i] = c.b.Emit("fetch", mal.V(lo), mal.V(c.cands[i]))
	}
	c.cands[k] = c.b.Emit("fetch", mal.V(ro), mal.V(c.cands[k]))
	return nil
}

// resolveJoinCol resolves one ON column for the join step bringing in
// tables[k]: only tables[0..k] are in scope. Unqualified names prefer
// the new table when preferNew is set (the `ON prior = new` convention),
// prior tables in FROM order otherwise.
func (c *compiler) resolveJoinCol(name string, k int, preferNew bool) (int, int, error) {
	if tbl, col, ok := splitQualified(name); ok {
		for idx := 0; idx <= k; idx++ {
			if c.tables[idx].Name == tbl {
				ci, err := c.tables[idx].colIndex(col)
				return idx, ci, err
			}
		}
		return 0, 0, fmt.Errorf("sql: unknown table %q in join condition %q", tbl, name)
	}
	if preferNew {
		if ci, err := c.tables[k].colIndex(name); err == nil {
			return k, ci, nil
		}
	}
	for idx := 0; idx < k; idx++ {
		if ci, err := c.tables[idx].colIndex(name); err == nil {
			return idx, ci, nil
		}
	}
	if ci, err := c.tables[k].colIndex(name); err == nil {
		return k, ci, nil
	}
	return 0, 0, fmt.Errorf("sql: unknown column %q in join condition", name)
}

// candFor returns the candidate variable for the table owning a column.
func (c *compiler) candFor(t *Table) int {
	return c.cands[c.tableIndex(t)]
}

// evalExpr emits MAL computing expr as a column aligned with the candidate
// lists; it returns the variable and result type.
func (c *compiler) evalExpr(e Expr) (int, ColType, error) {
	switch x := e.(type) {
	case ColRef:
		t, i, err := c.resolve(x.Name)
		if err != nil {
			return 0, 0, err
		}
		col := c.bindCol(t, i)
		return c.b.Emit("fetch", mal.V(c.candFor(t)), mal.V(col)), t.ColTypes[i], nil
	case Lit:
		if x.Param > 0 {
			return 0, 0, fmt.Errorf("sql: parameter ?%d: SELECT placeholders are only supported as WHERE comparison values", x.Param)
		}
		return 0, 0, fmt.Errorf("sql: bare literals in the select list are not supported")
	case BinExpr:
		// Column-vs-literal arithmetic compiles to scalar map primitives.
		if lit, ok := x.R.(Lit); ok {
			if _, also := x.L.(Lit); !also {
				return c.evalScalarArith(x.L, x.Op, lit, false)
			}
		}
		if lit, ok := x.L.(Lit); ok {
			return c.evalScalarArith(x.R, x.Op, lit, true)
		}
		lv, lt, err := c.evalExpr(x.L)
		if err != nil {
			return 0, 0, err
		}
		rv, rt, err := c.evalExpr(x.R)
		if err != nil {
			return 0, 0, err
		}
		if lt == TText || rt == TText {
			return 0, 0, fmt.Errorf("sql: arithmetic on text column")
		}
		if lt == TFloat || rt == TFloat {
			if lt == TInt {
				lv = c.b.Emit("int_to_flt", mal.V(lv))
			}
			if rt == TInt {
				rv = c.b.Emit("int_to_flt", mal.V(rv))
			}
			op := map[byte]string{'+': "add_flt", '-': "sub_flt", '*': "mul_flt"}[x.Op]
			return c.b.Emit(op, mal.V(lv), mal.V(rv)), TFloat, nil
		}
		op := map[byte]string{'+': "add", '-': "sub", '*': "mul"}[x.Op]
		return c.b.Emit(op, mal.V(lv), mal.V(rv)), TInt, nil
	}
	return 0, 0, fmt.Errorf("sql: unsupported expression %T", e)
}

// evalScalarArith emits col-vs-literal arithmetic. litOnLeft matters only
// for subtraction (lit - col).
func (c *compiler) evalScalarArith(other Expr, op byte, lit Lit, litOnLeft bool) (int, ColType, error) {
	if lit.Param > 0 {
		return 0, 0, fmt.Errorf("sql: parameter ?%d: SELECT placeholders are only supported as WHERE comparison values", lit.Param)
	}
	if lit.Null {
		return 0, 0, fmt.Errorf("sql: NULL literals are only supported in INSERT/UPDATE values")
	}
	ov, ot, err := c.evalExpr(other)
	if err != nil {
		return 0, 0, err
	}
	if ot == TText || lit.Kind == TText {
		return 0, 0, fmt.Errorf("sql: arithmetic on text operand")
	}
	if ot == TInt && lit.Kind == TInt {
		switch op {
		case '+':
			return c.b.Emit("add_scalar", mal.V(ov), mal.CI(lit.I)), TInt, nil
		case '*':
			return c.b.Emit("mul_scalar", mal.V(ov), mal.CI(lit.I)), TInt, nil
		case '-':
			if !litOnLeft {
				return c.b.Emit("add_scalar", mal.V(ov), mal.CI(-lit.I)), TInt, nil
			}
			neg := c.b.Emit("mul_scalar", mal.V(ov), mal.CI(-1))
			return c.b.Emit("add_scalar", mal.V(neg), mal.CI(lit.I)), TInt, nil
		}
		return 0, 0, fmt.Errorf("sql: bad operator %q", op)
	}
	// Float path.
	f := lit.F
	if lit.Kind == TInt {
		f = float64(lit.I)
	}
	if ot == TInt {
		ov = c.b.Emit("int_to_flt", mal.V(ov))
	}
	switch op {
	case '+':
		return c.b.Emit("add_scalar_flt", mal.V(ov), mal.CF(f)), TFloat, nil
	case '*':
		return c.b.Emit("mul_scalar_flt", mal.V(ov), mal.CF(f)), TFloat, nil
	case '-':
		if litOnLeft {
			return c.b.Emit("sub_const_flt", mal.CF(f), mal.V(ov)), TFloat, nil
		}
		return c.b.Emit("add_scalar_flt", mal.V(ov), mal.CF(-f)), TFloat, nil
	}
	return 0, 0, fmt.Errorf("sql: bad operator %q", op)
}

// expandStar replaces * items with explicit column refs.
func (c *compiler) expandStar() []SelItem {
	var out []SelItem
	for _, it := range c.sel.Items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		for _, t := range c.tables {
			for _, cn := range t.ColNames {
				out = append(out, SelItem{Expr: ColRef{Name: t.Name + "." + cn}, Alias: cn})
			}
		}
	}
	return out
}

// itemName returns the output column label for an item.
func itemName(it SelItem, idx int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(ColRef); ok {
		if it.Agg != "" {
			return it.Agg + "(" + cr.Name + ")"
		}
		return cr.Name
	}
	if it.Agg == "count" && it.Expr == nil {
		return "count(*)"
	}
	return fmt.Sprintf("col%d", idx)
}

// buildOutput emits projection / aggregation / ordering / limit and the
// final return.
func (c *compiler) buildOutput() error {
	items := c.expandStar()
	hasAgg := false
	for _, it := range items {
		if it.Agg != "" {
			hasAgg = true
		}
	}
	names := make([]string, len(items))
	for i, it := range items {
		names[i] = itemName(it, i)
	}

	switch {
	case c.sel.Grouped():
		return c.buildGrouped(items, names)
	case hasAgg:
		return c.buildGlobalAggs(items, names)
	default:
		return c.buildPlain(items, names)
	}
}

func (c *compiler) buildPlain(items []SelItem, names []string) error {
	// Early LIMIT without ORDER BY: cut the (row-aligned) candidate
	// lists first.
	if c.sel.Limit >= 0 && c.sel.OrderBy == "" {
		for i := range c.cands {
			c.cands[i] = c.b.Emit("head", mal.V(c.cands[i]), mal.CI(int64(c.sel.Limit)))
		}
	}
	vars := make([]int, len(items))
	types := make([]ColType, len(items))
	for i, it := range items {
		v, vt, err := c.evalExpr(it.Expr)
		if err != nil {
			return err
		}
		vars[i] = v
		types[i] = vt
	}
	if c.sel.OrderBy != "" {
		// Resolve the sort key against output labels first, then bare
		// column refs — taking the FIRST match in each pass, so a
		// duplicated alias orders by the leftmost item carrying it.
		keyIdx := -1
		for i := range items {
			if names[i] == c.sel.OrderBy {
				keyIdx = i
				break
			}
		}
		if keyIdx < 0 {
			for i, it := range items {
				if cr, ok := it.Expr.(ColRef); ok && cr.Name == c.sel.OrderBy {
					keyIdx = i
					break
				}
			}
		}
		var keyVar int
		if keyIdx >= 0 {
			keyVar = vars[keyIdx]
		} else {
			v, _, err := c.evalExpr(ColRef{Name: c.sel.OrderBy})
			if err != nil {
				return err
			}
			keyVar = v
		}
		op := "sort"
		if c.sel.Desc {
			op = "sort_desc"
		}
		order := -1
		if len(c.sel.Joins) > 0 {
			// Canonical join-output order: a join has no meaningful
			// row order to be stable against, so ties on the sort key
			// break by every output column left to right. The chain of
			// stable ascending sorts runs least-significant column
			// first; the key sort comes last (sort_desc fully reverses
			// a stable ascending sort, so a descending query reverses
			// the whole lexicographic order — ties included — exactly
			// as the vectorized sort does). TEXT items are skipped:
			// they never reach the vectorized path, so their relative
			// order is MAL's alone to define.
			for i := len(items) - 1; i >= 0; i-- {
				if types[i] == TText {
					continue
				}
				if order < 0 {
					_, order = c.b.Emit2("sort", mal.V(vars[i]))
					continue
				}
				v := c.b.Emit("fetch", mal.V(order), mal.V(vars[i]))
				_, o2 := c.b.Emit2("sort", mal.V(v))
				order = c.b.Emit("fetch", mal.V(o2), mal.V(order))
			}
		}
		if order < 0 {
			_, order = c.b.Emit2(op, mal.V(keyVar))
		} else {
			kv := c.b.Emit("fetch", mal.V(order), mal.V(keyVar))
			_, o2 := c.b.Emit2(op, mal.V(kv))
			order = c.b.Emit("fetch", mal.V(o2), mal.V(order))
		}
		if c.sel.Limit >= 0 {
			order = c.b.Emit("head", mal.V(order), mal.CI(int64(c.sel.Limit)))
		}
		for i := range vars {
			vars[i] = c.b.Emit("fetch", mal.V(order), mal.V(vars[i]))
		}
	}
	c.b.Return(names, vars...)
	return nil
}

func (c *compiler) buildGlobalAggs(items []SelItem, names []string) error {
	vars := make([]int, len(items))
	for i, it := range items {
		if it.Agg == "" {
			return fmt.Errorf("sql: mixing aggregates and plain columns requires GROUP BY")
		}
		switch it.Agg {
		case "count":
			// count(*) counts candidate rows; count(col) skips nils.
			if it.Expr == nil {
				vars[i] = c.b.Emit("count", mal.V(c.cands[0]))
				break
			}
			v, _, err := c.evalExpr(it.Expr)
			if err != nil {
				return err
			}
			vars[i] = c.b.Emit("count_nn", mal.V(v))
		case "avg":
			// avg = sum / non-nil count; div_scalar yields NULL when the
			// count is zero (empty or all-nil input), per SQL.
			v, _, err := c.evalExpr(it.Expr)
			if err != nil {
				return err
			}
			s := c.b.Emit("sum", mal.V(v))
			n := c.b.Emit("count_nn", mal.V(v))
			vars[i] = c.b.Emit("div_scalar", mal.V(s), mal.V(n))
		default:
			v, _, err := c.evalExpr(it.Expr)
			if err != nil {
				return err
			}
			vars[i] = c.b.Emit(it.Agg, mal.V(v))
		}
	}
	c.b.Return(names, vars...)
	return nil
}

func (c *compiler) buildGrouped(items []SelItem, names []string) error {
	// Multi-key GROUP BY refines the grouping one key at a time: group on
	// the first key, then subgroup on each further key column (the MAL
	// subgroup op pairs the previous group ids with the new values as a
	// 2-wide key of the shared radix.GroupTable). The final ids/ext/cnt describe the composite
	// groups; every key column's representative values are fetched
	// through the final extents.
	type groupKey struct {
		t    *Table
		i    int
		vals int // var: key values aligned with the candidate list
	}
	keys := make([]groupKey, len(c.sel.GroupBy))
	var ids, ext, cnt int
	for ki, name := range c.sel.GroupBy {
		keyT, keyI, err := c.resolve(name)
		if err != nil {
			return err
		}
		if ki > 0 && keyT.ColTypes[keyI] != TInt {
			// The subgroup refinement pairs (previous gid, value) in the
			// composite-key table, which holds int64 halves.
			return fmt.Errorf("sql: GROUP BY key %q must be INT when grouping by multiple columns", name)
		}
		vals := c.b.Emit("fetch", mal.V(c.candFor(keyT)), mal.V(c.bindCol(keyT, keyI)))
		keys[ki] = groupKey{t: keyT, i: keyI, vals: vals}
		if ki == 0 {
			ids, ext, cnt = c.b.Emit3("group", mal.V(vals))
		} else {
			ids, ext, cnt = c.b.Emit3("subgroup", mal.V(ids), mal.V(ext), mal.V(cnt), mal.V(vals))
		}
	}
	// keyFor returns which group key a column reference names, or -1.
	keyFor := func(t *Table, i int) int {
		for ki, k := range keys {
			if k.t == t && k.i == i {
				return ki
			}
		}
		return -1
	}

	vars := make([]int, len(items))
	for i, it := range items {
		switch {
		case it.Agg == "count":
			// count(*) is the group size; count(col) skips nils.
			if it.Expr == nil {
				vars[i] = cnt
				break
			}
			v, _, err := c.evalExpr(it.Expr)
			if err != nil {
				return err
			}
			vars[i] = c.b.Emit("count_nn_per_group", mal.V(v), mal.V(ids), mal.V(ext))
		case it.Agg == "avg":
			// Per-group avg divides by the group's NON-nil count, not its
			// cardinality; an all-nil group has a zero count and
			// div_flt_nil yields the float nil (NaN, rendered as NULL).
			v, vt, err := c.evalExpr(it.Expr)
			if err != nil {
				return err
			}
			s := c.b.Emit("sum_per_group", mal.V(v), mal.V(ids), mal.V(ext))
			if vt == TInt {
				s = c.b.Emit("int_to_flt", mal.V(s))
			}
			nn := c.b.Emit("count_nn_per_group", mal.V(v), mal.V(ids), mal.V(ext))
			nf := c.b.Emit("int_to_flt", mal.V(nn))
			vars[i] = c.b.Emit("div_flt_nil", mal.V(s), mal.V(nf))
		case it.Agg != "":
			v, _, err := c.evalExpr(it.Expr)
			if err != nil {
				return err
			}
			vars[i] = c.b.Emit(it.Agg+"_per_group", mal.V(v), mal.V(ids), mal.V(ext))
		default:
			// A plain column in a grouped query must be one of the group
			// keys; its per-group value is the representative row's.
			cr, ok := it.Expr.(ColRef)
			if !ok {
				return fmt.Errorf("sql: non-aggregate expression in GROUP BY query")
			}
			t, i2, err := c.resolve(cr.Name)
			if err != nil {
				return err
			}
			ki := keyFor(t, i2)
			if ki < 0 {
				return fmt.Errorf("sql: column %q not in GROUP BY", cr.Name)
			}
			vars[i] = c.b.Emit("fetch", mal.V(ext), mal.V(keys[ki].vals))
		}
	}
	if c.sel.OrderBy != "" {
		keyIdx := -1
		for i := range items {
			if names[i] == c.sel.OrderBy {
				keyIdx = i
				break
			}
		}
		if keyIdx < 0 {
			for _, g := range c.sel.GroupBy {
				if c.sel.OrderBy != g {
					continue
				}
				for i, it := range items {
					if cr, ok := it.Expr.(ColRef); ok && it.Agg == "" && cr.Name == g {
						keyIdx = i
						break
					}
				}
				break
			}
		}
		if keyIdx < 0 {
			return fmt.Errorf("sql: ORDER BY %q must name an output column", c.sel.OrderBy)
		}
		op := "sort"
		if c.sel.Desc {
			op = "sort_desc"
		}
		// Canonical grouped order: groups tying on the ordered item
		// break by the full group-key tuple (each key's representative
		// value), so both engines emit one well-defined row order. The
		// chain of stable ascending sorts runs least-significant key
		// first; the ordered item sorts last (sort_desc fully reverses
		// the stable ascending order, ties included, matching the
		// vectorized sort's descending semantics). TEXT keys are
		// skipped: they never reach the vectorized path.
		order := -1
		for ki := len(keys) - 1; ki >= 0; ki-- {
			if keys[ki].t.ColTypes[keys[ki].i] == TText {
				continue
			}
			rep := c.b.Emit("fetch", mal.V(ext), mal.V(keys[ki].vals))
			if order < 0 {
				_, order = c.b.Emit2("sort", mal.V(rep))
				continue
			}
			rep = c.b.Emit("fetch", mal.V(order), mal.V(rep))
			_, o2 := c.b.Emit2("sort", mal.V(rep))
			order = c.b.Emit("fetch", mal.V(o2), mal.V(order))
		}
		if order < 0 {
			_, order = c.b.Emit2(op, mal.V(vars[keyIdx]))
		} else {
			kv := c.b.Emit("fetch", mal.V(order), mal.V(vars[keyIdx]))
			_, o2 := c.b.Emit2(op, mal.V(kv))
			order = c.b.Emit("fetch", mal.V(o2), mal.V(order))
		}
		if c.sel.Limit >= 0 {
			order = c.b.Emit("head", mal.V(order), mal.CI(int64(c.sel.Limit)))
		}
		for i := range vars {
			vars[i] = c.b.Emit("fetch", mal.V(order), mal.V(vars[i]))
		}
	} else if c.sel.Limit >= 0 {
		for i := range vars {
			lim := c.b.Emit("mirror", mal.V(vars[i]))
			lim = c.b.Emit("head", mal.V(lim), mal.CI(int64(c.sel.Limit)))
			vars[i] = c.b.Emit("fetch", mal.V(lim), mal.V(vars[i]))
		}
	}
	c.b.Return(names, vars...)
	return nil
}
