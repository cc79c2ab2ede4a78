package engine_test

// The differential driver. A seeded generator draws SELECTs over the
// grammar the binder accepts and runs each on the engine (vector, or
// MAL where the plan routes there; embedded and over the wire), on MAL
// alone (a sqlfe.DB fed the same DDL and DML) and on a plain-Go
// reference over the generator's own row model, which shares no code
// with either engine. The results must agree under doc.go's Result
// contract (engine.Contract) at workers 1, 2, 4 and 8, with no budget
// or a tight one spilling to a MemFS, through six stages of the
// tables' life. A failure prints the seed, the cell and the statement,
// greedily minimised while it still fails.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/client"
	"repro/engine"
	"repro/internal/server"
	"repro/internal/sqlfe"
	"repro/internal/wal"
)

var bg = context.Background()

// diffBudget is the matrix's: sorts, big groupings and join builds
// spill. At 48 KiB a grace GROUP BY of one table fails (ROADMAP item 7).
// The budgeted families run on more rows, at graceBudget or half of it.
const diffBudget, graceBudget = 64 << 10, 256 << 10

// knownFailures are the shapes of statement for which the driver
// accepts ErrOverBudget, at diffBudget only; every acceptance is
// counted and logged. Fixing one means deleting its entry. All three
// are ROADMAP item 7: a grace re-plan keeps what its neighbours hold,
// so at diffBudget the operator it degrades can get less than its
// staging.
var knownFailures = []struct {
	what  string
	shape func(q *dQuery) bool
}{
	{"GROUP BY over an in-memory join", func(q *dQuery) bool { return len(q.joins) > 0 && len(q.group) > 0 }},
	{"a later join step building dh after in-memory builds", func(q *dQuery) bool {
		return len(q.joins) > 1 && slices.Contains(q.leaves(), "dh")
	}},
	{"a grace GROUP BY on both keys of dh", func(q *dQuery) bool {
		return slices.Contains(q.group, dRef{"dh", "k"}) && slices.Contains(q.group, dRef{"dh", "p"})
	}},
}

// ---- the row model ----

type dTable struct {
	name  string
	cols  []string
	types string  // per column: 'i' INT, 'f' FLOAT, 's' TEXT, or 'k' an INT key kept out of arithmetic
	rows  [][]any // int64, float64, string, or nil for NULL
	dead  []bool  // tombstoned
	tombs int     // tombstones no vacuum has dropped yet
}

func (t *dTable) col(name string) int { return slices.Index(t.cols, name) }

// diffEdges are the schema's equi-join edges. They form a tree, so a
// connected subset is a star around f, a snowflake through d1, or a
// chain.
var diffEdges = [][2]dRef{
	{{"f", "a"}, {"d1", "k"}},  // dense INT keys
	{{"d1", "r"}, {"rg", "k"}}, // the snowflake arm
	{{"f", "b"}, {"d2", "k"}},  // sparse INT keys
	{{"f", "c"}, {"d3", "k"}},  // clustered INT keys
	{{"f", "s"}, {"dt", "s"}},  // TEXT keys, which MAL joins
	{{"f", "h"}, {"dh", "k"}},  // INT keys that differ only in their high bits
}

// model holds the tables and draws their rows. f.id rises with the row
// ("sorted"), f.c follows it with 2% far-off outliers ("clustered"),
// f.r falls with it ("reversed"), f.a is random. The join keys carry
// NULLs, duplicates and values no dimension holds. f.h and dh.k vary
// only above bit 36, the keys a grace partitioner reading too few hash
// bits would route to one partition.
type model struct {
	rng    *rand.Rand
	tables map[string]*dTable
	names  []string
	nextID int64
	sparse []int64 // d2's key domain
	texts  []string
	scale  int // multiplies the rows inserted into f, d3 and dh
}

func newModel(seed int64, scale int) *model {
	m := &model{rng: rand.New(rand.NewSource(seed)), tables: map[string]*dTable{}, texts: []string{""}, scale: scale}
	for i := 0; i < 150; i++ {
		m.sparse = append(m.sparse, m.rng.Int63n(10_000_000))
	}
	for i := 1; i < 30; i++ {
		m.texts = append(m.texts, fmt.Sprintf("%c%d", 'a'+i%26, i))
	}
	for _, d := range [][3]string{
		{"f", "id a b c r g v x s h", "iiiiiiifsk"},
		{"d1", "k r p y", "iiif"},
		{"rg", "k p t", "iis"},
		{"d2", "k p", "ii"},
		{"d3", "k p", "ii"},
		{"dt", "s p", "si"},
		{"dh", "k p", "ki"},
	} {
		m.tables[d[0]] = &dTable{name: d[0], cols: strings.Fields(d[1]), types: d[2]}
		m.names = append(m.names, d[0])
	}
	return m
}

// maybe returns nil one time in n, else v.
func (m *model) maybe(n int, v any) any {
	if m.rng.Intn(n) == 0 {
		return nil
	}
	return v
}

// key draws a join key: NULL an eighth of the time, a value outside dom
// another eighth, else a value of dom (with replacement: keys repeat).
func (m *model) key(dom func() int64, outside int64) any {
	switch m.rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return outside + m.rng.Int63n(outside+1)
	}
	return dom()
}

func (m *model) text(nilOneIn int) any {
	if m.rng.Intn(10) == 0 {
		return fmt.Sprintf("zz%d", m.rng.Intn(5)) // no dimension holds it
	}
	return m.maybe(nilOneIn, m.texts[m.rng.Intn(len(m.texts))])
}

func (m *model) row(name string) []any {
	n := m.rng.Int63n
	dense := func() int64 { return n(60) }
	high := func() int64 { i := n(3000); return i << (36 + i%3*7) }
	switch name {
	case "f":
		id := m.nextID
		m.nextID++
		var c, x any = id / 3, float64(n(1000)-500) / 4
		if m.rng.Intn(50) == 0 {
			c = n(2400)
		}
		if id >= 2048 && id < 3072 {
			c, x = nil, nil // a zone of f.c and f.x holding NULLs only
		}
		return []any{id, m.key(dense, 60), m.key(func() int64 { return m.sparse[n(150)] }, 10_000_000),
			m.maybe(33, c), m.maybe(40, (4000-id)/7), m.maybe(20, n(7)), m.maybe(6, n(1000)-500),
			m.maybe(6, x), m.text(8), m.key(high, 1<<52)}
	case "d1":
		return []any{m.key(dense, 60), m.maybe(10, n(25)), n(100), m.maybe(8, float64(n(400))/4)}
	case "rg":
		return []any{m.maybe(15, n(25)), n(100), m.text(6)}
	case "d2":
		return []any{m.sparse[n(150)], n(100)}
	case "d3":
		return []any{m.maybe(20, n(1200)), n(100)}
	case "dh":
		return []any{m.maybe(10, high()), n(100)}
	}
	return []any{m.maybe(10, m.texts[n(int64(len(m.texts)))]), n(100)}
}

func literal(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		s := strconv.FormatFloat(x, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	}
	return "'" + v.(string) + "'"
}

// insert appends n drawn rows to table name and returns the statement.
func (m *model) insert(name string, n int) string {
	t := m.tables[name]
	if name == "f" || name == "d3" || name == "dh" {
		n *= m.scale
	}
	rows := make([]string, n)
	for i := range rows {
		r := m.row(name)
		t.rows, t.dead = append(t.rows, r), append(t.dead, false)
		cells := make([]string, len(r))
		for c, v := range r {
			cells[c] = literal(v)
		}
		rows[i] = "(" + strings.Join(cells, ", ") + ")"
	}
	return fmt.Sprintf("INSERT INTO %s VALUES %s", name, strings.Join(rows, ", "))
}

// remove tombstones the live rows of table name that pass preds. A
// DELETE that leaves more than half of a table's positions tombstoned
// vacuums it (doc.go § Durability).
func (m *model) remove(name string, preds ...dPred) string {
	t := m.tables[name]
	live := 0
	for i, r := range t.rows {
		if !t.dead[i] && passes(t, r, preds) {
			t.dead[i], t.tombs = true, t.tombs+1
		}
		if !t.dead[i] {
			live++
		}
	}
	if 2*t.tombs > live+t.tombs {
		t.tombs = 0
	}
	where, _ := (&dQuery{preds: preds}).where(false)
	return "DELETE FROM " + name + where
}

// ---- stages ----

type stage struct {
	name string
	dml  func(m *model) []string
	// after is what the engine databases go through once the DML ran:
	// "", "reopen" (whose checkpoint vacuums) or "kill".
	after string
}

func pred(t, c, op string, v any) dPred {
	return dPred{ref: dRef{t, c}, op: op, val: v}
}

var diffStages = []stage{
	{"main", func(m *model) []string {
		var out []string
		for _, name := range m.names {
			t := m.tables[name]
			cols := make([]string, len(t.cols))
			for i, c := range t.cols {
				cols[i] = c + map[byte]string{'i': " INT", 'k': " INT", 'f': " FLOAT", 's': " TEXT"}[t.types[i]]
			}
			out = append(out, fmt.Sprintf("CREATE TABLE %s (%s)", name, strings.Join(cols, ", ")))
		}
		for i, n := range []int{3000, 80, 30, 200, 1500, 40, 2000} { // f, d1, rg, d2, d3, dt, dh
			out = append(out, m.insert(m.names[i], n))
		}
		return out
	}, "reopen"},
	{"appended", func(m *model) []string {
		return []string{m.insert("f", 500), m.insert("d1", 20), m.insert("d3", 100), m.insert("dt", 5)}
	}, ""},
	{"tombstoned", func(m *model) []string {
		return []string{m.remove("f", pred("f", "g", "=", int64(3))), m.remove("d1", pred("d1", "p", "<", int64(10))),
			m.remove("d3", pred("d3", "p", ">=", int64(90))), m.remove("dt", pred("dt", "s", "IS NULL", nil))}
	}, ""},
	// More than half of f is tombstoned after this DELETE, which vacuums
	// f inside its own transaction.
	{"vacuumed", func(m *model) []string {
		return []string{m.remove("f", pred("f", "id", ">=", int64(600*m.scale)), pred("f", "id", "<", int64(2400*m.scale)))}
	}, ""},
	{"reopened", func(m *model) []string {
		return []string{m.insert("f", 200), m.remove("d2", pred("d2", "p", "<", int64(15))), m.insert("rg", 5)}
	}, "reopen"},
	{"recovered", func(m *model) []string {
		return []string{m.insert("f", 200), m.remove("f", pred("f", "v", "IS NULL", nil)), m.insert("d2", 20)}
	}, "kill"},
}

// ---- statements ----

type dRef struct{ t, c string }

func (r dRef) String() string { return r.t + "." + r.c }

// dTerm is a column or, when its table is "", an INT or FLOAT literal.
type dTerm struct {
	dRef
	lit any
}

// dExpr is l alone (op 0) or l op r.
type dExpr struct {
	l, r dTerm
	op   byte
}

func col(r dRef) dExpr { return dExpr{l: dTerm{dRef: r}} }

type dItem struct {
	agg  string // "" or count, sum, min, max, avg
	star bool   // count(*), or * when agg is ""
	e    dExpr
	as   string
}

// dPred is "ref op val" (val a ? argument when param) or "ref IS [NOT]
// NULL".
type dPred struct {
	ref   dRef
	op    string
	val   any
	param bool
}

// dJoin brings in b.t: JOIN b.t ON a = b, or ON b = a when flip.
type dJoin struct {
	a, b dRef
	flip bool
}

type dQuery struct {
	from  string
	joins []dJoin
	items []dItem
	preds []dPred
	group []dRef
	order int  // ORDER BY items[order]; -1 for none
	by    dRef // else ORDER BY this column, which no item projects
	desc  bool
	limit int // -1 for none
}

// sorted reports whether q has an ORDER BY.
func (q *dQuery) sorted() bool { return q.order >= 0 || q.by.t != "" }

// leaves lists the tables q reads, in FROM order.
func (q *dQuery) leaves() []string {
	out := []string{q.from}
	for _, j := range q.joins {
		out = append(out, j.b.t)
	}
	return out
}

// shape is 'g' for a GROUP BY, 'a' for a global aggregate, else 'p'.
func (q *dQuery) shape() byte {
	switch {
	case len(q.group) > 0:
		return 'g'
	case q.aggregated():
		return 'a'
	}
	return 'p'
}

func (q *dQuery) aggregated() bool {
	for _, it := range q.items {
		if it.agg != "" {
			return true
		}
	}
	return len(q.group) > 0
}

func (t dTerm) sql() string {
	if t.t == "" {
		return literal(t.lit)
	}
	return t.String()
}

func (e dExpr) sql() string {
	if e.op == 0 {
		return e.l.sql()
	}
	return e.l.sql() + " " + string(e.op) + " " + e.r.sql()
}

// where renders the WHERE clause; with params the placeholders'
// arguments come back in order, else every value is inlined.
func (q *dQuery) where(params bool) (string, []any) {
	var conj []string
	var args []any
	for _, p := range q.preds {
		s := p.ref.String() + " " + p.op
		switch {
		case p.val == nil:
		case p.param && params:
			s += " ?"
			args = append(args, p.val)
		default:
			s += " " + literal(p.val)
		}
		conj = append(conj, s)
	}
	if len(conj) == 0 {
		return "", nil
	}
	return " WHERE " + strings.Join(conj, " AND "), args
}

func (q *dQuery) sql(params bool) (string, []any) {
	items := make([]string, len(q.items))
	for i, it := range q.items {
		switch {
		case it.star && it.agg == "":
			items[i] = "*"
		case it.star:
			items[i] = "count(*)"
		case it.agg != "":
			items[i] = it.agg + "(" + it.e.sql() + ")"
		default:
			items[i] = it.e.sql()
		}
		if it.as != "" {
			items[i] += " AS " + it.as
		}
	}
	s := "SELECT " + strings.Join(items, ", ") + " FROM " + q.from
	for _, j := range q.joins {
		a, b := j.a, j.b
		if j.flip {
			a, b = b, a
		}
		s += fmt.Sprintf(" JOIN %s ON %s = %s", j.b.t, a, b)
	}
	where, args := q.where(params)
	s += where
	for i, g := range q.group {
		s += map[bool]string{true: " GROUP BY ", false: ", "}[i == 0] + g.String()
	}
	switch {
	case q.order >= 0:
		s += " ORDER BY " + q.items[q.order].as + map[bool]string{true: " DESC"}[q.desc]
	case q.by.t != "":
		s += " ORDER BY " + q.by.String() + map[bool]string{true: " DESC"}[q.desc]
	}
	if q.limit >= 0 {
		s += fmt.Sprintf(" LIMIT %d", q.limit)
	}
	return s, args
}

func (q *dQuery) String() string {
	s, args := q.sql(true)
	if len(args) > 0 {
		s += fmt.Sprintf("  args %v", args)
	}
	return s
}

// spec narrows the generator to one family of statements.
type spec struct {
	tables  [2]int  // how many tables a statement reads, min and max
	shapes  string  // of 'p' (plain), 'a' (global aggregate), 'g' (GROUP BY)
	keys    [2]int  // INT GROUP BY keys, min and max
	text    float64 // chance a GROUP BY takes one TEXT key instead
	groupOn string  // when set, GROUP BY f.<groupOn> only
	filter  string  // when set, every predicate is on f.<filter>
	orderOn string  // when set, ORDER BY a projected f.<orderOn>
	order   float64 // chance of ORDER BY
	limit   float64 // chance of LIMIT
	expr    float64 // chance an aggregate argument is arithmetic
	param   float64 // chance a comparison takes a ? argument
	nulls   float64 // chance a predicate is IS [NOT] NULL
	scale   int     // the model's scale; 0 means 1
	skip    string  // a table no statement reads
}

var anySpec = spec{tables: [2]int{1, 4}, shapes: "pag", keys: [2]int{1, 3}, text: 0.15,
	order: 0.4, limit: 0.3, expr: 0.3, param: 0.4, nulls: 0.15}

type gen struct {
	rng *rand.Rand
	m   *model
	sp  spec
	// unprojected decides which plain ORDER BYs sort on a column no
	// item projects. It is a stream of its own, so the shape leaves
	// every other draw of a seed as it was.
	unprojected *rand.Rand
}

func (g *gen) pick(n int) int { return g.rng.Intn(n) }

func (g *gen) chance(p float64) bool { return g.rng.Float64() < p }

// columns lists the columns of tables whose type is in types.
func (m *model) columns(tables []string, types string) []dRef {
	var out []dRef
	for _, name := range tables {
		t := m.tables[name]
		for i, c := range t.cols {
			if strings.IndexByte(types, t.types[i]) >= 0 {
				out = append(out, dRef{name, c})
			}
		}
	}
	return out
}

// column picks one of columns(tables, types), or reports there is none.
func (g *gen) column(tables []string, types string) (dRef, bool) {
	cs := g.m.columns(tables, types)
	if len(cs) == 0 {
		return dRef{}, false
	}
	return cs[g.pick(len(cs))], true
}

// value draws a comparison constant for column r: a stored value (live
// or not) or one next to it, or one past either end of the data.
func (g *gen) value(r dRef) any {
	t := g.m.tables[r.t]
	c := t.col(r.c)
	var v any
	for i := 0; i < 8 && v == nil; i++ {
		row := g.pick(len(t.rows))
		if g.pick(3) == 0 { // the first or last row of a zone
			row = min(len(t.rows)-1, g.pick(len(t.rows)/sqlfe.ZoneRows+1)*sqlfe.ZoneRows-g.pick(2))
		}
		v = t.rows[max(row, 0)][c]
	}
	switch t.types[c] {
	case 'i', 'k':
		if k := g.pick(12); k < 3 {
			return []int64{math.MinInt64 + 1, math.MaxInt64, -1}[k]
		}
		n, _ := v.(int64)
		return n + int64(g.pick(3)) - 1
	case 'f':
		if g.pick(10) == 0 {
			return -1000.5
		}
		x, _ := v.(float64)
		return x + float64(g.pick(3)-1)/4
	}
	if g.pick(6) == 0 {
		return "m"
	}
	s, _ := v.(string)
	return s
}

func (g *gen) pred(tables []string) dPred {
	r, _ := g.column(tables, "ifsk")
	if g.sp.filter != "" {
		r = dRef{"f", g.sp.filter}
	}
	if g.chance(g.sp.nulls) {
		return dPred{ref: r, op: []string{"IS NULL", "IS NOT NULL"}[g.pick(2)]}
	}
	op := []string{"=", "<>", "<", "<=", ">", ">="}[g.pick(6)]
	return dPred{ref: r, op: op, val: g.value(r), param: g.chance(g.sp.param)}
}

// arith draws r op term, with the sides swapped half the time.
func (g *gen) arith(tables []string, r dRef) dExpr {
	t := dTerm{lit: int64(g.pick(20) - 5)}
	if g.pick(2) == 0 {
		t.lit = float64(g.pick(40)-10) / 4
	}
	if c, ok := g.column(tables, "if"); ok && g.pick(3) > 0 {
		t = dTerm{dRef: c}
	}
	e := dExpr{l: dTerm{dRef: r}, op: "+-*"[g.pick(3)], r: t}
	if g.pick(2) == 0 {
		e.l, e.r = e.r, e.l
	}
	return e
}

func (g *gen) agg(tables []string) dItem {
	fn := []string{"count", "sum", "min", "max", "avg"}[g.pick(5)]
	r, ok := g.column(tables, "if")
	if s, text := g.column(tables, "s"); fn == "count" && text && g.pick(3) == 0 {
		return dItem{agg: fn, e: col(s)} // the one aggregate a TEXT column takes
	}
	if !ok || fn == "count" && g.pick(3) == 0 {
		return dItem{agg: "count", star: true}
	}
	if !g.chance(g.sp.expr) {
		return dItem{agg: fn, e: col(r)}
	}
	return dItem{agg: fn, e: g.arith(tables, r)}
}

// joins draws a connected set of n tables by walking the schema tree.
func (g *gen) joins(q *dQuery, n int) []string {
	q.from = g.m.names[g.pick(len(g.m.names))]
	if g.pick(2) == 0 || g.sp.filter+g.sp.orderOn+g.sp.groupOn != "" || q.from == g.sp.skip {
		q.from = "f"
	}
	tables := []string{q.from}
	in := map[string]bool{q.from: true}
	for len(tables) < n {
		var cands []dJoin
		for _, e := range diffEdges {
			if in[e[0].t] != in[e[1].t] && e[0].t != g.sp.skip && e[1].t != g.sp.skip {
				if in[e[1].t] {
					e[0], e[1] = e[1], e[0]
				}
				cands = append(cands, dJoin{a: e[0], b: e[1], flip: g.pick(2) == 0})
			}
		}
		j := cands[g.pick(len(cands))]
		q.joins, tables, in[j.b.t] = append(q.joins, j), append(tables, j.b.t), true
	}
	return tables
}

func (g *gen) query() *dQuery {
	sp := g.sp
	q := &dQuery{order: -1, limit: -1}
	tables := g.joins(q, sp.tables[0]+g.pick(sp.tables[1]-sp.tables[0]+1))
	for n := g.pick(4); n > 0 || sp.filter != "" && len(q.preds) == 0; n-- {
		q.preds = append(q.preds, g.pred(tables))
	}
	switch sp.shapes[g.pick(len(sp.shapes))] {
	case 'p':
		for n := 1 + g.pick(4); n > 0; n-- {
			r, _ := g.column(tables, "ifsk")
			e := col(r)
			if r, ok := g.column(tables, "if"); ok && g.pick(10) == 0 {
				e = g.arith(tables, r) // an expression item: MAL projects it
			}
			q.items = append(q.items, dItem{e: e})
		}
		if sp.orderOn != "" {
			q.items = append(q.items, dItem{e: col(dRef{"f", sp.orderOn})})
		} else if g.pick(20) == 0 {
			q.items = []dItem{{star: true}}
		}
	case 'a':
		for n := 1 + g.pick(3); n > 0; n-- {
			q.items = append(q.items, g.agg(tables))
		}
	case 'g':
		if sp.groupOn != "" {
			q.group = []dRef{{"f", sp.groupOn}}
		} else if r, ok := g.column(tables, "s"); ok && g.chance(sp.text) {
			q.group = []dRef{r}
		} else {
			keys := g.m.columns(tables, "ik")
			g.rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			q.group = keys[:min(len(keys), sp.keys[0]+g.pick(sp.keys[1]-sp.keys[0]+1))]
		}
		for _, k := range q.group {
			if g.pick(4) > 0 {
				q.items = append(q.items, dItem{e: col(k)})
			}
		}
		for n := g.pick(3); n > 0 || len(q.items) == 0; n-- {
			q.items = append(q.items, g.agg(tables))
		}
		g.rng.Shuffle(len(q.items), func(i, j int) { q.items[i], q.items[j] = q.items[j], q.items[i] })
	}
	if (len(q.group) > 0 || !q.aggregated()) && !q.items[0].star && (sp.orderOn != "" || g.chance(sp.order)) {
		q.order, q.desc = g.pick(len(q.items)), g.pick(2) == 0
		if sp.orderOn != "" {
			q.order = len(q.items) - 1
		}
		q.items[q.order].as = "ok"
		if cs := g.unprojectedColumns(q, tables); !q.aggregated() && sp.orderOn == "" && len(cs) > 0 && g.unprojected.Intn(3) == 0 {
			q.items[q.order].as, q.order = "", -1
			q.by = cs[g.unprojected.Intn(len(cs))]
		}
	}
	if g.chance(sp.limit) {
		q.limit = []int{0, 1, 3, 10, 100, 1000, 5000}[g.pick(7)]
	}
	return q
}

// unprojectedColumns lists the sortable columns of tables that no item
// of q projects.
func (g *gen) unprojectedColumns(q *dQuery, tables []string) []dRef {
	var out []dRef
	for _, r := range g.m.columns(tables, "ifk") {
		if !slices.ContainsFunc(q.items, func(it dItem) bool { return it.e == col(r) }) {
			out = append(out, r)
		}
	}
	return out
}

// ---- the plain-Go reference ----

// holds is SQL's three-valued comparison collapsed to "the row
// qualifies": NULL satisfies IS NULL and nothing else.
func (p dPred) holds(v any) bool {
	switch {
	case p.op == "IS NULL" || p.op == "IS NOT NULL":
		return (v == nil) == (p.op == "IS NULL")
	case v == nil:
		return false
	}
	c := engine.Compare(v, p.val)
	return map[string]bool{"=": c == 0, "<>": c != 0, "<": c < 0, "<=": c <= 0, ">": c > 0, ">=": c >= 0}[p.op]
}

func passes(t *dTable, row []any, preds []dPred) bool {
	for _, p := range preds {
		if p.ref.t == t.name && !p.holds(row[t.col(p.ref.c)]) {
			return false
		}
	}
	return true
}

// tuple holds one row of each of the query's tables, in FROM order.
type tuple [][]any

type refEval struct {
	m   *model
	pos map[string]int
}

func (ev refEval) term(tu tuple, t dTerm) any {
	if t.t == "" {
		return t.lit
	}
	return tu[ev.pos[t.t]][ev.m.tables[t.t].col(t.c)]
}

// isInt is the static type of e: INT unless a FLOAT takes part.
func (ev refEval) isInt(e dExpr) bool {
	float := func(t dTerm) bool {
		if t.t == "" {
			_, ok := t.lit.(float64)
			return ok
		}
		tb := ev.m.tables[t.t]
		return tb.types[tb.col(t.c)] == 'f'
	}
	return !float(e.l) && (e.op == 0 || !float(e.r))
}

func (ev refEval) expr(tu tuple, e dExpr) any {
	l := ev.term(tu, e.l)
	if e.op == 0 {
		return l
	}
	r := ev.term(tu, e.r)
	if l == nil || r == nil {
		return nil
	}
	if a, ok := l.(int64); ok {
		if b, ok := r.(int64); ok {
			return map[byte]int64{'+': a + b, '-': a - b, '*': a * b}[e.op]
		}
	}
	a, b := engine.Num(l), engine.Num(r)
	return map[byte]float64{'+': a + b, '-': a - b, '*': a * b}[e.op]
}

func (ev refEval) aggregate(it dItem, tus []tuple) any {
	if it.star {
		return int64(len(tus))
	}
	var vals []any
	for _, tu := range tus {
		if v := ev.expr(tu, it.e); v != nil {
			vals = append(vals, v)
		}
	}
	switch {
	case it.agg == "count":
		return int64(len(vals))
	case len(vals) == 0:
		return nil
	case it.agg == "min" || it.agg == "max":
		best := vals[0]
		for _, v := range vals[1:] {
			if c := engine.Compare(v, best); c != 0 && c < 0 == (it.agg == "min") {
				best = v
			}
		}
		return best
	}
	var is int64
	var fs float64
	for _, v := range vals {
		n, _ := v.(int64)
		is, fs = is+n, fs+engine.Num(v)
	}
	switch {
	case it.agg == "avg":
		return fs / float64(len(vals))
	case ev.isInt(it.e):
		return is
	}
	return fs
}

// live returns the rows of table name that are not tombstoned and pass
// the predicates of preds on that table.
func (m *model) live(name string, preds []dPred) [][]any {
	t := m.tables[name]
	var out [][]any
	for i, r := range t.rows {
		if !t.dead[i] && passes(t, r, preds) {
			out = append(out, r)
		}
	}
	return out
}

// reference answers q over the model: every row of the result, in no
// particular order and without the LIMIT (the contract cuts it).
func (m *model) reference(q *dQuery) [][]any {
	ev := refEval{m: m, pos: map[string]int{q.from: 0}}
	live := func(name string) [][]any { return m.live(name, q.preds) }
	var tus []tuple
	for _, r := range live(q.from) {
		tus = append(tus, tuple{r})
	}
	for i, j := range q.joins {
		byKey := map[any][][]any{}
		for _, r := range live(j.b.t) {
			if k := r[m.tables[j.b.t].col(j.b.c)]; k != nil {
				byKey[k] = append(byKey[k], r)
			}
		}
		var next []tuple
		for _, tu := range tus {
			if k := ev.term(tu, dTerm{dRef: j.a}); k != nil {
				for _, r := range byKey[k] {
					next = append(next, append(append(tuple(nil), tu...), r))
				}
			}
		}
		tus, ev.pos[j.b.t] = next, i+1
	}
	row := func(tus []tuple) []any {
		var out []any
		for _, it := range q.items {
			switch {
			case it.star && it.agg == "": // every column, in FROM order
				for _, r := range tus[0] {
					out = append(out, r...)
				}
			case it.agg != "":
				out = append(out, ev.aggregate(it, tus))
			default:
				out = append(out, ev.expr(tus[0], it.e))
			}
		}
		return out
	}
	var out [][]any
	switch {
	case len(q.group) > 0:
		groups := map[string][]tuple{}
		var keys []string
		for _, tu := range tus {
			var key []any
			for _, g := range q.group {
				key = append(key, ev.term(tu, dTerm{dRef: g}))
			}
			k := engine.RowKey(key)
			if groups[k] == nil {
				keys = append(keys, k)
			}
			groups[k] = append(groups[k], tu)
		}
		for _, k := range keys {
			out = append(out, row(groups[k]))
		}
	case q.aggregated():
		out = append(out, row(tus))
	default:
		for _, tu := range tus {
			out = append(out, row([]tuple{tu}))
		}
	}
	return out
}

// ---- executors and cells ----

// cell is one engine database of the matrix.
type cell struct {
	workers int
	budget  int64 // per query, spilling to the MemFS; 0 for none
	dir     string
	fs      *wal.MemFS
	db      *engine.DB
}

func (c *cell) String() string {
	return fmt.Sprintf("workers=%d budget=%d", c.workers, c.budget)
}

func (c *cell) open(t *testing.T) {
	t.Helper()
	opts := []engine.Option{engine.WithDir(c.dir), engine.WithWALFS(c.fs), engine.WithWorkers(c.workers)}
	if c.budget > 0 {
		opts = append(opts, engine.WithMemBudget(c.budget), engine.WithSpill("/spill"))
	}
	// Small morsels and vectors, so that a few thousand rows run on
	// every worker and through many batches.
	db, err := engine.OpenSized(512, 64, opts...)
	if err != nil {
		t.Fatalf("%s: open: %v", c, err)
	}
	c.db = db
}

// kill abandons the database where its last commit left it, unclosed,
// and recovers its directory through a fresh MemFS that holds the WAL
// bytes that were durable.
func (c *cell) kill(t *testing.T) {
	log := filepath.Join(c.dir, "wal.log")
	durable := c.fs.Durable(log)
	c.fs = wal.NewMemFS()
	c.fs.Seed(log, durable)
	c.open(t)
}

type executor func(q *dQuery) ([][]any, error)

// through runs the statement, with its placeholders, through the Query
// of an engine.DB or a client.Client.
func through[R engine.RowSource](query func(context.Context, string, ...any) (R, error)) executor {
	return func(q *dQuery) ([][]any, error) {
		s, args := q.sql(true)
		return engine.Drain(query(bg, s, args...))
	}
}

// serve starts a server over db on loopback and dials it.
func serve(t *testing.T, db *engine.DB) (*client.Client, func()) {
	t.Helper()
	srv, err := server.New(server.Config{DB: db, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(bg, ln) }()
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return c, func() {
		c.Close()
		if err := errors.Join(srv.Shutdown(bg), <-done); err != nil {
			t.Error(err)
		}
	}
}

// ---- the driver ----

type driver struct {
	t        *testing.T
	seed     int64
	sp       spec
	stmts    int // statements per stage
	m        *model
	mal      *sqlfe.DB
	cells    []*cell
	wire     bool
	accepted map[string]int
	graced   map[byte]int // by shape, statements whose \plan showed a join step degraded to grace hash
	filtered int          // key filters held to the semi-join reduction
	semi     int          // statements whose \plan showed a semi step
	refs     map[*dQuery][][]any
	mals     map[*dQuery][][]any // MAL's, per statement of a stage
}

func newDriver(t *testing.T, seed int64, sp spec, stmts int, cells ...*cell) *driver {
	for _, c := range cells {
		c.dir, c.fs = t.TempDir(), wal.NewMemFS()
		c.open(t)
	}
	t.Cleanup(func() {
		for _, c := range cells {
			c.db.Close()
		}
	})
	return &driver{t: t, seed: seed, sp: sp, stmts: stmts, m: newModel(seed, max(sp.scale, 1)), mal: sqlfe.NewDB(),
		cells: cells, accepted: map[string]int{}, graced: map[byte]int{}}
}

// target is one executor of the matrix. cell is the database of an
// embedded target, whose \plan shows key filters; nil for MAL alone and
// the wire.
type target struct {
	name string
	run  executor
	cell *cell
}

// malRows runs q, its arguments inlined, on the MAL interpreter of a
// plain sqlfe.DB, once a stage.
func (d *driver) malRows(q *dQuery) ([][]any, error) {
	if rows, ok := d.mals[q]; ok {
		return rows, nil
	}
	s, _ := q.sql(false)
	res, err := d.mal.Query(s)
	if err != nil {
		return nil, err
	}
	d.mals[q] = res.Rows
	return res.Rows, nil
}

// failed reports err as what went wrong with q on cell c, or as "" when
// it is a known failure of a tight cell.
func (d *driver) failed(err error, q *dQuery, c *cell) string {
	for _, k := range knownFailures {
		if c != nil && c.budget == diffBudget && errors.Is(err, engine.ErrOverBudget) && k.shape(q) {
			d.accepted[k.what]++
			return ""
		}
	}
	return "error: " + err.Error()
}

// check runs q on x and holds it to the reference. It returns what went
// wrong, or "".
func (d *driver) check(q *dQuery, x target) string {
	got, err := x.run(q)
	if err != nil {
		return d.failed(err, q, x.cell)
	}
	c := engine.Contract{Order: q.order, Desc: q.desc, Limit: q.limit}
	want, ok := d.refs[q]
	if !ok {
		want = d.m.reference(q)
		d.refs[q] = want
	}
	if err := c.Check(got, want); err != nil {
		return "rows: " + err.Error()
	}
	// Over join and grouped output both engines break sort-key ties on
	// every output column (doc.go § Result contract): the whole
	// sequence is MAL's. So it is for a sort key no item projects, over
	// one table too (ties on the row position), of which the reference
	// holds only the multiset.
	if q.order >= 0 && len(q.joins)+len(q.group) > 0 || q.by.t != "" {
		mal, err := d.malRows(q)
		if err != nil || len(mal) != len(got) {
			return fmt.Sprintf("order: MAL returned %d rows, %v", len(mal), err)
		}
		for i := range got {
			if engine.RowKey(got[i]) != engine.RowKey(mal[i]) {
				return fmt.Sprintf("order: row %d is %v, MAL's %v", i, got[i], mal[i])
			}
		}
	}
	// A LIMIT may stop the scans early, unless a sort or an aggregate
	// has to read everything first.
	early := q.limit == 0 || q.limit > 0 && !q.sorted() && !q.aggregated()
	if x.cell != nil && len(q.joins) > 0 && !early {
		return d.filters(q, x.cell)
	}
	return ""
}

// filters replays, for a join, the semi-join reduction that \plan's
// observation describes and compares every key filter's rows in and
// kept: a leaf's live rows that pass its own predicates, then each
// filter on it in the order the children-first builds published them
// (the builds of its children in the tree rooted at the stream, in
// FROM order), a bitmap keeping exactly the build's non-nil keys and a
// range keeping [min, max] of them. Without a budget, which
// could deny a bitmap, each filter's kind must follow the density rule:
// a bitmap while the keys span at most 64 values per non-nil key. A
// semi step must have a bitmap over unique non-nil keys; without a
// budget, so must every such step whose build no item, GROUP BY or
// ORDER BY reads and whose children are semi steps too. A join the
// vector path lowers must run there.
func (d *driver) filters(q *dQuery, c *cell) string {
	text, _ := q.sql(false)
	plan, err := c.db.Conn().Plan(text)
	switch {
	case err != nil:
		return d.failed(err, q, c)
	case strings.HasPrefix(plan, "vectorized pipeline"):
	case d.lowers(q):
		return "route: " + plan[:strings.IndexByte(plan, '\n')]
	default:
		return ""
	}
	type step struct {
		build, kind, on string
		in, kept        int
		semi            bool
	}
	var steps []step
	stream, graced := "", false
	for _, line := range strings.Split(plan, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == "stream:" {
			stream = f[2]
		}
		if len(f) < 4 || f[0] != "join" || f[2] != "build" {
			continue
		}
		s := step{build: f[3], semi: strings.Contains(line, "[semi: answered by its bitmap filter]")}
		if i := strings.Index(line, " filter on "); i >= 0 {
			s.kind = line[strings.LastIndexByte(line[:i], ' ')+1 : i]
			fmt.Sscanf(strings.Replace(line[i:], ":", " ", 1), " filter on %s %d -> %d", &s.on, &s.in, &s.kept)
		}
		graced = graced || strings.Contains(line, "[grace")
		steps = append(steps, s)
	}
	if graced {
		d.graced[q.shape()]++
	}
	if slices.ContainsFunc(steps, func(s step) bool { return s.semi }) {
		d.semi++
	}
	// read marks the tables the nodes above the join read a column of.
	read := map[string]bool{q.by.t: true}
	for _, it := range q.items {
		if it.star && it.agg == "" {
			for _, name := range q.leaves() {
				read[name] = true
			}
		} else if !it.star {
			read[it.e.l.t], read[it.e.r.t] = true, true
		}
	}
	for _, r := range q.group {
		read[r.t] = true
	}
	// col is the column of table a that joins table b.
	col := func(a, b string) int {
		for _, j := range q.joins {
			if j.a.t == b {
				j.a, j.b = j.b, j.a
			}
			if j.a.t == a && j.b.t == b {
				return d.m.tables[a].col(j.a.c)
			}
		}
		panic("no edge between " + a + " and " + b)
	}
	var why []string
	leaves, empty, memo := q.leaves(), false, map[string][][]any{}
	var survivors func(name string) [][]any
	survivors = func(name string) [][]any {
		if rows, ok := memo[name]; ok {
			return rows
		}
		rows := d.m.live(name, q.preds)
		empty = empty || len(rows) == 0
		var on []int // the steps whose filter name's scan applies, in build order
		for k, s := range steps {
			if s.kind != "" && s.on == name {
				on = append(on, k)
			}
		}
		slices.SortFunc(on, func(a, b int) int {
			return slices.Index(leaves, steps[a].build) - slices.Index(leaves, steps[b].build)
		})
		for _, k := range on {
			s := steps[k]
			pc, bc := col(name, s.build), col(s.build, name)
			set := map[int64]bool{}
			lo, hi, n := int64(math.MaxInt64), int64(math.MinInt64), 0
			for _, r := range survivors(s.build) {
				if v, ok := r[bc].(int64); ok {
					set[v], lo, hi, n = true, min(lo, v), max(hi, v), n+1
				}
			}
			empty = empty || n == 0
			if want := map[bool]string{true: "bitmap", false: "range"}[n == 0 || uint64(hi-lo)+1 <= 64*uint64(n)]; c.budget == 0 && s.kind != want {
				why = append(why, fmt.Sprintf("join %d (%s on %s) published a %s filter, want %s", k+1, s.build, name, s.kind, want))
			}
			answered := s.kind == "bitmap" && len(set) == n
			feeds := slices.ContainsFunc(steps, func(o step) bool { return o.on == s.build && !o.semi }) // a probed step reads its keys
			if want := answered && !read[s.build] && !feeds; s.semi && !answered || c.budget == 0 && s.semi != want {
				why = append(why, fmt.Sprintf("join %d (%s) ran semi %v over %d keys, %d distinct, want %v", k+1, s.build, s.semi, n, len(set), want))
			}
			var kept [][]any
			for _, r := range rows {
				if v, ok := r[pc].(int64); ok && (s.kind == "bitmap" && set[v] || s.kind == "range" && v >= lo && v <= hi) {
					kept = append(kept, r)
				}
			}
			if s.in != len(rows) || s.kept != len(kept) {
				why = append(why, fmt.Sprintf("join %d's %s filter on %s: %d -> %d rows, want %d -> %d",
					k+1, s.kind, name, s.in, s.kept, len(rows), len(kept)))
			}
			rows, d.filtered = kept, d.filtered+1
		}
		memo[name] = rows
		return rows
	}
	// The stream is the largest leaf; check it where sampling cannot
	// mistake that, at four times any other.
	sizes, largest := map[string]int{}, q.from
	for _, name := range leaves {
		survivors(name)
		if sizes[name] = len(d.m.live(name, q.preds)); sizes[name] > sizes[largest] {
			largest = name
		}
	}
	clear := true
	for name, n := range sizes {
		clear = clear && (name == largest || 4*n < sizes[largest])
	}
	if clear && stream != "" && stream != largest {
		why = append(why, fmt.Sprintf("streamed %s, want the largest leaf %s", stream, largest))
	}
	// An empty leaf or build empties the join, and the engine may then
	// skip scans and builds: nothing more is held of such a join.
	if len(why) == 0 || empty {
		return ""
	}
	return "filters: " + why[0]
}

// lowers reports whether the vector path takes q: it reads no TEXT
// column and projects no arithmetic (physical's fallback reasons).
func (d *driver) lowers(q *dQuery) bool {
	refs := append([]dRef(nil), q.group...)
	if q.by.t != "" {
		refs = append(refs, q.by)
	}
	for _, p := range q.preds {
		refs = append(refs, p.ref)
	}
	for _, j := range q.joins {
		refs = append(refs, j.a, j.b)
	}
	for _, it := range q.items {
		if it.agg == "" && it.e.op != 0 {
			return false
		}
		refs = append(refs, it.e.l.dRef, it.e.r.dRef)
		if it.star && it.agg == "" {
			refs = append(refs, d.m.columns(q.leaves(), "s")...)
		}
	}
	for _, r := range refs {
		if t := d.m.tables[r.t]; t != nil && t.types[t.col(r.c)] == 's' {
			return false
		}
	}
	return true
}

// checkAll checks every statement on x and, on the first failure,
// minimises the statement and stops the test.
func (d *driver) checkAll(qs []*dQuery, stage string, x target) {
	for _, q := range qs {
		why := d.check(q, x)
		if why == "" {
			continue
		}
		kind := why[:strings.IndexByte(why, ':')]
		min := minimise(q, func(c *dQuery) bool { return strings.HasPrefix(d.check(c, x), kind) })
		d.t.Fatalf("seed %d, stage %s, %s:\n  %s\n  %s\n  minimised: %s\n  %s",
			d.seed, stage, x.name, q, why, min, d.check(min, x))
	}
}

func (d *driver) run() {
	t := d.t
	spills := map[*cell]int64{}
	for si, st := range diffStages {
		for _, s := range st.dml(d.m) {
			if _, err := d.mal.Exec(s); err != nil {
				t.Fatalf("MAL: %.80s: %v", s, err)
			}
			for _, c := range d.cells {
				if _, err := c.db.Exec(bg, s); err != nil {
					t.Fatalf("%s: %.80s: %v", c, s, err)
				}
			}
		}
		if st.after == "reopen" { // the checkpoint at Close vacuums every table
			for _, tb := range d.m.tables {
				tb.tombs = 0
			}
		}
		// The stage is what it says: f scans vectorized, over zone maps,
		// past exactly the tombstones no vacuum dropped.
		tombs := ""
		if n := d.m.tables["f"].tombs; n > 0 {
			tombs = fmt.Sprintf(", %d tombstoned", n)
		}
		for _, c := range d.cells {
			switch st.after {
			case "reopen":
				if err := c.db.Close(); err != nil {
					t.Fatalf("%s: close: %v", c, err)
				}
				c.open(t)
			case "kill":
				c.kill(t)
			}
			plan, err := c.db.Conn().Plan("SELECT f.id FROM f")
			if err != nil {
				t.Fatal(err)
			}
			line, _, _ := strings.Cut(plan[strings.Index(plan, "scan f:"):], "\n")
			if !strings.HasPrefix(plan, "vectorized pipeline") || strings.Contains(line, " 0/0 zones") ||
				!strings.HasSuffix(line, tombs) || tombs == "" && strings.Contains(line, "tombstoned") {
				t.Fatalf("stage %s, %s: scan of f reads %q, want zones%s", st.name, c, line, tombs)
			}
		}
		g := &gen{rng: rand.New(rand.NewSource(d.seed*1000 + int64(si))), m: d.m, sp: d.sp,
			unprojected: rand.New(rand.NewSource(-d.seed*1000 - int64(si) - 1))}
		d.refs, d.mals = map[*dQuery][][]any{}, map[*dQuery][][]any{}
		qs := make([]*dQuery, d.stmts)
		for i := range qs {
			qs[i] = g.query()
		}
		d.checkAll(qs, st.name, target{name: "MAL", run: d.malRows})
		var unbudgeted []*cell
		for _, c := range d.cells {
			before := c.db.SpillStats().Spills
			d.checkAll(qs, st.name, target{c.String() + " embedded", through(c.db.Query), c})
			if c.budget == 0 {
				unbudgeted = append(unbudgeted, c)
				continue
			}
			spills[c] += c.db.SpillStats().Spills - before
			if live := c.db.SpillStats().LiveFiles; live != 0 {
				t.Fatalf("seed %d, stage %s, %s: %d spill files leaked", d.seed, st.name, c, live)
			}
		}
		if d.wire {
			c := unbudgeted[si%len(unbudgeted)]
			cl, stop := serve(t, c.db)
			d.checkAll(qs, st.name, target{c.String() + " wire", through(cl.Query), nil})
			stop()
		}
	}
	for c, n := range spills {
		if n == 0 {
			t.Fatalf("seed %d, %s: no statement spilled", d.seed, c)
		}
	}
	for what, n := range d.accepted {
		t.Logf("accepted %d times: %s", n, what)
	}
	t.Logf("%d statements ran a semi step", d.semi)
}

// minimise drops conjuncts, items, joined leaves, GROUP BY keys, ORDER
// BY and LIMIT from q for as long as fails holds.
func minimise(q *dQuery, fails func(*dQuery) bool) *dQuery {
	for shrunk := true; shrunk; {
		shrunk = false
		for _, c := range shrinks(q) {
			if fails(c) {
				q, shrunk = c, true
				break
			}
		}
	}
	return q
}

// without returns q with items[i] dropped, or nil if that leaves none.
func (q *dQuery) without(i int) *dQuery {
	if q == nil || len(q.items) == 1 {
		return nil
	}
	c := *q
	c.items = append(append([]dItem(nil), q.items[:i]...), q.items[i+1:]...)
	if c.order == i {
		c.order = -1
	} else if c.order > i {
		c.order--
	}
	return &c
}

// dropping returns q without every item, conjunct and GROUP BY key
// that reads a column drop names, or nil if no item is left.
func (q *dQuery) dropping(drop func(r dRef) bool) *dQuery {
	c := q
	for i := len(q.items) - 1; i >= 0; i-- {
		if e := q.items[i].e; drop(e.l.dRef) || e.op != 0 && drop(e.r.dRef) {
			c = c.without(i)
		}
	}
	if c == nil {
		return nil
	}
	d := *c
	d.preds, d.group = nil, nil
	if drop(q.by) {
		d.by = dRef{}
	}
	for _, p := range q.preds {
		if !drop(p.ref) {
			d.preds = append(d.preds, p)
		}
	}
	for _, g := range q.group {
		if !drop(g) {
			d.group = append(d.group, g)
		}
	}
	return &d
}

// shrinks lists q's one-step reductions. A GROUP BY loses its plain
// items with its keys, so none of them mixes aggregates with plain
// items without GROUP BY, which the binder refuses.
func shrinks(q *dQuery) []*dQuery {
	var out []*dQuery
	add := func(c *dQuery) {
		if c != nil {
			out = append(out, c)
		}
	}
	for i := range q.preds {
		c := *q
		c.preds = append(append([]dPred(nil), q.preds[:i]...), q.preds[i+1:]...)
		add(&c)
	}
	for i := range q.items {
		add(q.without(i))
	}
	for i, j := range q.joins {
		leaf := true // no later join hangs off it
		for _, k := range q.joins[i+1:] {
			leaf = leaf && k.a.t != j.b.t
		}
		if c := q.dropping(func(r dRef) bool { return r.t == j.b.t }); leaf && c != nil {
			c.joins = append(append([]dJoin(nil), q.joins[:i]...), q.joins[i+1:]...)
			add(c)
		}
	}
	for _, g := range q.group {
		if len(q.group) > 1 {
			add(q.dropping(func(r dRef) bool { return r == g }))
		}
	}
	if q.order >= 0 {
		c := *q
		c.items = append([]dItem(nil), q.items...)
		c.items[c.order].as, c.order = "", -1
		add(&c)
	}
	if q.by.t != "" {
		c := *q
		c.by = dRef{}
		add(&c)
	}
	if q.limit >= 0 {
		c := *q
		c.limit = -1
		add(&c)
	}
	return out
}

// TestDifferential runs the whole matrix: workers 1, 2, 4 and 8, with
// no budget and at diffBudget, through all six stages, and each stage
// over the wire too.
func TestDifferential(t *testing.T) {
	var cells []*cell
	for _, w := range []int{1, 2, 4, 8} {
		cells = append(cells, &cell{workers: w}, &cell{workers: w, budget: diffBudget})
	}
	d := newDriver(t, 1, anySpec, 60, cells...)
	d.wire = true
	d.run()
	if d.filtered == 0 {
		t.Fatal("no key filter was held to the semi-join reduction")
	}
	if d.semi == 0 {
		t.Fatal("no statement ran a semi step")
	}
}

// family runs the statements of sp on one cell through all six stages,
// 8 a stage. The tests below keep the names of the per-shape suites the
// driver replaced, one shape each; as every statement runs on the
// engine's route and on MAL alone, a name that compares vector with
// MAL, or both paths, holds by way of the reference. A budgeted family
// runs over four times the rows unless sp says otherwise, accepts no
// failure and must spill; and for each shape in grace ('p', 'a' or 'g')
// some statement must degrade a join step to grace hash. Zero fields of
// sp take the defaults below.
func family(t *testing.T, seed int64, workers int, budget int64, grace string, sp spec) *driver {
	t.Parallel()
	or := func(p *float64, v float64) {
		if *p == 0 {
			*p = v
		}
	}
	or(&sp.param, 0.4)
	or(&sp.nulls, 0.15)
	or(&sp.expr, 0.3)
	if sp.shapes == "" {
		sp.shapes = "pag"
	}
	if sp.keys[0] == 0 {
		sp.keys = [2]int{1, 3}
	}
	if budget > 0 && sp.scale == 0 {
		sp.scale = 4
	}
	d := newDriver(t, seed, sp, 8, &cell{workers: workers, budget: budget})
	d.run()
	for _, shape := range []byte(grace) {
		if d.graced[shape] == 0 {
			t.Fatalf("no %c statement degraded a join step to grace hash", shape)
		}
	}
	return d
}

func TestGroupByVectorVsMALOracle(t *testing.T) {
	family(t, 11, 4, 0, "", spec{shapes: "g", keys: [2]int{1, 1}})
}
func TestGroupByPairVsMALOracle(t *testing.T) {
	family(t, 12, 4, 0, "", spec{shapes: "g", keys: [2]int{2, 2}})
}
func TestGroupByThreeKeysPropertyVsMAL(t *testing.T) {
	family(t, 13, 3, 0, "", spec{tables: [2]int{1, 2}, shapes: "g", keys: [2]int{3, 3}})
}
func TestGroupByPropertyVsOracle(t *testing.T) {
	family(t, 14, 3, 0, "", spec{tables: [2]int{1, 2}, shapes: "g", text: 0.3, order: 0.3})
}
func TestTombstonedHighCardinalityGroupBy(t *testing.T) {
	family(t, 15, 2, 0, "", spec{shapes: "g", groupOn: "id"})
}
func TestGlobalMinMaxOnVectorPath(t *testing.T) { family(t, 16, 4, 0, "", spec{shapes: "a"}) }
func TestGlobalAggregateLimit(t *testing.T)     { family(t, 17, 2, 0, "", spec{shapes: "a", limit: 1}) }
func TestAggExprVectorVsMALOracle(t *testing.T) { family(t, 18, 2, 0, "", spec{shapes: "ag", expr: 1}) }
func TestOrderByVectorVsMALOracle(t *testing.T) {
	family(t, 19, 8, 0, "", spec{shapes: "p", order: 1, limit: 0.4})
}
func TestIsNullEndToEnd(t *testing.T) { family(t, 20, 2, 0, "", spec{tables: [2]int{1, 2}, nulls: 1}) }
func TestIsNullShortCircuitOnNoNilColumns(t *testing.T) {
	family(t, 21, 2, 0, "", spec{filter: "id", nulls: 0.7})
}
func TestPreparedPlaceholdersOnNewShapes(t *testing.T) {
	family(t, 22, 2, 0, "", spec{tables: [2]int{1, 3}, param: 1, order: 0.5, limit: 0.5})
}
func TestJoinVectorVsMALOracle(t *testing.T) {
	family(t, 23, 2, 0, "", spec{tables: [2]int{2, 2}, shapes: "p"})
}
func TestNWayJoinVectorVsMALOracle(t *testing.T) {
	family(t, 24, 8, 0, "", spec{tables: [2]int{3, 5}, shapes: "p"})
}
func TestNWayOrderByVectorVsMALOracle(t *testing.T) {
	family(t, 25, 4, 0, "", spec{tables: [2]int{2, 4}, shapes: "p", order: 1, limit: 0.5})
}
func TestGroupByOverJoinVectorVsMALOracle(t *testing.T) {
	family(t, 26, 2, 0, "", spec{tables: [2]int{2, 4}, shapes: "ag", order: 0.3})
}

// At graceBudget a narrow sort of f's 12 000 rows may fit; at half, not.
func TestExternalSortEngineOracle(t *testing.T) {
	family(t, 27, 4, graceBudget/2, "", spec{shapes: "p", order: 1, limit: 0.3})
}
func TestGraceGroupEngineOracle(t *testing.T) {
	family(t, 28, 2, graceBudget, "", spec{shapes: "g", groupOn: "id", order: 0.5, limit: 0.3})
}
func TestGraceJoinEngineOracle(t *testing.T) {
	family(t, 29, 4, graceBudget, "p", spec{tables: [2]int{2, 2}, shapes: "p"})
}

// At graceBudget an in-memory build of d3 or dh leaves a later build or
// a grouping less than its staging (knownFailures, ROADMAP item 7), so
// this family groups nothing and joins no d3, and its dh is big enough
// to degrade.
func TestGraceNWayJoinEngineOracle(t *testing.T) {
	family(t, 30, 4, graceBudget, "pa", spec{tables: [2]int{3, 4}, shapes: "pa", order: 0.3, skip: "d3", scale: 8})
}
func TestVectorPathAndFallbackAgree(t *testing.T) { family(t, 31, 3, 0, "", spec{shapes: "p"}) }
func TestFloatPredsOverNullsOnVectorPath(t *testing.T) {
	family(t, 32, 2, 0, "", spec{filter: "x", nulls: 0.1})
}
func TestPreparedRebindMatchesOneShotOracle(t *testing.T) {
	family(t, 33, 2, 0, "", spec{shapes: "p", param: 1})
}
func TestVectorAggregates(t *testing.T) { family(t, 34, 4, 0, "", spec{shapes: "a", param: 1}) }
func TestNullsOnBothPaths(t *testing.T) { family(t, 35, 1, 0, "", spec{shapes: "pa", nulls: 0.5}) }
func TestGraceRoutingSpreadsHighBitKeys(t *testing.T) {
	family(t, 36, 2, graceBudget, "g", spec{tables: [2]int{1, 2}, shapes: "g", groupOn: "h"})
}
func TestTombstonedTablePlansVectorized(t *testing.T) { family(t, 37, 2, 0, "", spec{shapes: "pa"}) }
func TestLimitStreams(t *testing.T)                   { family(t, 38, 4, 0, "", spec{shapes: "p", limit: 1}) }
func TestPersistence(t *testing.T)                    { family(t, 39, 1, 0, "", spec{shapes: "p", nulls: 0.5}) }

// Joins only, at workers 1, 2 and 4: every statement the vector path
// lowers must run there, and its key filters are held to the semi-join
// reduction (driver.filters).
func TestJoinKeyFiltersMatchOracle(t *testing.T)      { keyFilters(t, 40, 0, "") }
func TestGraceJoinKeyFiltersMatchOracle(t *testing.T) { keyFilters(t, 41, graceBudget, "p") }

func keyFilters(t *testing.T, seed, budget int64, grace string) {
	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			if d := family(t, seed, w, budget, grace, spec{tables: [2]int{2, 4}, shapes: "p"}); d.filtered == 0 {
				t.Fatal("no key filter was held to the semi-join reduction")
			}
		})
	}
}

// Every predicate on one column of f: sorted (id), clustered (c) or
// random (a), through pruned and unpruned scans.
func TestPrunedScansMatchPlainGoFilter(t *testing.T) {
	for i, c := range [][2]string{{"sorted", "id"}, {"clustered", "c"}, {"random", "a"}} {
		for _, w := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", c[0], w), func(t *testing.T) {
				family(t, int64(100*i+w), w, 0, "", spec{tables: [2]int{1, 2}, filter: c[1], order: 0.3, limit: 0.3, nulls: 0.1})
			})
		}
	}
}

// ORDER BY a column of f that rises with the row (c), falls with it (r)
// or ignores it (v), mostly under a LIMIT: the top-N cutoff sees its
// best and worst arrival orders.
func TestTopNMatchesPlainGoStableSort(t *testing.T) {
	for i, c := range [][2]string{{"sorted", "c"}, {"reversed", "r"}, {"random", "v"}} {
		for _, w := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", c[0], w), func(t *testing.T) {
				family(t, int64(200+10*i+w), w, 0, "", spec{tables: [2]int{1, 2}, shapes: "p", orderOn: c[1], limit: 0.8})
			})
		}
	}
}

// Multi-match join chains many 64-row batches long, whose probe refills
// its output buffers every batch: in memory, and through the serial
// chain a grace-degraded step leaves behind.
func TestJoinProbeBufferReuseVsMALOracle(t *testing.T) {
	sp := spec{tables: [2]int{3, 3}, shapes: "p"}
	t.Run("workers=1", func(t *testing.T) { family(t, 300, 1, 0, "", sp) })
	t.Run("workers=4", func(t *testing.T) { family(t, 300, 4, 0, "", sp) })
	t.Run("grace", func(t *testing.T) { family(t, 300, 4, graceBudget, "p", sp) })
}
