package engine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/sqlfe"
)

// Data skipping may only ever remove work. The property test below runs
// one seeded statement mix against a plain-Go filter over a model of the
// table, at every stage of the table's life that changes what a scan may
// skip: rows appended to a fresh table (nothing to prune), columns
// after checkpoint + reopen (pruned), tombstones among pruned columns
// (filtered, no vacuum), columns rebuilt by a vacuum (zone maps
// rebuilt), and rows appended behind them (the tail no zone speaks
// for).

// zRow is one model row of table z; nil-ness is explicit.
type zRow struct {
	id, k, g   int64
	f          float64
	kNil, fNil bool
}

// zPred is one conjunct over z: col is "id", "k" or "f".
type zPred struct {
	col, op string
	iv      int64
	fv      float64
}

func (p zPred) sql() string {
	switch p.op {
	case "isnull":
		return p.col + " IS NULL"
	case "isnotnull":
		return p.col + " IS NOT NULL"
	}
	return p.col + " " + p.op + " ?"
}

func (p zPred) arg() (any, bool) {
	switch {
	case p.op == "isnull" || p.op == "isnotnull":
		return nil, false
	case p.col == "f":
		return p.fv, true
	}
	return p.iv, true
}

func cmp[T int64 | float64](op string, a, b T) bool {
	switch op {
	case "=":
		return a == b
	case "<>":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	}
	return a >= b
}

// holds is SQL's three-valued comparison collapsed to "the row
// qualifies": a NULL satisfies IS NULL and nothing else.
func (p zPred) holds(r zRow) bool {
	isNil := p.col == "k" && r.kNil || p.col == "f" && r.fNil
	switch p.op {
	case "isnull":
		return isNil
	case "isnotnull":
		return !isNil
	}
	if isNil {
		return false
	}
	switch p.col {
	case "id":
		return cmp(p.op, r.id, p.iv)
	case "k":
		return cmp(p.op, r.k, p.iv)
	}
	return cmp(p.op, r.f, p.fv)
}

func intCell(v int64, isNil bool) any {
	if isNil {
		return nil
	}
	return v
}

func fltCell(v float64, isNil bool) any {
	if isNil {
		return nil
	}
	return v
}

// zGen draws rows of one data shape: k and f follow the row index
// exactly ("sorted"), follow it with 2% far-away outliers ("clustered"),
// or ignore it ("random"). 3% of k and of f are NULL.
type zGen struct {
	rng   *rand.Rand
	shape string
	span  int64 // k's value domain
}

func (g *zGen) row(id int64) zRow {
	r := zRow{id: id, g: id % 7, k: id / 3, f: float64(id) / 2}
	if g.shape == "random" || g.shape == "clustered" && g.rng.Intn(50) == 0 {
		r.k = g.rng.Int63n(g.span)
		r.f = float64(g.rng.Int63n(2*g.span)) / 4
	}
	r.kNil, r.fNil = g.rng.Intn(33) == 0, g.rng.Intn(33) == 0
	return r
}

func insertZ(t *testing.T, db *DB, rows []zRow) {
	t.Helper()
	ins := &sqlfe.Insert{Table: "z"}
	for _, r := range rows {
		k, f := sqlfe.Lit{Kind: sqlfe.TInt, I: r.k}, sqlfe.Lit{Kind: sqlfe.TFloat, F: r.f}
		if r.kNil {
			k = sqlfe.Lit{Null: true}
		}
		if r.fNil {
			f = sqlfe.Lit{Null: true}
		}
		ins.Rows = append(ins.Rows, []sqlfe.Lit{{Kind: sqlfe.TInt, I: r.id}, k, f, {Kind: sqlfe.TInt, I: r.g}})
	}
	if _, err := db.sdb.ExecStmt(ins); err != nil {
		t.Fatal(err)
	}
}

// zPreds draws the predicate mix: every operator on k and on f, the nil
// tests, and two-sided ranges. Half the constants are the value of the
// first or last row of a zone or next to it (in the sorted shape: the
// zone's min or max), the rest come from anywhere in the data and from
// beyond both ends of the domain.
func zPreds(rng *rand.Rand, model []zRow, span int64) [][]zPred {
	near := func() zRow {
		if rng.Intn(2) == 0 {
			edge := rng.Intn(len(model)/sqlfe.ZoneRows+1)*sqlfe.ZoneRows - rng.Intn(2)
			return model[min(max(edge, 0), len(model)-1)]
		}
		return model[rng.Intn(len(model))]
	}
	pickK := func() int64 {
		switch rng.Intn(10) {
		case 0:
			return bat.NilInt + 1
		case 1:
			return math.MaxInt64
		case 2:
			return -1
		case 3:
			return span + rng.Int63n(span)
		}
		return near().k + int64(rng.Intn(3)) - 1
	}
	pickF := func() float64 {
		switch rng.Intn(10) {
		case 0:
			return math.Inf(-1)
		case 1:
			return math.Inf(1)
		case 2:
			return -0.25
		}
		return near().f + float64(rng.Intn(3)-1)/4
	}
	var out [][]zPred
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		for i := 0; i < 2; i++ {
			out = append(out, []zPred{{col: "k", op: op, iv: pickK()}}, []zPred{{col: "f", op: op, fv: pickF()}})
		}
		out = append(out, []zPred{{col: "id", op: op, iv: model[rng.Intn(len(model))].id}})
	}
	for _, col := range []string{"k", "f", "id"} {
		out = append(out, []zPred{{col: col, op: "isnull"}}, []zPred{{col: col, op: "isnotnull"}})
	}
	for i := 0; i < 3; i++ {
		lo := near().k
		out = append(out, []zPred{{col: "k", op: ">=", iv: lo}, {col: "k", op: "<", iv: lo + int64(rng.Intn(400))}})
		flo := near().f
		out = append(out, []zPred{{col: "f", op: ">", fv: flo}, {col: "f", op: "<=", fv: flo + float64(rng.Intn(200))}})
		out = append(out, []zPred{{col: "id", op: ">=", iv: model[rng.Intn(len(model))].id}, {col: "k", op: "<>", iv: pickK()}})
		out = append(out, []zPred{{col: "k", op: "isnull"}, {col: "f", op: "<", fv: pickF()}})
	}
	// An empty two-sided range prunes every zone.
	out = append(out, []zPred{{col: "k", op: ">", iv: 10}, {col: "k", op: "<", iv: 10}})
	return out
}

const dimRows = 3000 // table d: dk = 0..dimRows-1 (unique, sorted), w = 10*dk

// zCheck runs every statement shape over every predicate set and
// compares with the model.
func zCheck(t *testing.T, stage string, conn *Conn, model []zRow, preds [][]zPred, rng *rand.Rand) {
	t.Helper()
	for _, ps := range preds {
		where, args := "", []any{}
		var pass []zRow
		for i, p := range ps {
			if i > 0 {
				where += " AND "
			}
			where += p.sql()
			if a, ok := p.arg(); ok {
				args = append(args, a)
			}
		}
	rows:
		for _, r := range model {
			for _, p := range ps {
				if !p.holds(r) {
					continue rows
				}
			}
			pass = append(pass, r)
		}
		run := func(sql string, want [][]any, args ...any) {
			t.Helper()
			rows, err := conn.Query(bg, sql, args...)
			if err != nil {
				t.Fatalf("%s: %s %v: %v", stage, sql, args, err)
			}
			if err := sameMultiset(drainRows(t, rows, nil), want); err != nil {
				t.Fatalf("%s: %s %v: %v", stage, sql, args, err)
			}
		}

		// Plain projection.
		want := [][]any{}
		for _, r := range pass {
			want = append(want, []any{r.id, intCell(r.k, r.kNil), fltCell(r.f, r.fNil)})
		}
		run("SELECT id, k, f FROM z WHERE "+where, want, args...)

		// Global aggregate: NULL sum/min/max over no (non-nil) input.
		var cnt, sum int64
		var lo, hi any
		for _, r := range pass {
			cnt++
			sum += r.id
			if !r.kNil && (lo == nil || r.k < lo.(int64)) {
				lo = r.k
			}
			if !r.kNil && (hi == nil || r.k > hi.(int64)) {
				hi = r.k
			}
		}
		run("SELECT count(*), sum(id), min(k), max(k) FROM z WHERE "+where,
			[][]any{{cnt, intCell(sum, cnt == 0), lo, hi}}, args...)

		// GROUP BY.
		type acc struct{ n, s int64 }
		groups := map[int64]*acc{}
		for _, r := range pass {
			a := groups[r.g]
			if a == nil {
				a = &acc{}
				groups[r.g] = a
			}
			a.n++
			a.s += r.id
		}
		want = [][]any{}
		for g, a := range groups {
			want = append(want, []any{g, a.n, a.s})
		}
		run("SELECT g, count(*), sum(id) FROM z WHERE "+where+" GROUP BY g", want, args...)

		// ORDER BY a unique key, LIMIT: the row-id tiebreak column rides
		// through the pruned scan.
		sorted := append([]zRow(nil), pass...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].id > sorted[j].id })
		want = [][]any{}
		for _, r := range sorted[:min(7, len(sorted))] {
			want = append(want, []any{r.id, intCell(r.k, r.kNil)})
		}
		run("SELECT id, k FROM z WHERE "+where+" ORDER BY id DESC LIMIT 7", want, args...)

		// Join: z and d are both leaves with predicates of their own.
		cut := int64(rng.Intn(dimRows + 100))
		want = [][]any{}
		for _, r := range pass {
			if !r.kNil && r.k >= 0 && r.k < dimRows && r.k < cut {
				want = append(want, []any{r.id, r.k * 10})
			}
		}
		run("SELECT z.id, d.w FROM z JOIN d ON z.k = d.dk WHERE "+where+" AND d.dk < ?", want, append(args, cut)...)
	}
}

func TestPrunedScansMatchPlainGoFilter(t *testing.T) {
	const n = 5000 // 4 full zones and a short one
	for i, shape := range []string{"sorted", "clustered", "random"} {
		for _, workers := range []int{1, 2, 4} {
			shape, workers, seed := shape, workers, int64(100*i+workers)
			t.Run(fmt.Sprintf("%s/workers=%d", shape, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				gen := &zGen{rng: rng, shape: shape, span: 3 * n}
				dir := t.TempDir()
				// Morsels of 1500 rows are cut inside the surviving ranges and
				// never line up with the 1024-row zones.
				opts := []Option{WithDir(dir), WithWorkers(workers)}
				db, err := openSized(1500, 200, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { db.Close() }()
				mustExec(t, db, "CREATE TABLE z (id INT, k INT, f FLOAT, g INT)")
				mustExec(t, db, "CREATE TABLE d (dk INT, w INT)")
				model := make([]zRow, n)
				for i := range model {
					model[i] = gen.row(int64(i))
					if shape == "clustered" && i >= 2048 && i < 3072 {
						model[i].kNil, model[i].fNil = true, true // an all-nil zone
					}
				}
				insertZ(t, db, model)
				dim := &sqlfe.Insert{Table: "d"}
				for k := int64(0); k < dimRows; k++ {
					dim.Rows = append(dim.Rows, []sqlfe.Lit{{Kind: sqlfe.TInt, I: k}, {Kind: sqlfe.TInt, I: 10 * k}})
				}
				if _, err := db.sdb.ExecStmt(dim); err != nil {
					t.Fatal(err)
				}
				preds := zPreds(rng, model, gen.span)
				zCheck(t, "deltas", db.Conn(), model, preds, rng)

				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				if db, err = openSized(1500, 200, opts...); err != nil {
					t.Fatal(err)
				}
				zCheck(t, "reopened", db.Conn(), model, preds, rng)

				// Delete a slab that starts and ends inside a zone: the pruned
				// scans filter its tombstones; then the vacuum shifts every
				// later row and must re-derive the maps.
				mustExec(t, db, "DELETE FROM z WHERE id >= ? AND id < ?", 700, 2300)
				kept := model[:0:0]
				for _, r := range model {
					if r.id < 700 || r.id >= 2300 {
						kept = append(kept, r)
					}
				}
				model = kept
				zCheck(t, "deleted", db.Conn(), model, preds, rng)
				if got, err := db.Vacuum(); err != nil || got != 1 {
					t.Fatalf("vacuum: %d tables, %v", got, err)
				}
				zCheck(t, "vacuumed", db.Conn(), model, preds, rng)

				// New rows are appended past the zone maps: values from all
				// over the domain, which no zone admits to.
				extra := make([]zRow, 300)
				for i := range extra {
					extra[i] = gen.row(int64(rng.Intn(n)))
					extra[i].id = int64(n + i)
				}
				insertZ(t, db, extra)
				model = append(model, extra...)
				zCheck(t, "vacuumed+deltas", db.Conn(), model, preds, rng)
			})
		}
	}
}

// scanLine finds "scan <table>: K/Z zones, R/T rows" in a \plan.
func scanLine(t *testing.T, plan, table string) (kept, zones, rows, total int) {
	t.Helper()
	for _, line := range strings.Split(plan, "\n") {
		if _, err := fmt.Sscanf(line, "scan "+table+": %d/%d zones, %d/%d rows", &kept, &zones, &rows, &total); err == nil {
			return
		}
	}
	t.Fatalf("no scan line for %s in:\n%s", table, plan)
	return
}

// loadAcct bulk-loads the serving benchmark's table shape: id is the row
// index and grp rises with it.
func loadAcct(t testing.TB, db *DB, n int) {
	t.Helper()
	if _, err := db.Exec(bg, "CREATE TABLE acct (id INT, grp INT, bal INT)"); err != nil {
		t.Fatal(err)
	}
	ins := &sqlfe.Insert{Table: "acct"}
	for i := 0; i < n; i++ {
		ins.Rows = append(ins.Rows, []sqlfe.Lit{
			{Kind: sqlfe.TInt, I: int64(i)}, {Kind: sqlfe.TInt, I: int64(i / 200)}, {Kind: sqlfe.TInt, I: int64(i % 1000)}})
	}
	if _, err := db.sdb.ExecStmt(ins); err != nil {
		t.Fatal(err)
	}
}

// TestZonePointLookupScansAtMostTwoZones is the structural form of the
// serving claim: on a reopened 200 000-row table the three serve_point
// reads touch one or two of the 196 zones, whatever the clock says.
func TestZonePointLookupScansAtMostTwoZones(t *testing.T) {
	const n = 200000
	dir := t.TempDir()
	db, err := Open(WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	loadAcct(t, db, n)
	plan, err := db.Conn().Plan("SELECT id, grp, bal FROM acct WHERE id = 123456")
	if err != nil {
		t.Fatal(err)
	}
	if kept, zones, rows, total := scanLine(t, plan, "acct"); kept != 0 || zones != 0 || rows != n || total != n {
		t.Fatalf("rows in deltas: %d/%d zones, %d/%d rows; want 0/0, all rows", kept, zones, rows, total)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(WithDir(dir)); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	conn := db.Conn()
	for _, c := range []struct {
		sql      string
		maxZones int
		want     [][]any
	}{
		{"SELECT id, grp, bal FROM acct WHERE id = 123456", 1, [][]any{{int64(123456), int64(617), int64(456)}}},
		{"SELECT count(*), sum(bal) FROM acct WHERE grp = 512", 2, [][]any{{int64(200), int64(99900)}}},
		{"SELECT count(*), sum(bal) FROM acct WHERE id >= 101900 AND id < 102900", 2, [][]any{{int64(1000), int64(499500)}}},
		{"SELECT count(*) FROM acct WHERE id = 200000", 0, [][]any{{int64(0)}}},
	} {
		plan, err := conn.Plan(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		kept, zones, rows, total := scanLine(t, plan, "acct")
		if zones != (n+sqlfe.ZoneRows-1)/sqlfe.ZoneRows || total != n || kept > c.maxZones || rows > kept*sqlfe.ZoneRows {
			t.Errorf("%s: %d/%d zones, %d/%d rows; want at most %d zones", c.sql, kept, zones, rows, total, c.maxZones)
		}
		if got := collect(t)(conn.Query(bg, c.sql)); !sameRows(got, c.want) {
			t.Errorf("%s: %v, want %v", c.sql, got, c.want)
		}
	}
}

func sameRows(a, b [][]any) bool { return sameMultiset(a, b) == nil }

// TestZoneMapsDieWithTheirDB: whatever a DB builds for data skipping is
// reachable only through its tables — 20 open/query/close cycles of one
// process over the same directory leave the heap where 5 left it.
func TestZoneMapsDieWithTheirDB(t *testing.T) {
	const n = 100000 // 2.4 MB of columns per open: a leak of one open shows
	dir := t.TempDir()
	db, err := Open(WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	loadAcct(t, db, n)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	var base uint64
	for i := 1; i <= 20; i++ {
		db, err := Open(WithDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		got := collect(t)(db.Query(bg, "SELECT count(*) FROM acct WHERE id >= ? AND id < ?", 5000, 6000))
		if !sameRows(got, [][]any{{int64(1000)}}) {
			t.Fatalf("cycle %d: %v", i, got)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if i == 5 {
			base = heap()
		}
	}
	if after := heap(); after > base+(1<<20) {
		t.Errorf("heap in use grew from %d to %d bytes over 15 open/close cycles", base, after)
	}
}
