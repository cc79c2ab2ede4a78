package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/physical"
	"repro/internal/sqlfe"
)

// loadStar builds a nil-laden star/snowflake schema: one fact table with
// four INT dimension keys plus a measure, and four dimensions of very
// different sizes and selectivities (what gives the greedy orderer
// something to get right). dc additionally keys off db2's payload so a
// snowflake chain is reachable too.
func loadStar(t testing.TB, db *DB, facts int, seed int64) {
	t.Helper()
	for _, ddl := range []string{
		"CREATE TABLE fact (d1 INT, d2 INT, d3 INT, d4 INT, m INT)",
		"CREATE TABLE da (k INT, p INT)",
		"CREATE TABLE db2 (k INT, p INT, q FLOAT)",
		"CREATE TABLE dc (k INT, p INT)",
		"CREATE TABLE dd (k INT, q FLOAT)",
	} {
		if _, err := db.Exec(bg, ddl); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	key := func(card int) sqlfe.Lit {
		if rng.Intn(8) == 0 {
			return sqlfe.Lit{Null: true} // nil keys never join
		}
		return sqlfe.Lit{Kind: sqlfe.TInt, I: rng.Int63n(int64(card))}
	}
	iv := func(n int64) sqlfe.Lit { return sqlfe.Lit{Kind: sqlfe.TInt, I: rng.Int63n(n) - n/2} }
	fv := func() sqlfe.Lit { return sqlfe.Lit{Kind: sqlfe.TFloat, F: float64(rng.Int63n(1000)) / 8} }

	ins := &sqlfe.Insert{Table: "fact"}
	for i := 0; i < facts; i++ {
		// d1 is hot (tiny domain, heavy duplication); d4 is wide (rarely
		// matched by the small dd) — a skew spread the orderer must rank.
		ins.Rows = append(ins.Rows, []sqlfe.Lit{key(6), key(40), key(120), key(1000), iv(400)})
	}
	exec := func(ins *sqlfe.Insert) {
		if _, err := db.sdb.ExecStmt(ins); err != nil {
			t.Fatal(err)
		}
	}
	exec(ins)
	dim := func(name string, n, card int, float bool) {
		ins := &sqlfe.Insert{Table: name}
		for i := 0; i < n; i++ {
			row := []sqlfe.Lit{key(card), iv(600)}
			if float {
				row = append(row, fv())
			}
			if name == "dd" {
				row = []sqlfe.Lit{key(card), fv()}
			}
			ins.Rows = append(ins.Rows, row)
		}
		exec(ins)
	}
	dim("da", 90, 6, false)    // hot dim: every fact row matches ~15 ways
	dim("db2", 120, 40, true)  // mid-size
	dim("dc", 60, 120, false)  // selective
	dim("dd", 25, 1000, false) // very selective: most fact rows drop
}

// N-way joins on the vector path produce the MAL join's rows (as a
// multiset — probe order is nondeterministic) on nil-laden star data,
// filtered on both sides, across worker counts. Every query must route
// through the physical plan, and \plan must report the observed greedy
// join order.
func TestNWayJoinVectorVsMALOracle(t *testing.T) {
	queries := []string{
		// 3 tables.
		"SELECT fact.m, da.p, db2.p FROM fact JOIN da ON fact.d1 = da.k JOIN db2 ON fact.d2 = db2.k",
		"SELECT fact.m, da.p FROM fact JOIN da ON fact.d1 = da.k JOIN db2 ON fact.d2 = db2.k WHERE m > 0 AND db2.p < 100",
		// Snowflake chain: dc keys off db2's payload, not the fact.
		"SELECT fact.m, dc.p FROM fact JOIN db2 ON fact.d2 = db2.k JOIN dc ON db2.p = dc.k",
		// 4 tables.
		"SELECT fact.m, da.p, db2.q, dc.p FROM fact JOIN da ON fact.d1 = da.k JOIN db2 ON fact.d2 = db2.k JOIN dc ON fact.d3 = dc.k WHERE da.p > -200",
		// 5 tables, star, filtered.
		"SELECT fact.m, da.p, db2.p, dc.p, dd.q FROM fact JOIN da ON fact.d1 = da.k JOIN db2 ON fact.d2 = db2.k JOIN dc ON fact.d3 = dc.k JOIN dd ON fact.d4 = dd.k WHERE m > -150",
		"SELECT * FROM fact JOIN da ON fact.d1 = da.k JOIN db2 ON fact.d2 = db2.k JOIN dc ON fact.d3 = dc.k JOIN dd ON fact.d4 = dd.k",
	}
	for _, workers := range []int{1, 2, 4, 8} {
		db, _ := openSized(64, 32, WithWorkers(workers))
		loadStar(t, db, 900, 5+int64(workers))
		conn := db.Conn()
		for _, q := range queries {
			plan, err := conn.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan, "vectorized pipeline") || !strings.Contains(plan, "join order (greedy") {
				t.Fatalf("%s: expected N-way vector routing with observed order, got:\n%s", q, plan)
			}
			got := collect(t)(conn.Query(bg, q))
			oracle, err := db.sdb.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameMultiset(got, oracle.Rows); err != nil {
				t.Fatalf("%s (workers=%d): %v", q, workers, err)
			}
		}
		db.Close()
	}
}

// ORDER BY over a join returns EXACTLY the MAL sequence: both engines
// emit the canonical order — sort key first, ties broken by every
// output column left to right, DESC a full reversal — because a join
// has no stable input order to preserve.
func TestNWayOrderByVectorVsMALOracle(t *testing.T) {
	queries := []string{
		"SELECT fact.m, da.p FROM fact JOIN da ON fact.d1 = da.k ORDER BY m",
		"SELECT fact.m, da.p FROM fact JOIN da ON fact.d1 = da.k ORDER BY m DESC",
		"SELECT fact.m, da.p, db2.p FROM fact JOIN da ON fact.d1 = da.k JOIN db2 ON fact.d2 = db2.k ORDER BY m LIMIT 40",
		"SELECT fact.m, da.p, db2.q FROM fact JOIN da ON fact.d1 = da.k JOIN db2 ON fact.d2 = db2.k WHERE da.p > -300 ORDER BY q DESC LIMIT 25",
		// Unprojected sort key over a join.
		"SELECT da.p FROM fact JOIN da ON fact.d1 = da.k ORDER BY m LIMIT 30",
	}
	for _, workers := range []int{1, 2, 4, 8} {
		db, _ := openSized(64, 32, WithWorkers(workers))
		loadStar(t, db, 700, 11+int64(workers))
		conn := db.Conn()
		for _, q := range queries {
			plan, err := conn.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan, "canonical value ties") {
				t.Fatalf("%s: expected canonical sorted join routing, got:\n%s", q, plan)
			}
			got := collect(t)(conn.Query(bg, q))
			oracle, err := db.sdb.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(oracle.Rows) {
				t.Fatalf("%s (workers=%d): %d rows vs oracle %d", q, workers, len(got), len(oracle.Rows))
			}
			for i := range got {
				if fmt.Sprint(got[i]) != fmt.Sprint(oracle.Rows[i]) {
					t.Fatalf("%s (workers=%d) row %d: vec %v, MAL %v", q, workers, i, got[i], oracle.Rows[i])
				}
			}
		}
		db.Close()
	}
}

// GROUP BY and global aggregates over join output lower onto the same
// join pipeline feeding the grouping core, and match MAL. Grouped ORDER
// BY over a join compares exactly (canonical group order both sides).
func TestGroupByOverJoinVectorVsMALOracle(t *testing.T) {
	unordered := []string{
		"SELECT da.p, count(*) FROM fact JOIN da ON fact.d1 = da.k GROUP BY da.p",
		"SELECT fact.d2, sum(fact.m), min(da.p) FROM fact JOIN da ON fact.d1 = da.k GROUP BY fact.d2",
		"SELECT da.p, db2.p, avg(fact.m) FROM fact JOIN da ON fact.d1 = da.k JOIN db2 ON fact.d2 = db2.k GROUP BY da.p, db2.p",
		"SELECT sum(fact.m), count(*), max(db2.q) FROM fact JOIN da ON fact.d1 = da.k JOIN db2 ON fact.d2 = db2.k WHERE da.p > -250",
		// Aggregates over expressions crossing tables of the join.
		"SELECT da.p, sum(fact.m + da.p), avg(fact.m * 2) FROM fact JOIN da ON fact.d1 = da.k GROUP BY da.p",
	}
	ordered := []string{
		"SELECT da.p AS dp, sum(fact.m) FROM fact JOIN da ON fact.d1 = da.k GROUP BY da.p ORDER BY dp",
		"SELECT da.p AS dp, count(*) FROM fact JOIN da ON fact.d1 = da.k JOIN db2 ON fact.d2 = db2.k GROUP BY da.p ORDER BY dp DESC LIMIT 12",
	}
	for _, workers := range []int{1, 2, 4, 8} {
		db, _ := openSized(64, 32, WithWorkers(workers))
		loadStar(t, db, 800, 23+int64(workers))
		conn := db.Conn()
		for _, q := range unordered {
			plan, err := conn.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan, "vectorized pipeline") || !strings.Contains(plan, "hash-join[") {
				t.Fatalf("%s: expected grouped-over-join routing, got:\n%s", q, plan)
			}
			got := collect(t)(conn.Query(bg, q))
			oracle, err := db.sdb.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameMultiset(got, oracle.Rows); err != nil {
				t.Fatalf("%s (workers=%d): %v", q, workers, err)
			}
		}
		for _, q := range ordered {
			got := collect(t)(conn.Query(bg, q))
			oracle, err := db.sdb.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(oracle.Rows) {
				t.Fatalf("%s (workers=%d): vec %v, MAL %v", q, workers, got, oracle.Rows)
			}
		}
		db.Close()
	}
}

// Aggregates over arithmetic expressions lower via a pre-projection of
// nil-propagating expression kernels and match MAL exactly on nil-laden
// single-table data — int and float, col-op-col, col-op-lit, lit-op-col.
func TestAggExprVectorVsMALOracle(t *testing.T) {
	global := []string{
		"SELECT sum(k + v) FROM g",
		"SELECT avg(v * 2) FROM g",
		"SELECT count(v + 1), sum(10 - v) FROM g",
		"SELECT min(v - k), max(k * 3) FROM g",
		"SELECT sum(f * 2.5), avg(f + v) FROM g",
		"SELECT min(1.5 - f), max(f - 2.0) FROM g",
		"SELECT count(f * 2.0), sum(v + f) FROM g",
	}
	grouped := []string{
		"SELECT k, sum(v + 1), avg(v * 2) FROM g GROUP BY k",
		"SELECT k, count(v * 2), min(10 - v) FROM g GROUP BY k",
		"SELECT k, sum(f + 1.5), max(f * -1.0) FROM g GROUP BY k",
		"SELECT k, avg(v + f) FROM g GROUP BY k",
	}
	for _, workers := range []int{1, 2, 4, 8} {
		db, _ := openSized(128, 64, WithWorkers(workers))
		loadGrouped(t, db, "g", 1500, 17, 31+int64(workers))
		conn := db.Conn()
		for _, q := range append(append([]string{}, global...), grouped...) {
			plan, err := conn.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan, "expr-project[") {
				t.Fatalf("%s: expected expression pre-projection routing, got:\n%s", q, plan)
			}
			got := collect(t)(conn.Query(bg, q))
			oracle, err := db.sdb.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameMultiset(got, oracle.Rows); err != nil {
				t.Fatalf("%s (workers=%d): %v", q, workers, err)
			}
		}
		db.Close()
	}
}

// The hash-join probe refills the same output columns for every batch.
// A plain projection over a chain of multi-match joins, many batches
// long, must still return the MAL rows: in-memory at the derived morsel
// size on 1 and 4 workers, and through the serial chain that a
// grace-degraded step leaves behind, whose join output reaches the
// cursor without an Exchange copy in between.
func TestJoinProbeBufferReuseVsMALOracle(t *testing.T) {
	const q = "SELECT jl.v, jm.v, jr.f FROM jl JOIN jm ON jl.k = jm.k JOIN jr ON jm.k = jr.k"
	for _, c := range []struct {
		name string
		open func() *DB
	}{
		{"workers=1", func() *DB { db, _ := Open(WithWorkers(1)); return db }},
		{"workers=4", func() *DB { db, _ := Open(WithWorkers(4)); return db }},
		{"grace", func() *DB { db, _ := newGovDB(t, 256<<10, 4); return db }},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := c.open()
			defer db.Close()
			loadGrouped(t, db, "jl", 12000, 3000, 21)
			loadGrouped(t, db, "jm", 6000, 3000, 22)
			loadGrouped(t, db, "jr", 6000, 3000, 23)
			spills := db.SpillStats().Spills
			rows, err := db.Query(bg, q)
			if err != nil {
				t.Fatal(err)
			}
			var got [][]any
			batches := 0
			for rows.Next() {
				if rows.bi == 1 { // the row opened a new batch
					batches++
				}
				row := make([]any, 3)
				if err := rows.Scan(&row[0], &row[1], &row[2]); err != nil {
					t.Fatal(err)
				}
				got = append(got, row)
			}
			if err := rows.Err(); err != nil {
				t.Fatal(err)
			}
			oracle, err := db.sdb.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameMultiset(got, oracle.Rows); err != nil {
				t.Fatal(err)
			}
			if batches < 3 || len(got) <= 12000 {
				t.Fatalf("%d rows in %d batches: want a multi-match result of at least 3 batches", len(got), batches)
			}
			if grace := db.SpillStats().Spills > spills; grace != (c.name == "grace") {
				t.Fatalf("spilled = %v", grace)
			}
		})
	}
}

// Property: GROUP BY over THREE keys (composite hash over K columns)
// agrees with MAL's group+subgroup refinement on random nil-laden data.
func TestGroupByThreeKeysPropertyVsMAL(t *testing.T) {
	db, _ := openSized(64, 32, WithWorkers(3))
	defer db.Close()
	i := 0
	check := func(seed int64, c1, c2, c3 uint8) bool {
		i++
		name := fmt.Sprintf("k3_%d", i)
		mustExec(t, db, fmt.Sprintf("CREATE TABLE %s (a INT, b INT, c INT, m INT)", name))
		rng := rand.New(rand.NewSource(seed))
		key := func(card int) sqlfe.Lit {
			if rng.Intn(6) == 0 {
				return sqlfe.Lit{Null: true} // nil is a legal group key
			}
			return sqlfe.Lit{Kind: sqlfe.TInt, I: rng.Int63n(int64(card))}
		}
		ins := &sqlfe.Insert{Table: name}
		for r := 0; r < 300; r++ {
			ins.Rows = append(ins.Rows, []sqlfe.Lit{
				key(1 + int(c1)%7), key(1 + int(c2)%9), key(1 + int(c3)%5),
				{Kind: sqlfe.TInt, I: rng.Int63n(200) - 100},
			})
		}
		if _, err := db.sdb.ExecStmt(ins); err != nil {
			t.Fatal(err)
		}
		q := fmt.Sprintf("SELECT a, b, c, count(*), sum(m) FROM %s GROUP BY a, b, c", name)
		plan, err := db.Conn().Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "group-by[col0,col1,col2]") {
			t.Fatalf("%s: expected 3-key grouped routing, got:\n%s", q, plan)
		}
		got := collect(t)(db.Query(bg, q))
		oracle, err := db.sdb.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return sameMultiset(got, oracle.Rows) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// The greedy orderer must beat naive textual order on a skewed star: the
// textual first join explodes (hot dimension), while the selective
// dimension the orderer prefers keeps intermediates small. Compares the
// measured intermediate cardinalities of both orders on the same
// snapshot, and that both produce the same rows. The last step's output
// is the result under any order, so only the steps before it count.
func TestGreedyOrderBeatsNaive(t *testing.T) {
	db, _ := openSized(64, 32, WithWorkers(2))
	defer db.Close()
	mustExec(t, db, "CREATE TABLE sfact (h INT, s INT, m INT)")
	mustExec(t, db, "CREATE TABLE hot (k INT, p INT)")
	mustExec(t, db, "CREATE TABLE sel (k INT, p INT)")
	rng := rand.New(rand.NewSource(77))
	ins := &sqlfe.Insert{Table: "sfact"}
	for i := 0; i < 1500; i++ {
		ins.Rows = append(ins.Rows, []sqlfe.Lit{
			{Kind: sqlfe.TInt, I: rng.Int63n(4)},    // hot key: tiny domain
			{Kind: sqlfe.TInt, I: rng.Int63n(2000)}, // selective key: wide domain
			{Kind: sqlfe.TInt, I: rng.Int63n(100)},
		})
	}
	if _, err := db.sdb.ExecStmt(ins); err != nil {
		t.Fatal(err)
	}
	ins = &sqlfe.Insert{Table: "hot"}
	for i := 0; i < 200; i++ { // every fact row matches ~50 hot rows
		ins.Rows = append(ins.Rows, []sqlfe.Lit{
			{Kind: sqlfe.TInt, I: rng.Int63n(4)},
			{Kind: sqlfe.TInt, I: rng.Int63n(50)},
		})
	}
	if _, err := db.sdb.ExecStmt(ins); err != nil {
		t.Fatal(err)
	}
	ins = &sqlfe.Insert{Table: "sel"}
	for i := 0; i < 40; i++ { // most fact rows match nothing here
		ins.Rows = append(ins.Rows, []sqlfe.Lit{
			{Kind: sqlfe.TInt, I: rng.Int63n(2000)},
			{Kind: sqlfe.TInt, I: rng.Int63n(50)},
		})
	}
	if _, err := db.sdb.ExecStmt(ins); err != nil {
		t.Fatal(err)
	}

	// Textual order puts the exploding join first.
	const q = "SELECT sfact.m, hot.p, sel.p FROM sfact JOIN hot ON sfact.h = hot.k JOIN sel ON sfact.s = sel.k"
	st, err := sqlfe.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*sqlfe.Select)
	conn := db.Conn()
	snap := conn.snapshot()
	phys, fb := physical.Lower(sel, snap)
	if phys == nil {
		t.Fatalf("query did not lower: %v", fb)
	}
	run := func(naive bool) ([][]any, int64) {
		stats := &physical.ExecStats{}
		opts := db.physOpts()
		opts.Stats = stats
		opts.NaiveJoinOrder = naive
		res, fb, err := phys.Execute(bg, snap, nil, opts)
		if err != nil || fb != nil {
			t.Fatalf("naive=%v: fb=%v err=%v", naive, fb, err)
		}
		rows := drainRows(t, newVecRows(bg, make([]string, len(sel.Items)), res.Op, res.Limit), nil)
		var inter int64
		for i := range stats.Joins[:len(stats.Joins)-1] {
			inter += atomic.LoadInt64(&stats.Joins[i].Actual)
		}
		return rows, inter
	}
	greedyRows, greedyInter := run(false)
	naiveRows, naiveInter := run(true)
	if err := sameMultiset(greedyRows, naiveRows); err != nil {
		t.Fatalf("greedy and naive orders disagree on rows: %v", err)
	}
	if greedyInter*2 >= naiveInter {
		t.Fatalf("greedy order did not pay: %d intermediate rows vs naive %d", greedyInter, naiveInter)
	}
	t.Logf("intermediate rows: greedy=%d naive=%d (%.1fx)", greedyInter, naiveInter, float64(naiveInter)/float64(greedyInter+1))
}
