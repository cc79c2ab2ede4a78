package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/sqlfe"
)

// loadJoinPair populates two tables with overlapping, nil-laden INT
// join keys plus int/float payloads.
func loadJoinPair(t *testing.T, db *DB, nl, nr int, seed int64) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE jl (k INT, v INT)")
	mustExec(t, db, "CREATE TABLE jr (k INT, w FLOAT)")
	rng := rand.New(rand.NewSource(seed))
	insert := func(table string, n int, flt bool) {
		ins := &sqlfe.Insert{Table: table}
		for i := 0; i < n; i++ {
			k := sqlfe.Lit{Kind: sqlfe.TInt, I: rng.Int63n(40)}
			if rng.Intn(8) == 0 {
				k = sqlfe.Lit{Null: true} // nil keys must never match
			}
			var p sqlfe.Lit
			if flt {
				p = sqlfe.Lit{Kind: sqlfe.TFloat, F: float64(rng.Int63n(1000)) / 4}
			} else {
				p = sqlfe.Lit{Kind: sqlfe.TInt, I: rng.Int63n(500) - 250}
			}
			ins.Rows = append(ins.Rows, []sqlfe.Lit{k, p})
		}
		if _, err := db.sdb.ExecStmt(ins); err != nil {
			t.Fatal(err)
		}
	}
	insert("jl", nl, false)
	insert("jr", nr, true)
}

// Every fallback carries a machine-readable reason in \plan — no
// statement routes to MAL silently — and the route depends on the
// statement alone: neither SELECT * under GROUP BY nor tombstones send
// a statement to MAL.
func TestFallbackReasonsSurfaced(t *testing.T) {
	db, _ := Open()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a INT, b INT, c INT, f FLOAT, s TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 2, 3, 1.5, 'x')")
	mustExec(t, db, "CREATE TABLE u (a INT, s TEXT)")
	mustExec(t, db, "INSERT INTO u VALUES (1, 'y')")
	mustExec(t, db, "CREATE TABLE x2 (a INT, s TEXT)")
	mustExec(t, db, "INSERT INTO x2 VALUES (1, 'z')")
	mustExec(t, db, "CREATE TABLE w1 (a INT)")
	mustExec(t, db, "INSERT INTO w1 VALUES (1)")
	conn := db.Conn()

	cases := []struct{ q, reason string }{
		{"SELECT s FROM t", "text-column"},
		{"SELECT a + 1 FROM t", "expression-in-select"},
		{"SELECT s, sum(a) FROM t GROUP BY s", "group-key-not-int"},
		{"SELECT f, count(*) FROM t GROUP BY f", "group-key-not-int"},
		{"SELECT a FROM t ORDER BY s", "order-key-not-sortable"},
		{"SELECT sum(a) AS total FROM t ORDER BY total", "order-key-not-sortable"},
		{"SELECT t.a FROM t JOIN u ON t.s = u.s", "join-key-not-int"},
		// N-way: the disqualifying edge is the SECOND join, not the first.
		{"SELECT t.a FROM t JOIN u ON t.a = u.a JOIN x2 ON u.s = x2.s", "join-key-not-int"},
		// ORDER BY over a join on an unprojected TEXT key.
		{"SELECT t.a FROM t JOIN u ON t.a = u.a ORDER BY s", "order-key-not-sortable"},
	}
	for _, tc := range cases {
		plan, err := conn.Plan(tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		if strings.Contains(plan, "vectorized") {
			t.Fatalf("%s: expected MAL fallback, got:\n%s", tc.q, plan)
		}
		if !strings.Contains(plan, "reason="+tc.reason) {
			t.Fatalf("%s: missing reason %q in:\n%s", tc.q, tc.reason, plan)
		}
	}

	// Vectorized, with MAL's rows: SELECT * under GROUP BY (the binder
	// already made every expanded item a group key), and a table with
	// tombstones and rows appended after them.
	mustExec(t, db, "INSERT INTO w1 VALUES (2), (1)")
	mustExec(t, db, "INSERT INTO t VALUES (4, 5, 6, 2.5, 'y'), (7, 8, 9, 3.5, 'z')")
	mustExec(t, db, "DELETE FROM t WHERE a = 1")
	mustExec(t, db, "INSERT INTO t VALUES (1, 1, 1, 0.5, 'w')")
	for _, q := range []string{"SELECT * FROM w1 GROUP BY a", "SELECT a, b FROM t", "SELECT sum(b), count(*) FROM t", "SELECT count(*) FROM t"} {
		plan, err := conn.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(plan, "vectorized pipeline") {
			t.Fatalf("%s: expected the vectorized pipeline, got:\n%s", q, plan)
		}
		oracle, err := db.sdb.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameMultiset(collect(t)(conn.Query(bg, q)), oracle.Rows); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
}

// The new shapes route through the physical plan (visible in \plan).
func TestNewShapesRoute(t *testing.T) {
	db, _ := Open()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a INT, b INT, c INT, f FLOAT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 2, 3, 1.5)")
	mustExec(t, db, "CREATE TABLE u (a INT, w INT)")
	mustExec(t, db, "INSERT INTO u VALUES (1, 9)")
	mustExec(t, db, "CREATE TABLE z (a INT, y INT)")
	mustExec(t, db, "INSERT INTO z VALUES (1, 4)")
	conn := db.Conn()

	cases := []struct{ q, marker string }{
		{"SELECT a, b FROM t ORDER BY b DESC LIMIT 3", "top-n[col1 desc limit 3]"},
		{"SELECT a, f FROM t ORDER BY f", "sort-runs["},
		{"SELECT a FROM t ORDER BY b", "merge-runs"}, // unprojected sort key
		{"SELECT t.b, u.w FROM t JOIN u ON t.a = u.a WHERE b > 0", "hash-join["},
		{"SELECT * FROM t JOIN u ON t.a = u.a", "join-table[key"},
		{"SELECT a, b, sum(f), count(*) FROM t GROUP BY a, b", "group-by[col0,col1]"},
		{"SELECT a FROM t WHERE b IS NOT NULL AND f IS NULL", "is not null"},
		// PR 10 shapes: N-way joins, joins feeding aggregation/sort, >2
		// group keys, grouped ORDER BY, aggregates over expressions.
		{"SELECT t.b, u.w, z.y FROM t JOIN u ON t.a = u.a JOIN z ON u.a = z.a", "greedy orderer"},
		{"SELECT t.b, u.w, z.y FROM t JOIN u ON t.a = u.a JOIN z ON u.a = z.a", "join order (greedy"},
		{"SELECT sum(t.b) FROM t JOIN u ON t.a = u.a", "hash-join["},
		{"SELECT t.a, sum(u.w) FROM t JOIN u ON t.a = u.a GROUP BY t.a", "group-by["},
		{"SELECT t.b, u.w FROM t JOIN u ON t.a = u.a ORDER BY w", "canonical value ties"},
		{"SELECT a, b, c, count(*) FROM t GROUP BY a, b, c", "group-by[col0,col1,col2]"},
		{"SELECT a, sum(b) FROM t GROUP BY a ORDER BY a", "order-by[item 0]"},
		{"SELECT a, count(*) FROM t GROUP BY a ORDER BY a DESC LIMIT 2", "order-by[item 0 desc]"},
		{"SELECT sum(a + b) FROM t", "expr-project["},
		{"SELECT a, avg(b * 2) FROM t GROUP BY a", "expr-project["},
	}
	for _, tc := range cases {
		plan, err := conn.Plan(tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		if !strings.Contains(plan, "vectorized pipeline") || !strings.Contains(plan, tc.marker) {
			t.Fatalf("%s: expected physical routing with %q, got:\n%s", tc.q, tc.marker, plan)
		}
	}
}

// ORDER BY on the vector path returns EXACTLY the MAL interpreter's
// sequence — ties included (the row-id tiebreak reproduces the stable
// sort) — on nil-laden data across worker counts.
func TestOrderByVectorVsMALOracle(t *testing.T) {
	queries := []string{
		"SELECT k, v, f FROM g ORDER BY v",
		"SELECT k, v, f FROM g ORDER BY v DESC",
		"SELECT k, v FROM g ORDER BY k LIMIT 17",
		"SELECT k, v FROM g ORDER BY k DESC LIMIT 17",
		"SELECT v, f FROM g ORDER BY f",      // float key, NaN = NULL first
		"SELECT v, f FROM g ORDER BY f DESC", // ... and last descending
		"SELECT k FROM g ORDER BY v",         // unprojected sort key
		"SELECT k, v FROM g WHERE v > -200 ORDER BY v LIMIT 50",
		"SELECT k, v AS sortme FROM g ORDER BY sortme", // alias resolution
	}
	for _, workers := range []int{1, 2, 4, 8} {
		db, _ := openSized(128, 64, WithWorkers(workers))
		loadGrouped(t, db, "g", 2500, 23, int64(workers)*13)
		conn := db.Conn()
		for _, q := range queries {
			plan, err := conn.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan, "sort-runs[") && !strings.Contains(plan, "top-n[") {
				t.Fatalf("%s: expected sorted vector routing, got:\n%s", q, plan)
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

// Joins on the vector path produce the MAL join's rows (as a multiset —
// parallel probe order is nondeterministic) on nil-laden keys, with
// filters on both sides, across worker counts and build orientations.
func TestJoinVectorVsMALOracle(t *testing.T) {
	queries := []string{
		"SELECT v, w FROM jl JOIN jr ON jl.k = jr.k",
		"SELECT jl.k, v, w FROM jl JOIN jr ON jl.k = jr.k WHERE v > 0",
		"SELECT v, w FROM jl JOIN jr ON jl.k = jr.k WHERE v > -100 AND w < 200.0",
		"SELECT * FROM jl JOIN jr ON jl.k = jr.k",
		"SELECT w FROM jl JOIN jr ON k = jr.k WHERE k >= 5", // bare key name
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, sizes := range [][2]int{{400, 60}, {60, 400}} { // both build orientations
			db, _ := openSized(64, 32, WithWorkers(workers))
			loadJoinPair(t, db, sizes[0], sizes[1], int64(workers)+int64(sizes[0]))
			conn := db.Conn()
			for _, q := range queries {
				plan, err := conn.Plan(q)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(plan, "hash-join[") {
					t.Fatalf("%s: expected join vector routing, got:\n%s", q, plan)
				}
				got := collect(t)(conn.Query(bg, q))
				oracle, err := db.sdb.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameMultiset(got, oracle.Rows); err != nil {
					t.Fatalf("%s (workers=%d sizes=%v): %v", q, workers, sizes, err)
				}
			}
			db.Close()
		}
	}
}

// sameMultiset compares row sets ignoring order.
func sameMultiset(a, b [][]any) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d", len(a), len(b))
	}
	key := func(rows [][]any) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprint(r)
		}
		sort.Strings(out)
		return out
	}
	ka, kb := key(a), key(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return fmt.Errorf("row %d: %s vs %s", i, ka[i], kb[i])
		}
	}
	return nil
}

// Multi-column GROUP BY lowers onto the composite-key grouping core and
// matches the MAL subgroup oracle — NULLs in either key column included.
func TestGroupByPairVsMALOracle(t *testing.T) {
	queries := []string{
		"SELECT k, v, count(*) FROM g GROUP BY k, v",
		"SELECT k, v, sum(v), min(f), max(f) FROM g GROUP BY k, v",
		"SELECT k, count(*) FROM g GROUP BY k, v", // second key unprojected
		"SELECT v, k, avg(f) FROM g GROUP BY k, v",
		"SELECT k, v, sum(f) FROM g WHERE v > -300 GROUP BY k, v",
	}
	for _, workers := range []int{1, 2, 4, 8} {
		db, _ := openSized(128, 64, WithWorkers(workers))
		loadGrouped(t, db, "g", 2000, 11, 31+int64(workers))
		conn := db.Conn()
		for _, q := range queries {
			plan, err := conn.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan, "group-by[col") || !strings.Contains(plan, ",") {
				t.Fatalf("%s: expected pair-grouped routing, got:\n%s", q, plan)
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

// IS NULL / IS NOT NULL work end to end: the vector path compiles them
// to nil-sentinel selections and agrees with MAL's select ops, before
// and after a DELETE leaves tombstones among the nils.
func TestIsNullEndToEnd(t *testing.T) {
	db, _ := openSized(64, 32, WithWorkers(2))
	defer db.Close()
	loadGrouped(t, db, "g", 900, 13, 5)
	conn := db.Conn()

	queries := []string{
		"SELECT k, v FROM g WHERE v IS NULL",
		"SELECT k, v FROM g WHERE v IS NOT NULL AND v < 100",
		"SELECT count(*) FROM g WHERE f IS NULL",
		"SELECT k, f FROM g WHERE f IS NOT NULL AND k IS NULL",
		"SELECT count(v), sum(v) FROM g WHERE v IS NOT NULL",
	}
	run := func() {
		t.Helper()
		for _, q := range queries {
			plan, err := conn.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan, "vectorized pipeline") {
				t.Fatalf("%s: not vectorized:\n%s", q, plan)
			}
			got := collect(t)(conn.Query(bg, q))
			oracle, err := db.sdb.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameMultiset(got, oracle.Rows); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
	}
	run()

	// Nil tests drive DML through the compiler's candidate machinery too.
	res := mustExec(t, db, "DELETE FROM g WHERE v IS NULL AND f IS NULL")
	if res.RowsAffected == 0 {
		t.Fatal("expected some all-NULL rows to delete")
	}
	run()

	// And = NULL stays loudly rejected, pointing at IS NULL.
	if _, err := conn.Query(bg, "SELECT k FROM g WHERE v = NULL"); err == nil ||
		!strings.Contains(err.Error(), "IS [NOT] NULL") {
		t.Fatalf("= NULL should be rejected with an IS NULL hint, got %v", err)
	}
}

// Nil-bearing INT filter columns no longer disqualify the vector path:
// the planner swaps in nil-aware Sel primitives, and results match MAL
// (which nil-checks inside ThetaSelect) on every operator.
func TestNilAwareFiltersStayVectorized(t *testing.T) {
	db, _ := openSized(64, 32, WithWorkers(3))
	defer db.Close()
	loadGrouped(t, db, "g", 1200, 9, 17)
	conn := db.Conn()
	for _, q := range []string{
		"SELECT k, v FROM g WHERE v < 50",
		"SELECT k, v FROM g WHERE v <= 0",
		"SELECT k, v FROM g WHERE v <> 3",
		"SELECT k, v FROM g WHERE v > -10 AND v < 10",
		"SELECT k, v FROM g WHERE v = 7",
		"SELECT count(*) FROM g WHERE v >= 100",
	} {
		plan, err := conn.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "vectorized pipeline") {
			t.Fatalf("%s: nil-bearing filter column fell back:\n%s", q, plan)
		}
		got := collect(t)(conn.Query(bg, q))
		oracle, err := db.sdb.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameMultiset(got, oracle.Rows); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
}

// Prepared statements with placeholders keep working through the
// physical plan — including on the new shapes.
func TestPreparedPlaceholdersOnNewShapes(t *testing.T) {
	db, _ := openSized(32, 16, WithWorkers(2))
	defer db.Close()
	loadJoinPair(t, db, 300, 50, 3)
	conn := db.Conn()
	stmt, err := conn.Prepare("SELECT v, w FROM jl JOIN jr ON jl.k = jr.k WHERE v > ? AND w < ?")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	for _, bounds := range [][2]any{{0, 100.0}, {-50, 200.0}, {200, 50.0}} {
		got := collect(t)(stmt.Query(bg, bounds[0], bounds[1]))
		oracle, err := db.sdb.Query(fmt.Sprintf(
			"SELECT v, w FROM jl JOIN jr ON jl.k = jr.k WHERE v > %v AND w < %v", bounds[0], bounds[1]))
		if err != nil {
			t.Fatal(err)
		}
		if err := sameMultiset(got, oracle.Rows); err != nil {
			t.Fatalf("bounds %v: %v", bounds, err)
		}
	}

	sorted, err := conn.Prepare("SELECT v FROM jl WHERE v >= ? ORDER BY v LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	defer sorted.Close()
	for _, lo := range []any{-100, 0, 100} {
		got := collect(t)(sorted.Query(bg, lo))
		oracle, err := db.sdb.Query(fmt.Sprintf("SELECT v FROM jl WHERE v >= %v ORDER BY v LIMIT 5", lo))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(oracle.Rows) {
			t.Fatalf("lo=%v: %d rows vs %d", lo, len(got), len(oracle.Rows))
		}
		for i := range got {
			if fmt.Sprint(got[i]) != fmt.Sprint(oracle.Rows[i]) {
				t.Fatalf("lo=%v row %d: %v vs %v", lo, i, got[i], oracle.Rows[i])
			}
		}
	}
}

// Nil tests short-circuit on the NoNil property: over a provably
// nil-free column IS NOT NULL drops out of the predicate list and IS
// NULL proves the pipeline empty without scanning — with the aggregate
// shapes still emitting their SQL identity rows.
func TestIsNullShortCircuitOnNoNilColumns(t *testing.T) {
	db, _ := Open(WithWorkers(2))
	defer db.Close()
	mustExec(t, db, "CREATE TABLE c (k INT, v INT)")
	mustExec(t, db, "INSERT INTO c VALUES (1, 10), (2, 20), (2, 30)")
	conn := db.Conn()
	for _, tc := range []struct{ q, want string }{
		{"SELECT k FROM c WHERE v IS NOT NULL", "[[1] [2] [2]]"},
		{"SELECT k FROM c WHERE v IS NULL", "[]"},
		{"SELECT count(*), sum(v), min(v) FROM c WHERE v IS NULL", "[[0 <nil> <nil>]]"},
		{"SELECT k, count(*) FROM c WHERE v IS NULL GROUP BY k", "[]"},
		{"SELECT k FROM c WHERE v IS NULL ORDER BY k", "[]"},
	} {
		plan, err := conn.Plan(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "vectorized pipeline") {
			t.Fatalf("%s: expected vector routing:\n%s", tc.q, plan)
		}
		got := collect(t)(conn.Query(bg, tc.q))
		if fmt.Sprint(got) != tc.want {
			t.Fatalf("%s: got %v, want %s", tc.q, got, tc.want)
		}
		oracle, err := db.sdb.Query(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameMultiset(got, oracle.Rows); err != nil {
			t.Fatalf("%s vs oracle: %v", tc.q, err)
		}
	}
}

// LIMIT cuts a global aggregate's one row on both engines: the MAL
// program applies it as the vector plan does. The TEXT predicate is what
// routes the second statement of each pair to MAL in production.
func TestGlobalAggregateLimit(t *testing.T) {
	db, _ := Open()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a INT, s TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 'x'), (2, 'x'), (3, 'y')")
	conn := db.Conn()
	for _, tc := range []struct {
		q      string
		vector bool
		want   [][]any
	}{
		{"SELECT count(*), sum(a) FROM t LIMIT 0", true, nil},
		{"SELECT count(*), sum(a) FROM t WHERE s = 'x' LIMIT 0", false, nil},
		{"SELECT count(*), sum(a) FROM t WHERE s = ? LIMIT 0", false, nil},
		{"SELECT count(*), sum(a) FROM t LIMIT 1", true, [][]any{{int64(3), int64(6)}}},
		{"SELECT count(*), sum(a) FROM t WHERE s = 'x' LIMIT 1", false, [][]any{{int64(2), int64(3)}}},
		{"SELECT count(*), sum(a) FROM t WHERE s = 'x' LIMIT 5", false, [][]any{{int64(2), int64(3)}}},
	} {
		plan, err := conn.Plan(tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		if got := strings.HasPrefix(plan, "vectorized"); got != tc.vector {
			t.Fatalf("%s: vector-routed = %v, want %v:\n%s", tc.q, got, tc.vector, plan)
		}
		var args []any
		if strings.Contains(tc.q, "?") {
			args = []any{"x"}
		}
		if got := collect(t)(conn.Query(bg, tc.q, args...)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: rows %v, want %v", tc.q, got, tc.want)
		}
	}
}

// The statements that used to reach the interpreter and panic it are
// binder errors (aggregates over TEXT) or run (a lone FLOAT group key,
// which the vector engine routes to MAL).
func TestFormerInterpreterPanics(t *testing.T) {
	db, _ := Open()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a INT, f FLOAT, s TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 1.5, 'x'), (2, 1.5, 'y'), (3, NULL, 'x')")
	conn := db.Conn()
	for _, q := range []string{"SELECT sum(s) FROM t", "SELECT a, max(s) FROM t GROUP BY a", "SELECT avg(s) FROM t"} {
		if _, err := conn.Prepare(q); err == nil || !strings.Contains(err.Error(), "over a text column is not supported") {
			t.Errorf("%s: %v", q, err)
		}
	}
	got := collect(t)(conn.Query(bg, "SELECT f, count(*) AS n, count(s) FROM t GROUP BY f ORDER BY n"))
	if want := [][]any{{nil, int64(1), int64(1)}, {1.5, int64(2), int64(2)}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("GROUP BY f: %v, want %v", got, want)
	}
}
