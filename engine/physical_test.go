package engine

import (
	"fmt"
	"strings"
	"testing"
)

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

	// Vectorized: SELECT * under GROUP BY (the binder already made every
	// expanded item a group key), a table with tombstones and rows
	// appended after them, and an ORDER BY over a global aggregate, which
	// the binder leaves unresolved: a one-row result has nothing to order.
	mustExec(t, db, "INSERT INTO t VALUES (4, 5, 6, 2.5, 'y'), (7, 8, 9, 3.5, 'z')")
	mustExec(t, db, "DELETE FROM t WHERE a = 1")
	mustExec(t, db, "INSERT INTO t VALUES (1, 1, 1, 0.5, 'w')")
	const globalOrdered = "SELECT sum(a) AS total FROM t ORDER BY total"
	for _, q := range []string{"SELECT * FROM w1 GROUP BY a", "SELECT a, b FROM t", "SELECT sum(b), count(*) FROM t", "SELECT count(*) FROM t", globalOrdered} {
		plan, err := conn.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(plan, "vectorized pipeline") {
			t.Fatalf("%s: expected the vectorized pipeline, got:\n%s", q, plan)
		}
	}
	mal, err := db.sdb.Query(globalOrdered)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(collect(t)(db.Query(bg, globalOrdered))), fmt.Sprint(mal.Rows); got != want || want != "[[12]]" {
		t.Fatalf("%s: vector %s, MAL %s, want [[12]]", globalOrdered, got, want)
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
		{"SELECT a, sum(b) FROM t GROUP BY a ORDER BY a", "merge by key -> sort-runs[col0, canonical value ties]"},
		{"SELECT a, count(*) FROM t GROUP BY a ORDER BY a DESC LIMIT 2", "merge by key -> top-n[col0 desc limit 2, canonical value ties]"},
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

// Nil-bearing INT filter columns do not disqualify the vector path:
// the planner swaps in nil-aware Sel primitives.
func TestNilAwareFiltersStayVectorized(t *testing.T) {
	db, _ := Open()
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
		"SELECT count(*) FROM g WHERE f <> 2.5", // NaN-aware float primitives
		"SELECT k, f FROM g WHERE f = 2.5",
	} {
		plan, err := conn.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "vectorized pipeline") {
			t.Fatalf("%s: nil-bearing filter column fell back:\n%s", q, plan)
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
	if err := (Contract{Order: 1, Limit: -1}).Check(got, [][]any{{nil, int64(1), int64(1)}, {1.5, int64(2), int64(2)}}); err != nil {
		t.Fatalf("GROUP BY f: %v", err)
	}
	// = NULL stays loudly rejected, pointing at IS NULL.
	if _, err := conn.Query(bg, "SELECT a FROM t WHERE a = NULL"); err == nil ||
		!strings.Contains(err.Error(), "IS [NOT] NULL") {
		t.Fatalf("= NULL should be rejected with an IS NULL hint, got %v", err)
	}
}
