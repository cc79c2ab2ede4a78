package engine

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sqlfe"
)

var bg = context.Background()

// openSized is Open with the morsel and vector lengths pinned (0 keeps
// the derived morsel or the default vector), so that test tables of a
// few thousand rows still run as many morsels of small vectors.
func openSized(morsel, vector int, opts ...Option) (*DB, error) {
	db, err := Open(opts...)
	if err == nil {
		db.sizes.morsel, db.sizes.vector = morsel, vector
	}
	return db, err
}

func mustExec(t *testing.T, db *DB, sql string, args ...any) Result {
	t.Helper()
	res, err := db.Exec(bg, sql, args...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// collect returns a drainer turning (Rows, error) into [][]any via *any
// scanning, so call sites can wrap Query directly.
func collect(t *testing.T) func(*Rows, error) [][]any {
	t.Helper()
	return func(rows *Rows, err error) [][]any {
		return drainRows(t, rows, err)
	}
}

func drainRows(t *testing.T, rows *Rows, err error) [][]any {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	ncols := len(rows.Columns())
	var out [][]any
	for rows.Next() {
		row := make([]any, ncols)
		ptrs := make([]any, ncols)
		for i := range row {
			ptrs[i] = &row[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			t.Fatal(err)
		}
		out = append(out, row)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// loadInts bulk-loads n rows (i, i*2, float(i)/2) into table name.
func loadInts(t testing.TB, db *DB, name string, n int) {
	t.Helper()
	if _, err := db.Exec(bg, fmt.Sprintf("CREATE TABLE %s (x INT, y INT, f FLOAT)", name)); err != nil {
		t.Fatal(err)
	}
	ins := &sqlfe.Insert{Table: name}
	for i := 0; i < n; i++ {
		ins.Rows = append(ins.Rows, []sqlfe.Lit{
			{Kind: sqlfe.TInt, I: int64(i)},
			{Kind: sqlfe.TInt, I: int64(i) * 2},
			{Kind: sqlfe.TFloat, F: float64(i) / 2},
		})
	}
	if _, err := db.sdb.ExecStmt(ins); err != nil {
		t.Fatal(err)
	}
}

func TestBasicRoundTrip(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE people (name TEXT, age INT)")
	res := mustExec(t, db, "INSERT INTO people VALUES ('ann', 41), ('bob', 27), ('cyd', 41)")
	if res.RowsAffected != 3 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
	rows, err := db.Query(bg, "SELECT name FROM people WHERE age = 41 ORDER BY name")
	got := collect(t)(rows, err)
	want := [][]any{{"ann"}, {"cyd"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

func TestScanTypedDestinations(t *testing.T) {
	db, _ := Open()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (x INT, f FLOAT, s TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (7, 2.5, 'hi')")
	rows, err := db.Query(bg, "SELECT x, f, s FROM t")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatal("no row")
	}
	var x int64
	var f float64
	var s string
	if err := rows.Scan(&x, &f, &s); err != nil {
		t.Fatal(err)
	}
	if x != 7 || f != 2.5 || s != "hi" {
		t.Fatalf("got %d %g %q", x, f, s)
	}
	if rows.Next() {
		t.Fatal("extra row")
	}
}

func TestPreparedRebind(t *testing.T) {
	db, _ := Open()
	defer db.Close()
	loadInts(t, db, "t", 1000)
	conn := db.Conn()
	stmt, err := conn.Prepare("SELECT x FROM t WHERE x >= ? AND x < ?")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if stmt.NumParams() != 2 {
		t.Fatalf("NumParams = %d", stmt.NumParams())
	}
	for _, bounds := range [][2]int64{{0, 5}, {990, 1000}, {500, 500}, {-10, 2}} {
		got := collect(t)(stmt.Query(bg, bounds[0], bounds[1]))
		var want [][]any
		for i := bounds[0]; i < bounds[1]; i++ {
			if i >= 0 && i < 1000 {
				want = append(want, []any{i})
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("bounds %v: got %d rows, want %d", bounds, len(got), len(want))
		}
	}
}

func TestPreparedFloatAndTextParams(t *testing.T) {
	db, _ := Open()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE m (f FLOAT, s TEXT)")
	mustExec(t, db, "INSERT INTO m VALUES (1.5, 'a'), (2.5, 'b'), (3.5, 'a')")
	conn := db.Conn()
	got := collect(t)(conn.Query(bg, "SELECT f FROM m WHERE f > ?", 2))
	if !reflect.DeepEqual(got, [][]any{{2.5}, {3.5}}) {
		t.Fatalf("float param (int arg) = %v", got)
	}
	got = collect(t)(conn.Query(bg, "SELECT f FROM m WHERE s = ? ORDER BY f", "a"))
	if !reflect.DeepEqual(got, [][]any{{1.5}, {3.5}}) {
		t.Fatalf("text param = %v", got)
	}
}

func TestDMLPlaceholders(t *testing.T) {
	db, _ := Open()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (x INT, f FLOAT)")
	ins, err := db.Prepare("INSERT INTO t VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := ins.Exec(bg, i, float64(i)*1.5); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ins.Exec(bg, 99, nil); err != nil { // NULL float
		t.Fatal(err)
	}
	got := collect(t)(db.Query(bg, "SELECT count(*), count(f) FROM t"))
	if !reflect.DeepEqual(got, [][]any{{int64(6), int64(5)}}) {
		t.Fatalf("counts = %v", got)
	}
	if _, err := db.Exec(bg, "UPDATE t SET f = ? WHERE x = ?", 9.75, 2); err != nil {
		t.Fatal(err)
	}
	got = collect(t)(db.Query(bg, "SELECT f FROM t WHERE x = 2"))
	if !reflect.DeepEqual(got, [][]any{{9.75}}) {
		t.Fatalf("updated = %v", got)
	}
	if _, err := db.Exec(bg, "DELETE FROM t WHERE x >= ?", 3); err != nil {
		t.Fatal(err)
	}
	got = collect(t)(db.Query(bg, "SELECT count(*) FROM t"))
	if !reflect.DeepEqual(got, [][]any{{int64(3)}}) {
		t.Fatalf("after delete = %v", got)
	}
}

func TestVectorPathAndFallbackAgree(t *testing.T) {
	db, _ := openSized(64, 32, WithWorkers(3))
	defer db.Close()
	loadInts(t, db, "t", 1000)
	conn := db.Conn()

	// This shape lowers onto the vectorized pipeline.
	if plan, err := conn.Plan("SELECT x, f FROM t WHERE x >= 100 AND x < 200"); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(plan, "vectorized pipeline") {
		t.Fatalf("expected vector plan, got:\n%s", plan)
	}
	vec := collect(t)(conn.Query(bg, "SELECT x, f FROM t WHERE x >= 100 AND x < 200"))

	// A deleted row is a tombstone the vector scan filters: the query
	// stays vectorized and agrees with MAL, minus the deleted row.
	mustExec(t, db, "DELETE FROM t WHERE x = 150")
	if plan, err := conn.Plan("SELECT x, f FROM t WHERE x >= 100 AND x < 200"); err != nil {
		t.Fatal(err)
	} else if !strings.HasPrefix(plan, "vectorized pipeline") {
		t.Fatalf("expected vector plan after DELETE, got:\n%s", plan)
	}
	after := collect(t)(conn.Query(bg, "SELECT x, f FROM t WHERE x >= 100 AND x < 200"))
	oracle, err := db.sdb.Query("SELECT x, f FROM t WHERE x >= 100 AND x < 200")
	if err != nil {
		t.Fatal(err)
	}
	mal := oracle.Rows
	if len(vec) != 100 || len(after) != 99 {
		t.Fatalf("vec %d rows, after delete %d rows", len(vec), len(after))
	}
	if err := sameMultiset(after, mal); err != nil {
		t.Fatal(err)
	}
	// Un-ORDERed SELECT: a multiset (doc.go § Result contract); the
	// parallel scan's row order is the workers' business.
	var kept [][]any
	for _, r := range vec {
		if r[0].(int64) != 150 {
			kept = append(kept, r)
		}
	}
	if err := sameMultiset(kept, mal); err != nil {
		t.Fatal(err)
	}
}

func TestVectorAggregates(t *testing.T) {
	db, _ := openSized(128, 0, WithWorkers(4))
	defer db.Close()
	loadInts(t, db, "t", 10000)
	conn := db.Conn()
	got := collect(t)(conn.Query(bg, "SELECT count(*), sum(x), avg(x), sum(f) FROM t WHERE x < ?", 100))
	want := [][]any{{int64(100), int64(99 * 100 / 2), 49.5, float64(99*100/2) / 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("aggs = %v, want %v", got, want)
	}
	// Zero qualifying rows: count 0, sum/avg NULL.
	got = collect(t)(conn.Query(bg, "SELECT count(*), sum(x), avg(f) FROM t WHERE x < ?", -1))
	want = [][]any{{int64(0), nil, nil}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("empty aggs = %v, want %v", got, want)
	}
}

func TestNullsOnBothPaths(t *testing.T) {
	db, _ := Open()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE n (x INT, f FLOAT)")
	mustExec(t, db, "INSERT INTO n VALUES (1, 1.0), (NULL, NULL), (3, 3.0)")
	// Projections stream nils as NULL (vector path allows nil
	// projection columns).
	got := collect(t)(db.Query(bg, "SELECT x, f FROM n"))
	want := [][]any{{int64(1), 1.0}, {nil, nil}, {int64(3), 3.0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("projection = %v", got)
	}
	// Filters over nil-bearing INT columns and aggregates over any
	// nil-bearing column run vectorized, on nil-aware primitives, and
	// skip NULLs.
	const aggs = "SELECT count(x), sum(f) FROM n WHERE x >= 0"
	if plan, err := db.conn().Plan(aggs); err != nil || !strings.HasPrefix(plan, "vectorized pipeline") {
		t.Fatalf("plan = %q (err %v), want the vectorized pipeline", plan, err)
	}
	got = collect(t)(db.Query(bg, aggs))
	if !reflect.DeepEqual(got, [][]any{{int64(2), 4.0}}) {
		t.Fatalf("nil-aware aggs = %v", got)
	}
	// Scanning NULL into a typed destination errors; *any accepts.
	rows, err := db.Query(bg, "SELECT x FROM n")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	rows.Next()
	rows.Next() // the NULL row
	var x int64
	if err := rows.Scan(&x); err == nil {
		t.Fatal("scanning NULL into *int64 should error")
	}
	var a any
	if err := rows.Scan(&a); err != nil || a != nil {
		t.Fatalf("scan into *any: %v %v", a, err)
	}
}

// Float filters over NULL-bearing columns STAY on the vectorized path
// (the Sel*Float primitives are NaN-aware, unlike the int ones), so
// their three-valued-logic parity with MAL needs explicit coverage —
// especially <> and =, where a naive IEEE compare would keep NaN.
func TestFloatPredsOverNullsOnVectorPath(t *testing.T) {
	db, _ := Open()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE fp (x INT, f FLOAT)")
	mustExec(t, db, "INSERT INTO fp VALUES (1, 1.5), (2, NULL), (3, 2.5), (4, NULL)")
	conn := db.Conn()
	for _, tc := range []struct {
		q    string
		arg  float64
		want int64
	}{
		{"SELECT count(*) FROM fp WHERE f <> ?", 2.5, 1}, // NULLs excluded from <>
		{"SELECT count(*) FROM fp WHERE f = ?", 2.5, 1},  // NaN never equal
		{"SELECT count(*) FROM fp WHERE f < ?", 2.5, 1},  // 1.5 only
		{"SELECT count(*) FROM fp WHERE f > ?", 2.5, 0},  // nothing above 2.5
		{"SELECT count(*) FROM fp WHERE f >= ?", 1.5, 2}, // both non-NULLs
		{"SELECT count(*) FROM fp WHERE f <= ?", 2.5, 2}, // 1.5 and 2.5
	} {
		if plan, err := conn.Plan(tc.q); err != nil {
			t.Fatal(err)
		} else if !strings.Contains(plan, "vectorized pipeline") {
			t.Fatalf("%s: expected the vectorized path, got:\n%s", tc.q, plan)
		}
		got := collect(t)(conn.Query(bg, tc.q, tc.arg))
		if !reflect.DeepEqual(got, [][]any{{tc.want}}) {
			t.Errorf("%s (arg %v) = %v, want %d", tc.q, tc.arg, got, tc.want)
		}
		// Parity oracle: the same predicate with the literal inlined,
		// through the internal one-shot layer (ThetaSelectFloat).
		oracle, err := db.sdb.Query(strings.Replace(tc.q, "?", fmt.Sprint(tc.arg), 1))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(oracle.Rows, [][]any{{tc.want}}) {
			t.Errorf("MAL oracle for %s = %v, want %d", tc.q, oracle.Rows, tc.want)
		}
	}
}

func TestLimitStreams(t *testing.T) {
	db, _ := openSized(64, 0)
	defer db.Close()
	loadInts(t, db, "t", 5000)
	got := collect(t)(db.Query(bg, "SELECT x FROM t LIMIT 7"))
	if len(got) != 7 {
		t.Fatalf("limit = %d rows", len(got))
	}
}

func TestFreezeSnapshotIsolation(t *testing.T) {
	db, _ := Open()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (x INT, y INT, f FLOAT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 1, 1.0), (2, 2, 2.0)")
	frozen := db.Conn()
	frozen.Freeze()
	mustExec(t, db, "DELETE FROM t WHERE x = 1")
	live := collect(t)(db.Query(bg, "SELECT count(*) FROM t"))
	old := collect(t)(frozen.Query(bg, "SELECT count(*) FROM t"))
	if !reflect.DeepEqual(live, [][]any{{int64(1)}}) || !reflect.DeepEqual(old, [][]any{{int64(2)}}) {
		t.Fatalf("live = %v, frozen = %v", live, old)
	}
	frozen.Thaw()
	now := collect(t)(frozen.Query(bg, "SELECT count(*) FROM t"))
	if !reflect.DeepEqual(now, [][]any{{int64(1)}}) {
		t.Fatalf("thawed = %v", now)
	}
}

func TestSchemaChangeReplans(t *testing.T) {
	db, _ := Open()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (x INT, y INT, f FLOAT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 1, 1.0)")
	stmt, err := db.Prepare("SELECT x FROM t WHERE x >= ?")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if got := collect(t)(stmt.Query(bg, 0)); len(got) != 1 {
		t.Fatalf("before: %v", got)
	}
	mustExec(t, db, "DROP TABLE t")
	mustExec(t, db, "CREATE TABLE t (x INT)")
	mustExec(t, db, "INSERT INTO t VALUES (10), (20)")
	if got := collect(t)(stmt.Query(bg, 0)); len(got) != 2 {
		t.Fatalf("after replan: %v", got)
	}
	// Dropping the table entirely surfaces a planning error.
	mustExec(t, db, "DROP TABLE t")
	if _, err := stmt.Query(bg, 0); err == nil {
		t.Fatal("query against dropped table should error")
	}
}

func TestPersistence(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (x INT, f FLOAT, s TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 0.5, 'a'), (2, NULL, 'b'), (NULL, 2.5, 'c')")
	mustExec(t, db, "DELETE FROM t WHERE s = 'b'")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := collect(t)(re.Query(bg, "SELECT x, f, s FROM t ORDER BY s"))
	want := [][]any{{int64(1), 0.5, "a"}, {nil, 2.5, "c"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded = %v, want %v", got, want)
	}
}

// A directory holding the pre-WAL flat layout (catalog.json, no
// CURRENT) is refused — not opened as empty, which would overwrite it
// at the Close-time checkpoint. An empty directory is a fresh database.
func TestOpenRejectsFlatLayoutDir(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WithDir(dir))
	if err != nil {
		t.Fatalf("empty directory: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	dir = t.TempDir()
	flat := []byte(`{"tables": [{"name": "t", "cols": ["a"], "types": ["INT"], "rows": 1}]}`)
	catalog := filepath.Join(dir, "catalog.json")
	if err := os.WriteFile(catalog, flat, 0o644); err != nil {
		t.Fatal(err)
	}
	if db, err := Open(WithDir(dir)); err == nil {
		db.Close()
		t.Fatal("Open accepted a flat-layout directory")
	}
	if got, err := os.ReadFile(catalog); err != nil || !bytes.Equal(got, flat) {
		t.Fatalf("catalog.json after refused Open = %q, %v", got, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("refused Open left %d entries in the directory, want 1", len(entries))
	}
}

func TestErrors(t *testing.T) {
	db, _ := Open()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (x INT, y INT, f FLOAT)")
	conn := db.Conn()

	if _, err := conn.Prepare("SELECT x + ? FROM t"); err == nil {
		t.Fatal("placeholder in select list should fail at Prepare")
	}
	stmt, err := conn.Prepare("SELECT x FROM t WHERE x = ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(bg); err == nil {
		t.Fatal("missing argument should error")
	}
	if _, err := stmt.Query(bg, 1, 2); err == nil {
		t.Fatal("extra argument should error")
	}
	if _, err := stmt.Query(bg, nil); err == nil {
		t.Fatal("NULL comparison argument should error")
	}
	if _, err := stmt.Query(bg, "text"); err == nil {
		t.Fatal("type-mismatched argument should error")
	}
	if _, err := stmt.Exec(bg, 1); err != nil {
		t.Fatalf("Exec of a SELECT drains it: %v", err)
	}
	if _, err := conn.Query(bg, "INSERT INTO t VALUES (1, 1, 1.0)"); err == nil {
		t.Fatal("Query of DML should error")
	}
	rows, err := conn.Query(bg, "SELECT x FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if err := rows.Scan(new(any)); err == nil {
		t.Fatal("Scan before Next should error")
	}
	rows.Close()
	if rows.Next() {
		t.Fatal("Next after Close should be false")
	}
	db.Close()
	if _, err := conn.Query(bg, "SELECT x FROM t"); err == nil {
		t.Fatal("query on closed DB should error")
	}
}

func TestFloatJoinRejectedNotPanic(t *testing.T) {
	db, _ := Open()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE a (k FLOAT, v INT)")
	mustExec(t, db, "CREATE TABLE b (k FLOAT, w INT)")
	mustExec(t, db, "INSERT INTO a VALUES (1.5, 1)")
	mustExec(t, db, "INSERT INTO b VALUES (1.5, 2)")
	// The MAL join op is int/text only; a float key must fail at
	// compile time, not panic the interpreter's bulk path.
	if _, err := db.Query(bg, "SELECT v, w FROM a JOIN b ON k = k"); err == nil {
		t.Fatal("JOIN on FLOAT keys should be rejected")
	}
}

func TestFrozenConnDoesNotPoisonPlanCache(t *testing.T) {
	db, _ := Open()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a INT, b INT)")
	mustExec(t, db, "INSERT INTO t VALUES (7, 8)")
	conn := db.Conn()
	conn.Freeze()
	stmt, err := conn.Prepare("SELECT b FROM t")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	// DDL lands while the session is frozen: drop and re-create with
	// the columns REORDERED. The frozen query must still see the old
	// layout; after Thaw the plan must be recompiled for the new one —
	// stamping the frozen-snapshot plan with the live schema version
	// would silently serve column a's data for SELECT b.
	mustExec(t, db, "DROP TABLE t")
	mustExec(t, db, "CREATE TABLE t (b INT, a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (999, 1)")
	if got := collect(t)(stmt.Query(bg)); !reflect.DeepEqual(got, [][]any{{int64(8)}}) {
		t.Fatalf("frozen query = %v, want [[8]]", got)
	}
	conn.Thaw()
	if got := collect(t)(stmt.Query(bg)); !reflect.DeepEqual(got, [][]any{{int64(999)}}) {
		t.Fatalf("thawed query = %v, want [[999]]", got)
	}
}

// The recycler lives on the MAL path and keys intermediates by the bound
// arguments: re-binding an argument hits what its first execution
// recycled, and different arguments never alias.
func TestRecyclerWithPreparedParams(t *testing.T) {
	db, _ := Open(WithRecycler(8 << 20))
	defer db.Close()
	mustExec(t, db, "CREATE TABLE r (s TEXT, y INT)")
	for i := 0; i < 200; i++ {
		mustExec(t, db, "INSERT INTO r VALUES (?, ?)", fmt.Sprintf("k%d", i%10), i)
	}
	const q = "SELECT sum(y) FROM r WHERE s = ?" // a TEXT predicate routes to MAL
	if plan, err := db.conn().Plan(q); err != nil || !strings.HasPrefix(plan, "MAL program") {
		t.Fatalf("plan = %q (err %v), want a MAL program", plan, err)
	}
	stmt, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	a := collect(t)(stmt.Query(bg, "k1"))
	b := collect(t)(stmt.Query(bg, "k2"))
	hits := db.sdb.Recycle.Stats().Hits
	a2 := collect(t)(stmt.Query(bg, "k1"))
	if got := db.sdb.Recycle.Stats().Hits; got <= hits {
		t.Fatalf("re-binding k1 hit no recycled intermediate (hits %d -> %d)", hits, got)
	}
	// Same plan, different bindings: results must not alias.
	if reflect.DeepEqual(a, b) {
		t.Fatalf("different bindings gave identical sums: %v", a)
	}
	if !reflect.DeepEqual(a, a2) {
		t.Fatalf("re-binding the same value changed the result: %v vs %v", a, a2)
	}
}
