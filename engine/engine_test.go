package engine

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
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

// OpenSized is openSized for the differential driver, which lives in
// package engine_test (diff_test.go) so that it can import the server.
var OpenSized = openSized

// Contract is what doc.go § Result contract lets a test rely on about
// the rows of one SELECT, and Check is the one comparison every engine
// test makes: without ORDER BY the rows are a multiset; with it, the
// sequence of sort-key values is fixed; a LIMIT keeps that many rows,
// each of them a row of the unlimited result.
type Contract struct {
	Order int // the ORDER BY item, -1 for none
	Desc  bool
	Limit int // -1 for none
}

// Unordered is the contract of a SELECT without ORDER BY or LIMIT.
var Unordered = Contract{Order: -1, Limit: -1}

// Check reports how got breaks c, where want is every row of the
// statement without its LIMIT, in any order.
func (c Contract) Check(got, want [][]any) error {
	n := len(want)
	if c.Limit >= 0 && c.Limit < n {
		n = c.Limit
	}
	if len(got) != n {
		return fmt.Errorf("%d rows, want %d", len(got), n)
	}
	pool := map[string]int{}
	for _, r := range want {
		pool[RowKey(r)]++
	}
	for i, r := range got {
		k := RowKey(r)
		if pool[k] == 0 {
			return fmt.Errorf("row %d %v is not a row of the result", i, r)
		}
		pool[k]--
	}
	if c.Order < 0 {
		return nil
	}
	keys := make([]any, len(want))
	for i, r := range want {
		keys[i] = r[c.Order]
	}
	slices.SortFunc(keys, Compare)
	if c.Desc {
		slices.Reverse(keys)
	}
	for i, r := range got {
		if cellKey(r[c.Order]) != cellKey(keys[i]) {
			return fmt.Errorf("row %d %v: sort key %v, want %v", i, r, r[c.Order], keys[i])
		}
	}
	return nil
}

// cellKey renders a result cell for comparison: typed, so an INT never
// equals a FLOAT, with -0 as 0 and floats to 12 significant digits.
func cellKey(v any) string { return string(appendCell(nil, v)) }

func appendCell(b []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, "NULL"...)
	case int64:
		return strconv.AppendInt(append(b, 'i'), x, 10)
	case float64:
		return strconv.AppendFloat(append(b, 'f'), x+0, 'g', 12, 64)
	case string:
		return strconv.AppendQuote(b, x)
	}
	return fmt.Appendf(b, "%T %v", v, v)
}

// RowKey renders a row as its cells' keys: two rows are the same row of
// a result when their keys are equal.
func RowKey(r []any) string {
	var b []byte
	for _, v := range r {
		b = append(appendCell(b, v), ',')
	}
	return string(b)
}

// Compare orders cells: NULL first, then by value, an INT against a
// FLOAT as numbers.
func Compare(a, b any) int {
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil:
		return -1
	case b == nil:
		return 1
	}
	if x, ok := a.(string); ok {
		return strings.Compare(x, b.(string))
	}
	x, xi := a.(int64)
	y, yi := b.(int64)
	if xi && yi {
		return cmp.Compare(x, y)
	}
	return cmp.Compare(Num(a), Num(b))
}

// Num is an INT or FLOAT cell as a float64.
func Num(v any) float64 {
	if n, ok := v.(int64); ok {
		return float64(n)
	}
	return v.(float64)
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
		out, err := Drain(rows, err)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
}

// RowSource is what the rows of an engine query and of a client query
// have in common.
type RowSource interface {
	Columns() []string
	Next() bool
	Scan(dest ...any) error
	Err() error
	Close() error
}

// Drain reads every row through *any destinations.
func Drain[R RowSource](rows R, err error) ([][]any, error) {
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out [][]any
	for rows.Next() {
		row := make([]any, len(rows.Columns()))
		ptrs := make([]any, len(row))
		for i := range row {
			ptrs[i] = &row[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, rows.Err()
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
	// A typed destination refuses NULL; *any takes it.
	mustExec(t, db, "INSERT INTO t VALUES (NULL, NULL, NULL)")
	rows, err = db.Query(bg, "SELECT x FROM t WHERE x IS NULL")
	if err != nil || !rows.Next() {
		t.Fatalf("no NULL row: %v", err)
	}
	defer rows.Close()
	if err := rows.Scan(&x); err == nil {
		t.Fatal("scanning NULL into *int64 should error")
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
