package sqlfe

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/recycler"
)

func mustExec(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	r, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return r
}

func peopleDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	mustExec(t, db, "CREATE TABLE people (name TEXT, age INT)")
	mustExec(t, db, "INSERT INTO people VALUES ('John Wayne', 1907), ('Roger Moore', 1927), ('Bob Fosse', 1927), ('Will Smith', 1968)")
	return db
}

func TestFigure1EndToEnd(t *testing.T) {
	db := peopleDB(t)
	r := mustExec(t, db, "SELECT name FROM people WHERE age = 1927")
	want := [][]any{{"Roger Moore"}, {"Bob Fosse"}}
	if !reflect.DeepEqual(r.Rows, want) {
		t.Fatalf("rows = %v", r.Rows)
	}
	if r.Columns[0] != "name" {
		t.Fatalf("cols = %v", r.Columns)
	}
}

func TestSelectStar(t *testing.T) {
	db := peopleDB(t)
	r := mustExec(t, db, "SELECT * FROM people WHERE age > 1950")
	if len(r.Rows) != 1 || r.Rows[0][0] != "Will Smith" || r.Rows[0][1] != int64(1968) {
		t.Fatalf("rows = %v", r.Rows)
	}
	if !reflect.DeepEqual(r.Columns, []string{"name", "age"}) {
		t.Fatalf("cols = %v", r.Columns)
	}
}

func TestWhereConjunction(t *testing.T) {
	db := peopleDB(t)
	r := mustExec(t, db, "SELECT name FROM people WHERE age >= 1907 AND age < 1968 AND name <> 'Bob Fosse'")
	want := [][]any{{"John Wayne"}, {"Roger Moore"}}
	if !reflect.DeepEqual(r.Rows, want) {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestArithmeticProjection(t *testing.T) {
	db := peopleDB(t)
	r := mustExec(t, db, "SELECT age + 0 AS a, age * 2 AS b FROM people WHERE age = 1907")
	_ = r
	if r.Rows[0][1] != int64(3814) {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestColArithmetic(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE m (a INT, b INT, f FLOAT)")
	mustExec(t, db, "INSERT INTO m VALUES (3, 4, 0.5)")
	r := mustExec(t, db, "SELECT a * b, a + b, a - b, a * f FROM m")
	row := r.Rows[0]
	if row[0] != int64(12) || row[1] != int64(7) || row[2] != int64(-1) || row[3] != 1.5 {
		t.Fatalf("row = %v", row)
	}
}

func TestGlobalAggregates(t *testing.T) {
	db := peopleDB(t)
	r := mustExec(t, db, "SELECT count(*), sum(age), min(age), max(age), avg(age) FROM people")
	row := r.Rows[0]
	if row[0] != int64(4) || row[1] != int64(7729) || row[2] != int64(1907) || row[3] != int64(1968) {
		t.Fatalf("row = %v", row)
	}
	if row[4] != 7729.0/4 {
		t.Fatalf("avg = %v", row[4])
	}
}

func TestGroupBy(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE s (dept INT, pay INT)")
	mustExec(t, db, "INSERT INTO s VALUES (1, 100), (2, 200), (1, 300), (2, 50)")
	r := mustExec(t, db, "SELECT dept, sum(pay) AS total, count(*) AS n FROM s GROUP BY dept ORDER BY dept")
	want := [][]any{
		{int64(1), int64(400), int64(2)},
		{int64(2), int64(250), int64(2)},
	}
	if !reflect.DeepEqual(r.Rows, want) {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestGroupByAvgAndMinMax(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE s (k INT, v INT)")
	mustExec(t, db, "INSERT INTO s VALUES (1, 10), (1, 30), (2, 7)")
	r := mustExec(t, db, "SELECT k, avg(v) AS a, min(v) AS lo, max(v) AS hi FROM s GROUP BY k ORDER BY k")
	if r.Rows[0][1] != 20.0 || r.Rows[0][2] != int64(10) || r.Rows[0][3] != int64(30) {
		t.Fatalf("rows = %v", r.Rows)
	}
	if r.Rows[1][1] != 7.0 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestOrderByDescLimit(t *testing.T) {
	db := peopleDB(t)
	r := mustExec(t, db, "SELECT name, age FROM people ORDER BY age DESC LIMIT 2")
	if len(r.Rows) != 2 || r.Rows[0][0] != "Will Smith" {
		t.Fatalf("rows = %v", r.Rows)
	}
	if r.Rows[1][1] != int64(1927) {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestOrderByUnprojectedColumn(t *testing.T) {
	db := peopleDB(t)
	r := mustExec(t, db, "SELECT name FROM people ORDER BY age")
	if r.Rows[0][0] != "John Wayne" {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestLimitWithoutOrder(t *testing.T) {
	db := peopleDB(t)
	r := mustExec(t, db, "SELECT name FROM people LIMIT 2")
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestJoin(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE orders (oid INT, cust INT, amount INT)")
	mustExec(t, db, "CREATE TABLE customers (cid INT, cname TEXT)")
	mustExec(t, db, "INSERT INTO orders VALUES (1, 10, 99), (2, 20, 45), (3, 10, 12)")
	mustExec(t, db, "INSERT INTO customers VALUES (10, 'ann'), (20, 'bob')")
	r := mustExec(t, db, "SELECT cname, amount FROM orders JOIN customers ON cust = cid ORDER BY amount")
	want := [][]any{{"ann", int64(12)}, {"bob", int64(45)}, {"ann", int64(99)}}
	if !reflect.DeepEqual(r.Rows, want) {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestJoinWithWhereAndAgg(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE o (cust INT, amount INT)")
	mustExec(t, db, "CREATE TABLE c (cid INT, region INT)")
	mustExec(t, db, "INSERT INTO o VALUES (1, 10), (1, 20), (2, 40), (3, 80)")
	mustExec(t, db, "INSERT INTO c VALUES (1, 7), (2, 7), (3, 8)")
	r := mustExec(t, db, "SELECT sum(amount) FROM o JOIN c ON cust = cid WHERE region = 7")
	if r.Rows[0][0] != int64(70) {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestGroupByOverJoin(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE o (cust INT, amount INT)")
	mustExec(t, db, "CREATE TABLE c (cid INT, region INT)")
	mustExec(t, db, "INSERT INTO o VALUES (1, 10), (1, 20), (2, 40), (3, 80)")
	mustExec(t, db, "INSERT INTO c VALUES (1, 7), (2, 7), (3, 8)")
	r := mustExec(t, db, "SELECT region, sum(amount) AS total FROM o JOIN c ON cust = cid GROUP BY region ORDER BY region")
	want := [][]any{{int64(7), int64(70)}, {int64(8), int64(80)}}
	if !reflect.DeepEqual(r.Rows, want) {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestDeleteAndSelect(t *testing.T) {
	db := peopleDB(t)
	r := mustExec(t, db, "DELETE FROM people WHERE age = 1927")
	if r.Affected != 2 {
		t.Fatalf("affected = %d", r.Affected)
	}
	q := mustExec(t, db, "SELECT count(*) FROM people")
	if q.Rows[0][0] != int64(2) {
		t.Fatalf("count = %v", q.Rows)
	}
}

func TestInsertAfterDeleteKeepsPositionsStable(t *testing.T) {
	db := peopleDB(t)
	mustExec(t, db, "DELETE FROM people WHERE name = 'John Wayne'")
	mustExec(t, db, "INSERT INTO people VALUES ('New Person', 2000)")
	r := mustExec(t, db, "SELECT name FROM people WHERE age >= 1968")
	want := [][]any{{"Will Smith"}, {"New Person"}}
	if !reflect.DeepEqual(r.Rows, want) {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestUpdate(t *testing.T) {
	db := peopleDB(t)
	r := mustExec(t, db, "UPDATE people SET age = 1930 WHERE name = 'Bob Fosse'")
	if r.Affected != 1 {
		t.Fatalf("affected = %d", r.Affected)
	}
	q := mustExec(t, db, "SELECT age FROM people WHERE name = 'Bob Fosse'")
	if q.Rows[0][0] != int64(1930) {
		t.Fatalf("rows = %v", q.Rows)
	}
	// Other columns preserved.
	q2 := mustExec(t, db, "SELECT count(*) FROM people")
	if q2.Rows[0][0] != int64(4) {
		t.Fatalf("count = %v", q2.Rows)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	db := peopleDB(t)
	snap := db.Snapshot()
	mustExec(t, db, "DELETE FROM people WHERE age = 1927")
	mustExec(t, db, "INSERT INTO people VALUES ('Late Arrival', 1999)")
	// The snapshot still sees the original 4 rows.
	r, err := db.QuerySnapshot(snap, "SELECT count(*) FROM people")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0] != int64(4) {
		t.Fatalf("snapshot count = %v", r.Rows)
	}
	// The live DB sees the changes.
	live := mustExec(t, db, "SELECT count(*) FROM people")
	if live.Rows[0][0] != int64(3) {
		t.Fatalf("live count = %v", live.Rows)
	}
}

// TestSnapshotCopiesNoRows: a snapshot shares each column through a
// Slice header and the tombstone list by reference, so taking one costs
// the same bytes and allocations over an empty table as over 100 000
// appended rows with tombstones among them.
func TestSnapshotCopiesNoRows(t *testing.T) {
	cost := func(db *DB) (allocs, bytes uint64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		db.Snapshot() // warm up
		const n = 1000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			db.Snapshot()
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / n, (after.TotalAlloc - before.TotalAlloc) / n
	}
	const schema = "CREATE TABLE t (a INT, f FLOAT, s TEXT)"
	empty, full := NewDB(), NewDB()
	mustExec(t, empty, schema)
	mustExec(t, full, schema)
	ins := &Insert{Table: "t"}
	for i := 0; i < 100000; i++ {
		ins.Rows = append(ins.Rows, []Lit{{Kind: TInt, I: int64(i)}, {Kind: TFloat, F: float64(i)}, {Kind: TText, S: "x"}})
	}
	if _, err := full.ExecStmt(ins); err != nil {
		t.Fatal(err)
	}
	mustExec(t, full, "DELETE FROM t WHERE a < 1000")
	a0, b0 := cost(empty)
	a1, b1 := cost(full)
	if a0 != a1 || b0 != b1 {
		t.Fatalf("snapshot of 0 rows: %d allocs, %d B; of 100000 rows: %d allocs, %d B", a0, b0, a1, b1)
	}
}

func TestFloatColumns(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (price FLOAT)")
	mustExec(t, db, "INSERT INTO t VALUES (1.5), (2.5), (4.0)")
	r := mustExec(t, db, "SELECT sum(price) FROM t WHERE price >= 2.0")
	if r.Rows[0][0] != 6.5 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestDropTable(t *testing.T) {
	db := peopleDB(t)
	mustExec(t, db, "DROP TABLE people")
	if _, err := db.Exec("SELECT * FROM people"); err == nil {
		t.Fatal("expected unknown-table error")
	}
}

func TestErrors(t *testing.T) {
	db := peopleDB(t)
	cases := []string{
		"SELECT nocol FROM people",
		"SELECT * FROM nope",
		"INSERT INTO people VALUES (3, 'wrongorder')",
		"INSERT INTO people VALUES ('short')",
		"CREATE TABLE people (x INT)",
		"SELECT name, sum(age) FROM people", // mixed without GROUP BY
		"SELEKT * FROM people",
		"SELECT * FROM people WHERE age ~ 3",
		"CREATE TABLE dup (a INT, a INT)",
	}
	for _, sql := range cases {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("%s: expected error", sql)
		}
	}
}

func TestParserLiterals(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (a INT, s TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (-5, 'it''s')")
	r := mustExec(t, db, "SELECT a, s FROM t")
	if r.Rows[0][0] != int64(-5) || r.Rows[0][1] != "it's" {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestResultString(t *testing.T) {
	db := peopleDB(t)
	r := mustExec(t, db, "SELECT name, age FROM people LIMIT 1")
	s := r.String()
	if !strings.Contains(s, "John Wayne") || !strings.Contains(s, "age") {
		t.Fatalf("rendered:\n%s", s)
	}
}

func TestRecyclerSpeedsRepeatedQueries(t *testing.T) {
	db := NewDB()
	db.Recycle = recycler.New(16<<20, recycler.PolicyBenefit)
	mustExec(t, db, "CREATE TABLE t (v INT)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES (0)")
	for i := 1; i < 2000; i++ {
		sb.WriteString(", (")
		sb.WriteString(string(rune('0' + i%10)))
		sb.WriteString(")")
	}
	mustExec(t, db, sb.String())
	q := "SELECT sum(v) FROM t WHERE v >= 3 AND v < 7"
	r1 := mustExec(t, db, q)
	r2 := mustExec(t, db, q)
	if !reflect.DeepEqual(r1.Rows, r2.Rows) {
		t.Fatal("recycled result differs")
	}
	if db.Recycle.Stats().Hits == 0 {
		t.Fatal("expected recycler hits on repeated query")
	}
	// Update invalidates: result must change accordingly.
	mustExec(t, db, "INSERT INTO t VALUES (5)")
	r3 := mustExec(t, db, q)
	want := r1.Rows[0][0].(int64) + 5
	if r3.Rows[0][0] != want {
		t.Fatalf("post-update sum = %v, want %d", r3.Rows[0][0], want)
	}
}

func TestTablesListing(t *testing.T) {
	db := peopleDB(t)
	mustExec(t, db, "CREATE TABLE aaa (x INT)")
	if got := db.Tables(); !reflect.DeepEqual(got, []string{"aaa", "people"}) {
		t.Fatalf("tables = %v", got)
	}
}

func TestGroupByMultiKey(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE s (dept INT, grade INT, pay INT)")
	mustExec(t, db, `INSERT INTO s VALUES
		(1, 1, 100), (1, 2, 200), (1, 1, 300), (2, 1, 50), (2, 2, 60), (2, 2, 40)`)
	r := mustExec(t, db, "SELECT dept, grade, sum(pay) AS total, count(*) AS n FROM s GROUP BY dept, grade")
	want := map[string][2]int64{
		"1/1": {400, 2}, "1/2": {200, 1}, "2/1": {50, 1}, "2/2": {100, 2},
	}
	if len(r.Rows) != len(want) {
		t.Fatalf("rows = %v", r.Rows)
	}
	for _, row := range r.Rows {
		k := fmt.Sprintf("%d/%d", row[0], row[1])
		w, ok := want[k]
		if !ok || row[2] != w[0] || row[3] != w[1] {
			t.Fatalf("group %s: row = %v, want %v", k, row, w)
		}
	}
}

func TestGroupByMultiKeyTextFirst(t *testing.T) {
	// A TEXT first key groups via GroupStr; the refinement keys must be
	// INT (they ride the composite int64 pair table).
	db := NewDB()
	mustExec(t, db, "CREATE TABLE s (team TEXT, grade INT, pay INT)")
	mustExec(t, db, "INSERT INTO s VALUES ('a', 1, 10), ('a', 2, 20), ('a', 1, 30), ('b', 1, 5)")
	r := mustExec(t, db, "SELECT team, grade, sum(pay) AS total FROM s GROUP BY team, grade")
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %v", r.Rows)
	}
	if _, err := db.Query("SELECT grade, sum(pay) FROM s GROUP BY grade, team"); err == nil {
		t.Fatal("TEXT refinement key should be rejected")
	}
}

func TestGroupByMultiKeyNulls(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE s (a INT, b INT, v INT)")
	mustExec(t, db, "INSERT INTO s VALUES (1, NULL, 10), (1, NULL, 20), (NULL, NULL, 5), (NULL, 2, 7)")
	r := mustExec(t, db, "SELECT a, b, count(*) AS n FROM s GROUP BY a, b")
	if len(r.Rows) != 3 {
		t.Fatalf("NULL pairs must group together: %v", r.Rows)
	}
}

func TestIsNullPredicates(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE s (k INT, v INT, f FLOAT, s TEXT)")
	mustExec(t, db, `INSERT INTO s VALUES
		(1, 10, 1.5, 'x'), (2, NULL, NULL, 'y'), (3, 30, NULL, 'z'), (4, NULL, 4.5, 'w')`)
	r := mustExec(t, db, "SELECT k FROM s WHERE v IS NULL")
	if len(r.Rows) != 2 || r.Rows[0][0] != int64(2) || r.Rows[1][0] != int64(4) {
		t.Fatalf("IS NULL rows = %v", r.Rows)
	}
	r = mustExec(t, db, "SELECT k FROM s WHERE f IS NOT NULL AND v IS NOT NULL")
	if len(r.Rows) != 1 || r.Rows[0][0] != int64(1) {
		t.Fatalf("IS NOT NULL rows = %v", r.Rows)
	}
	// No stored text nils here: IS NULL selects nothing, IS NOT NULL
	// everything (stored text NULLs are covered by TestTextStoredNull).
	if r := mustExec(t, db, "SELECT k FROM s WHERE s IS NULL"); len(r.Rows) != 0 {
		t.Fatalf("text IS NULL rows = %v", r.Rows)
	}
	if r := mustExec(t, db, "SELECT k FROM s WHERE s IS NOT NULL"); len(r.Rows) != 4 {
		t.Fatalf("text IS NOT NULL rows = %v", r.Rows)
	}
	// DML routes through the same candidate machinery.
	res := mustExec(t, db, "UPDATE s SET v = 0 WHERE v IS NULL")
	if res.Affected != 2 {
		t.Fatalf("update affected %d", res.Affected)
	}
	res = mustExec(t, db, "DELETE FROM s WHERE f IS NULL")
	if res.Affected != 2 {
		t.Fatalf("delete affected %d", res.Affected)
	}
	if r := mustExec(t, db, "SELECT count(*) FROM s"); r.Rows[0][0] != int64(2) {
		t.Fatalf("rows left = %v", r.Rows)
	}
}
