package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sqlfe"
)

// Execute instantiates a plan's operators on every execution, so what
// one execution allocates is paid by every prepared statement on the
// serving path. One worker keeps the counts deterministic: the stream
// runs inline on the caller's goroutine over the same morsels. The
// bounds are what each statement allocates now; they only ever come
// down. The point lookup binary-searches a sorted column to its one
// row. The join is a filtered 3-way star, grouped (398 allocations
// while its builds appended a row at a time and its probes carried
// every column, 192 while each build also allocated a partitioning
// front over its key table); its bound is its count under -race, three
// above a plain build's 187, because the instrumented build keeps a few
// appends the plain one elides. The same star read for no dimension
// column is two semi steps, answered by their bitmap filters without a
// table or a probe: bounded at its count under -race, 135 (133 plain).
func TestAggregateExecutionAllocs(t *testing.T) {
	// Every table of the catalog costs each execution's snapshot, so the
	// join runs in a database of its own.
	db, _ := Open(WithWorkers(1))
	defer db.Close()
	loadGrouped(t, db, "g", 20000, 50, 7)
	star, _ := Open(WithWorkers(1))
	defer star.Close()
	loadGrouped(t, star, "g", 20000, 50, 7)
	loadDim(t, star, "d1", 0, 60)
	loadDim(t, star, "d2", -500, 1000)
	point, _ := Open(WithWorkers(1))
	defer point.Close()
	loadAcct(t, point, 20000)
	// The point lookup binary-searches the sorted id to its one row.
	plan, err := point.Conn().Plan("SELECT id, grp, bal FROM acct WHERE id = 12345")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, rows, _ := scanLine(t, plan, "acct"); rows != 1 || !strings.Contains(plan, "by binary search on acct.id") {
		t.Fatalf("point lookup visits %d rows, want 1 by binary search:\n%s", rows, plan)
	}
	if plan, err = star.Conn().Plan("SELECT count(*), sum(g.v) FROM g JOIN d1 ON g.k = d1.k JOIN d2 ON g.v = d2.k WHERE d2.a < 3"); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(plan, "[semi: answered by its bitmap filter]"); n != 2 {
		t.Fatalf("the payload-free star runs %d semi steps, want 2:\n%s", n, plan)
	}
	for _, tc := range []struct {
		db        *DB
		name, sql string
		arg       any
		max       float64
	}{
		{db, "global", "SELECT count(*), sum(v) FROM g WHERE k = ?", int64(3), 51},
		{db, "grouped", "SELECT k, count(*), sum(v) FROM g WHERE v >= ? GROUP BY k", int64(-100), 74},
		{db, "grouped-top", "SELECT k, sum(v) AS s FROM g WHERE v >= ? GROUP BY k ORDER BY s DESC LIMIT 5", int64(-100), 87},
		{point, "point", "SELECT id, grp, bal FROM acct WHERE id = ?", int64(12345), 31},
		{star, "join-grouped", "SELECT d1.a, count(*), sum(d2.b) FROM g JOIN d1 ON g.k = d1.k JOIN d2 ON g.v = d2.k WHERE d2.a < ? GROUP BY d1.a", int64(3), 190},
		{star, "join-semi", "SELECT count(*), sum(g.v) FROM g JOIN d1 ON g.k = d1.k JOIN d2 ON g.v = d2.k WHERE d2.a < ?", int64(3), 135},
	} {
		st, err := tc.db.Conn().Prepare(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		got := testing.AllocsPerRun(20, func() {
			r, err := st.Query(bg, tc.arg)
			if err != nil {
				t.Fatal(err)
			}
			rows = 0
			for r.Next() {
				rows++
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per execution, %d rows", tc.name, got, rows)
		if got > tc.max {
			t.Errorf("%s: %.0f allocations per execution, want at most %.0f", tc.name, got, tc.max)
		}
	}
}

// loadDim loads a dimension table (k INT, a INT, b INT) of n rows whose
// keys k run from lo: a cycles through 0..6, b is 3·k.
func loadDim(t *testing.T, db *DB, name string, lo, n int) {
	t.Helper()
	if _, err := db.Exec(bg, fmt.Sprintf("CREATE TABLE %s (k INT, a INT, b INT)", name)); err != nil {
		t.Fatal(err)
	}
	ins := &sqlfe.Insert{Table: name}
	for i := 0; i < n; i++ {
		k := int64(lo + i)
		ins.Rows = append(ins.Rows, []sqlfe.Lit{{Kind: sqlfe.TInt, I: k}, {Kind: sqlfe.TInt, I: int64(i % 7)}, {Kind: sqlfe.TInt, I: 3 * k}})
	}
	if _, err := db.sdb.ExecStmt(ins); err != nil {
		t.Fatal(err)
	}
}
