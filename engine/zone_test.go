package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sqlfe"
)

// The structural side of data skipping, read off \plan: how many zones
// and rows a scan kept. Whether the rows a pruned scan returns are
// right is the differential driver's job (diff_test.go,
// TestPrunedScansMatchPlainGoFilter and the stages of TestDifferential).

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
	// Rows in deltas have no zones, so a comparison on the unsorted bal
	// scans them all; id stays sorted as it is appended, so binary search
	// still finds its one row.
	for _, c := range []struct {
		sql  string
		rows int
	}{
		{"SELECT id, grp, bal FROM acct WHERE bal = 456", n},
		{"SELECT id, grp, bal FROM acct WHERE id = 123456", 1},
	} {
		plan, err := db.Conn().Plan(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if kept, zones, rows, total := scanLine(t, plan, "acct"); kept != 0 || zones != 0 || rows != c.rows || total != n {
			t.Fatalf("%s, rows in deltas: %d/%d zones, %d/%d rows; want 0/0 zones, %d rows", c.sql, kept, zones, rows, total, c.rows)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(WithDir(dir)); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	conn := db.Conn()
	// id and grp are sorted, so binary search cuts each scan to exactly
	// the rows that qualify; the zones are those rows' zones.
	for _, c := range []struct {
		sql            string
		maxZones, rows int
		want           [][]any
	}{
		{"SELECT id, grp, bal FROM acct WHERE id = 123456", 1, 1, [][]any{{int64(123456), int64(617), int64(456)}}},
		{"SELECT count(*), sum(bal) FROM acct WHERE grp = 512", 2, 200, [][]any{{int64(200), int64(99900)}}},
		{"SELECT count(*), sum(bal) FROM acct WHERE id >= 101900 AND id < 102900", 2, 1000, [][]any{{int64(1000), int64(499500)}}},
		{"SELECT count(*) FROM acct WHERE id = 200000", 0, 0, [][]any{{int64(0)}}},
	} {
		plan, err := conn.Plan(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		kept, zones, rows, total := scanLine(t, plan, "acct")
		if zones != (n+sqlfe.ZoneRows-1)/sqlfe.ZoneRows || total != n || kept > c.maxZones || rows != c.rows {
			t.Errorf("%s: %d/%d zones, %d/%d rows; want at most %d zones, %d rows", c.sql, kept, zones, rows, total, c.maxZones, c.rows)
		}
		if err := Unordered.Check(collect(t)(conn.Query(bg, c.sql)), c.want); err != nil {
			t.Errorf("%s: %v", c.sql, err)
		}
	}
}

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
		if Unordered.Check(got, [][]any{{int64(1000)}}) != nil {
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
