package sqlfe

import (
	"reflect"
	"testing"

	"repro/internal/wal"
)

// nilLadenDB builds two identical databases with NULL-carrying rows,
// deltas, and tombstones — the messy state vacuum has to get right.
func nilLadenDB(t *testing.T) (*DB, *DB) {
	t.Helper()
	stmts := []string{
		"CREATE TABLE m (k INT, v FLOAT, s TEXT)",
		"INSERT INTO m VALUES (1, 1.5, 'a'), (NULL, 2.5, 'b'), (3, NULL, 'c'), (4, 4.5, 'd')",
		"DELETE FROM m WHERE k = 1",
		"INSERT INTO m VALUES (5, NULL, 'e'), (NULL, NULL, 'f')",
		"UPDATE m SET v = 9.5 WHERE k = 4",
		"DELETE FROM m WHERE s = 'b'",
	}
	a, b := NewDB(), NewDB()
	for _, s := range stmts {
		mustExec(t, a, s)
		mustExec(t, b, s)
	}
	return a, b
}

func sameResults(t *testing.T, oracle, got *DB, queries []string) {
	t.Helper()
	for _, q := range queries {
		want := mustExec(t, oracle, q)
		have := mustExec(t, got, q)
		if !reflect.DeepEqual(want.Rows, have.Rows) {
			t.Errorf("%s:\n oracle %v\n got    %v", q, want.Rows, have.Rows)
		}
	}
}

func TestVacuumMatchesDeltaOracle(t *testing.T) {
	oracle, db := nilLadenDB(t)
	tbl, err := db.Table("m")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Deleted()) == 0 {
		t.Fatal("workload should leave tombstones")
	}
	n, err := db.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("vacuumed %d tables, want 1", n)
	}
	if len(tbl.Deleted()) != 0 || tbl.ZonedRows() != tbl.TotalPositions() {
		t.Fatal("vacuum left tombstones or unmapped rows behind")
	}
	if tbl.TotalPositions() != tbl.NumRows() {
		t.Fatalf("positions=%d rows=%d after vacuum", tbl.TotalPositions(), tbl.NumRows())
	}
	// The unvacuumed twin answers through the tombstone filter — the
	// oracle the rebuilt columns must agree with, NULLs included.
	sameResults(t, oracle, db, []string{
		"SELECT * FROM m",
		"SELECT k, v, s FROM m WHERE k IS NULL",
		"SELECT s FROM m WHERE v IS NOT NULL ORDER BY s",
		"SELECT count(*), sum(k), avg(v) FROM m",
		"SELECT k, sum(v) AS sv FROM m GROUP BY k ORDER BY k",
	})
	// And the vacuumed table keeps taking writes.
	mustExec(t, oracle, "INSERT INTO m VALUES (7, 7.5, 'g')")
	mustExec(t, db, "INSERT INTO m VALUES (7, 7.5, 'g')")
	mustExec(t, oracle, "DELETE FROM m WHERE k = 5")
	mustExec(t, db, "DELETE FROM m WHERE k = 5")
	sameResults(t, oracle, db, []string{"SELECT * FROM m", "SELECT count(*) FROM m"})
}

func TestVacuumNoDeletesIsNoop(t *testing.T) {
	db := peopleDB(t)
	n, err := db.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("vacuumed %d tables, want 0", n)
	}
}

// walDB returns a DB whose writes go through a WAL on mfs, plus the log.
func walDB(t *testing.T, mfs *wal.MemFS) (*DB, *wal.Log) {
	t.Helper()
	lg, txs, err := wal.Open(mfs, "wal.log", wal.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 0 {
		t.Fatalf("fresh log replayed %d txs", len(txs))
	}
	db := NewDB()
	db.WAL = lg
	return db, lg
}

// replayInto reopens the log and applies every committed tx to a fresh DB.
func replayInto(t *testing.T, mfs *wal.MemFS) *DB {
	t.Helper()
	lg, txs, err := wal.Open(mfs, "wal.log", wal.Params{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	db := NewDB()
	for _, tx := range txs {
		if err := db.ApplyTx(tx); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestWALReplayReproducesState(t *testing.T) {
	mfs := wal.NewMemFS()
	db, lg := walDB(t, mfs)
	for _, s := range []string{
		"CREATE TABLE m (k INT, v FLOAT, s TEXT)",
		"INSERT INTO m VALUES (1, 1.5, 'a'), (NULL, 2.5, 'b'), (3, NULL, 'c')",
		"DELETE FROM m WHERE k = 1",
		"UPDATE m SET s = 'z' WHERE k = 3",
		"INSERT INTO m VALUES (4, NULL, 'd')",
		"CREATE TABLE gone (x INT)",
		"DROP TABLE gone",
	} {
		mustExec(t, db, s)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	mfs.Crash()
	got := replayInto(t, mfs)
	if !reflect.DeepEqual(got.Tables(), []string{"m"}) {
		t.Fatalf("tables = %v", got.Tables())
	}
	// SELECT * follows physical position order, so this checks the
	// replayed layout, not just the logical row set.
	sameResults(t, db, got, []string{
		"SELECT * FROM m",
		"SELECT count(*), sum(k) FROM m",
	})
}

func TestWALReplayAfterVacuum(t *testing.T) {
	mfs := wal.NewMemFS()
	db, lg := walDB(t, mfs)
	mustExec(t, db, "CREATE TABLE m (k INT)")
	mustExec(t, db, "INSERT INTO m VALUES (1), (2), (3), (4), (5)")
	mustExec(t, db, "DELETE FROM m WHERE k = 2")
	if _, err := db.Vacuum(); err != nil {
		t.Fatal(err)
	}
	// These positions address the POST-vacuum layout; replay must
	// vacuum at the same point in the sequence to land them right.
	mustExec(t, db, "DELETE FROM m WHERE k = 4")
	mustExec(t, db, "INSERT INTO m VALUES (6)")
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	mfs.Crash()
	got := replayInto(t, mfs)
	sameResults(t, db, got, []string{"SELECT * FROM m"})
}

func TestCheckpointTruncatesWALAndRecovers(t *testing.T) {
	mfs := wal.NewMemFS()
	db, lg := walDB(t, mfs)
	dir := t.TempDir()
	mustExec(t, db, "CREATE TABLE m (k INT, s TEXT)")
	mustExec(t, db, "INSERT INTO m VALUES (1, 'a'), (2, 'b'), (3, 'c')")
	mustExec(t, db, "DELETE FROM m WHERE k = 2")
	if err := db.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if tbl, _ := db.Table("m"); len(tbl.Deleted()) != 0 {
		t.Fatal("checkpoint did not vacuum in memory")
	}
	// Post-checkpoint writes land in the fresh log and replay onto the
	// checkpoint image.
	mustExec(t, db, "INSERT INTO m VALUES (4, 'd')")
	mustExec(t, db, "DELETE FROM m WHERE k = 1")
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	mfs.Crash()
	lg2, txs, err := wal.Open(mfs, "wal.log", wal.Params{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	if len(txs) != 2 {
		t.Fatalf("post-checkpoint log has %d txs, want 2", len(txs))
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range txs {
		if err := got.ApplyTx(tx); err != nil {
			t.Fatal(err)
		}
	}
	sameResults(t, db, got, []string{"SELECT * FROM m", "SELECT count(*) FROM m"})
}
