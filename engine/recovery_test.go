package engine

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
)

// These tests exercise the durability chain end to end: group-committed
// WAL writes, kill-at-any-byte crash recovery against an in-memory
// oracle, fsync-failure poisoning, checkpointing, and the vacuum that
// drops tombstoned positions — explicit, or by the half-tombstoned rule
// inside a DELETE's own transaction.

// durableOpts opens a crash-simulated persistent engine: checkpoints go
// to dir on the real filesystem, the WAL goes through mfs.
func durableOpts(dir string, mfs *wal.MemFS) []Option {
	return []Option{WithDir(dir), WithWALFS(mfs)}
}

func tableRows(t *testing.T, db *DB, table string) [][]any {
	t.Helper()
	return collect(t)(db.Query(bg, "SELECT * FROM "+table))
}

func TestCleanCloseReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a INT, s TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 'one'), (2, 'two')")
	mustExec(t, db, "DELETE FROM t WHERE a = 1")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Close checkpointed: the WAL must be empty and the snapshot current.
	db2, err := Open(WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := tableRows(t, db2, "t"); !reflect.DeepEqual(got, [][]any{{int64(2), "two"}}) {
		t.Fatalf("rows = %v", got)
	}
	if s := db2.WALStats(); s.Txs != 0 {
		t.Fatalf("reopened log replayed %d txs, want 0 after checkpoint", s.Txs)
	}
}

// crashWorkload is a statement sequence covering every WAL op kind.
// Statement 5 is a 0-row DELETE: it acknowledges without logging a
// transaction, which the oracle mapping below has to handle.
var crashWorkload = []string{
	"CREATE TABLE t (a INT, f FLOAT, s TEXT)",
	"INSERT INTO t VALUES (1, 1.5, 'a'), (2, NULL, 'b'), (NULL, 3.5, 'c')",
	"CREATE TABLE u (x INT)",
	"INSERT INTO u VALUES (10), (20)",
	"DELETE FROM t WHERE a = 1",
	"DELETE FROM t WHERE a = 99",
	"UPDATE t SET f = 9.5 WHERE s = 'c'",
	"INSERT INTO t VALUES (4, 4.5, 'd')",
	"DROP TABLE u",
	"INSERT INTO t VALUES (5, NULL, 'e')",
}

// TestCrashPointSweep kills the database at every record boundary (and
// at points inside records) of the WAL a workload produced, recovers,
// and compares against an in-memory oracle that ran the statement
// prefix covered by the surviving transactions. The guarantee checked
// is exactly-once, all-or-nothing replay: a transaction is either fully
// recovered or fully absent, and acknowledged-then-crashed writes are
// recovered whenever their commit record survived.
func TestCrashPointSweep(t *testing.T) {
	mfs := wal.NewMemFS()
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal.log")
	db, err := Open(durableOpts(dir, mfs)...)
	if err != nil {
		t.Fatal(err)
	}
	// txsAfter[i] = committed tx count once statement i returned; the
	// recovery oracle for R surviving txs is the longest statement
	// prefix whose final count is <= R.
	txsAfter := make([]uint64, len(crashWorkload))
	for i, s := range crashWorkload {
		mustExec(t, db, s)
		txsAfter[i] = db.WALStats().Txs
	}
	blob := mfs.Durable(walPath)
	recs := wal.Dump(blob)
	if len(recs) < 3*9 { // 9 logging statements, >= begin+op+commit each
		t.Fatalf("workload produced only %d records", len(recs))
	}

	cuts := []int64{0}
	for _, r := range recs {
		cuts = append(cuts, r.End) // clean kill at a record boundary
		if r.End-cuts[len(cuts)-2] > 5 {
			cuts = append(cuts, r.End-3) // torn tail inside this record
		}
	}
	for _, cut := range cuts {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			// A fresh filesystem holding exactly the bytes that were
			// durable at the kill point. The checkpoint dir is fresh
			// too: this subtest's Close checkpoints into it, which must
			// not leak into other cuts.
			subdir := t.TempDir()
			cfs := wal.NewMemFS()
			cfs.Seed(filepath.Join(subdir, "wal.log"), blob[:cut])
			rec, err := Open(durableOpts(subdir, cfs)...)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			replayed := rec.WALStats().Txs

			oracle, err := Open()
			if err != nil {
				t.Fatal(err)
			}
			defer oracle.Close()
			for i, s := range crashWorkload {
				if txsAfter[i] > replayed {
					break
				}
				mustExec(t, oracle, s)
			}
			for _, table := range oracle.Tables() {
				want := tableRows(t, oracle, table)
				got := tableRows(t, rec, table)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("table %s after %d replayed txs:\n oracle %v\n got    %v",
						table, replayed, want, got)
				}
			}
			if !reflect.DeepEqual(oracle.Tables(), rec.Tables()) {
				t.Fatalf("tables: oracle %v, recovered %v", oracle.Tables(), rec.Tables())
			}
			// The truncated log must accept new writes, including a
			// 0-row DML that logs nothing.
			if len(rec.Tables()) > 0 && rec.Tables()[0] == "t" {
				before := len(tableRows(t, rec, "t"))
				mustExec(t, rec, "DELETE FROM t WHERE a = 123456")
				mustExec(t, rec, "CREATE TABLE postcrash (z INT)")
				mustExec(t, rec, "INSERT INTO postcrash VALUES (1)")
				if got := len(tableRows(t, rec, "t")); got != before {
					t.Fatalf("no-op delete changed row count %d -> %d", before, got)
				}
			}
		})
	}
}

// TestCrashSweepWithVacuum reruns the sweep over a workload whose
// middle is a logged vacuum: deletes after it address the compacted
// layout, so replay must vacuum at the same point to land them right.
func TestCrashSweepWithVacuum(t *testing.T) {
	crashSweepActions(t, []func(t *testing.T, db *DB){
		func(t *testing.T, db *DB) { mustExec(t, db, "CREATE TABLE t (a INT, s TEXT)") },
		func(t *testing.T, db *DB) {
			mustExec(t, db, "INSERT INTO t VALUES (1,'a'), (2,'b'), (3,'c'), (4,'d'), (5,'e')")
		},
		func(t *testing.T, db *DB) { mustExec(t, db, "DELETE FROM t WHERE a = 2") },
		func(t *testing.T, db *DB) {
			if _, err := db.Vacuum(); err != nil {
				t.Fatal(err)
			}
		},
		func(t *testing.T, db *DB) { mustExec(t, db, "DELETE FROM t WHERE a = 4") },
		func(t *testing.T, db *DB) { mustExec(t, db, "UPDATE t SET s = 'z' WHERE a = 5") },
		func(t *testing.T, db *DB) { mustExec(t, db, "INSERT INTO t VALUES (6, 'f')") },
	})
}

// TestCrashSweepHalfTombstoned: a DELETE or UPDATE that leaves more than
// half of a table's positions tombstoned vacuums the table inside its
// own WAL transaction, so replay lands every later delete on the
// compacted layout — at every kill point — and no tombstones remain.
func TestCrashSweepHalfTombstoned(t *testing.T) {
	tombstones := func(t *testing.T, db *DB, want int) {
		t.Helper()
		tbl, err := db.sdb.Table("t")
		if err != nil {
			t.Fatal(err)
		}
		if got := len(tbl.Deleted()); got != want {
			t.Fatalf("%d tombstones, want %d", got, want)
		}
	}
	crashSweepActions(t, []func(t *testing.T, db *DB){
		func(t *testing.T, db *DB) { mustExec(t, db, "CREATE TABLE t (a INT, s TEXT)") },
		func(t *testing.T, db *DB) {
			mustExec(t, db, "INSERT INTO t VALUES (1,'a'), (2,'b'), (3,'c'), (4,'d'), (5,'e'), (6,'f')")
		},
		func(t *testing.T, db *DB) {
			mustExec(t, db, "DELETE FROM t WHERE a <= 3") // exactly half: kept
			tombstones(t, db, 3)
		},
		func(t *testing.T, db *DB) {
			mustExec(t, db, "DELETE FROM t WHERE a = 5") // 4 of 6: vacuumed
			tombstones(t, db, 0)
		},
		func(t *testing.T, db *DB) { mustExec(t, db, "INSERT INTO t VALUES (7,'g')") },
		func(t *testing.T, db *DB) {
			mustExec(t, db, "UPDATE t SET s = 'y' WHERE a >= 6") // 2 of 5 tombstoned
			tombstones(t, db, 2)
		},
		func(t *testing.T, db *DB) {
			mustExec(t, db, "UPDATE t SET s = 'x' WHERE a = 4") // 3 of 6: kept
			tombstones(t, db, 3)
		},
		func(t *testing.T, db *DB) {
			mustExec(t, db, "DELETE FROM t WHERE a = 7") // 4 of 6: vacuumed
			tombstones(t, db, 0)
		},
	})
}

// crashSweepActions runs actions (each logging at most one transaction)
// on a crash-simulated database, then kills it at every record boundary
// of the resulting WAL, recovers, and compares table t with an in-memory
// oracle that ran the action prefix the surviving transactions cover.
func crashSweepActions(t *testing.T, actions []func(t *testing.T, db *DB)) {
	mfs := wal.NewMemFS()
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal.log")
	db, err := Open(durableOpts(dir, mfs)...)
	if err != nil {
		t.Fatal(err)
	}
	txsAfter := make([]uint64, len(actions))
	for i, act := range actions {
		act(t, db)
		txsAfter[i] = db.WALStats().Txs
	}
	blob := mfs.Durable(walPath)
	for _, r := range wal.Dump(blob) {
		cut := r.End
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			subdir := t.TempDir()
			cfs := wal.NewMemFS()
			cfs.Seed(filepath.Join(subdir, "wal.log"), blob[:cut])
			rec, err := Open(durableOpts(subdir, cfs)...)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			replayed := rec.WALStats().Txs
			oracle, err := Open()
			if err != nil {
				t.Fatal(err)
			}
			defer oracle.Close()
			for i, act := range actions {
				if txsAfter[i] > replayed {
					break
				}
				act(t, oracle)
			}
			if !reflect.DeepEqual(oracle.Tables(), rec.Tables()) {
				t.Fatalf("tables: oracle %v, recovered %v", oracle.Tables(), rec.Tables())
			}
			if len(oracle.Tables()) == 0 {
				return // cut before the CREATE committed
			}
			want := tableRows(t, oracle, "t")
			got := tableRows(t, rec, "t")
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("after %d replayed txs:\n oracle %v\n got    %v", replayed, want, got)
			}
		})
	}
}

// TestFsyncFailurePoisonsEngine drives concurrent writers into an
// injected fsync failure and checks the engine-level contract: the
// failed fsync is never retried, every write after it errors, Close
// refuses to checkpoint, and recovery yields exactly the acknowledged
// writes — no more, no fewer.
func TestFsyncFailurePoisonsEngine(t *testing.T) {
	mfs := wal.NewMemFS()
	dir := t.TempDir()
	db, err := Open(durableOpts(dir, mfs)...)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (w INT, i INT)")
	mfs.FailSyncsAfter(6, nil)

	const writers, per = 4, 40
	acked := make([]map[int]bool, writers)
	var sawErr [writers]bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		acked[w] = map[int]bool{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_, err := db.Exec(bg, "INSERT INTO t VALUES (?, ?)", int64(w), int64(i))
				if err != nil {
					// Poisoned: every later write on this session must
					// keep failing (no silent retry can succeed).
					sawErr[w] = true
					continue
				}
				if sawErr[w] {
					t.Errorf("writer %d: write acknowledged after poisoning", w)
				}
				acked[w][i] = true
			}
		}()
	}
	wg.Wait()
	if err := db.Err(); !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("db.Err() = %v, want ErrPoisoned", err)
	}
	if err := db.Close(); err == nil || !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("Close on poisoned db = %v, want checkpoint refusal", err)
	}

	// Power-cycle: only fsynced bytes survive; the replayed set must be
	// exactly the acknowledged set.
	mfs.Crash()
	mfs.FailSyncsAfter(-1, nil)
	rec, err := Open(durableOpts(dir, mfs)...)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	got := make([]map[int]bool, writers)
	for w := range got {
		got[w] = map[int]bool{}
	}
	for _, row := range tableRows(t, rec, "t") {
		got[row[0].(int64)][int(row[1].(int64))] = true
	}
	for w := 0; w < writers; w++ {
		if !reflect.DeepEqual(acked[w], got[w]) {
			t.Fatalf("writer %d: acked %v, recovered %v", w, acked[w], got[w])
		}
	}
}

// TestTombstonedTablePlansVectorized: a table with tombstones runs on
// the vectorized pipeline — the scan filters them — before and after
// DB.Vacuum drops them, with identical rows, and \plan counts them.
func TestTombstonedTablePlansVectorized(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadInts(t, db, "t", 5000)
	mustExec(t, db, "DELETE FROM t WHERE x < 100")
	conn := db.Conn()

	const q = "SELECT x, y FROM t WHERE x < 1000"
	plan, err := conn.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(plan, "vectorized pipeline") || !strings.Contains(plan, "5000 rows, 100 tombstoned") {
		t.Fatalf("expected a vectorized plan scanning 100 tombstones, got:\n%s", plan)
	}
	before := collect(t)(db.Query(bg, q))
	if len(before) != 900 {
		t.Fatalf("%d rows before vacuum, want 900", len(before))
	}

	if n, err := db.Vacuum(); err != nil || n != 1 {
		t.Fatalf("vacuumed %d tables, %v; want 1", n, err)
	}
	plan, err = conn.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(plan, "vectorized pipeline") || strings.Contains(plan, "tombstoned") {
		t.Fatalf("expected a vectorized plan without tombstones after vacuum, got:\n%s", plan)
	}
	after := collect(t)(db.Query(bg, q))
	if err := sameMultiset(before, after); err != nil {
		t.Fatalf("vacuum changed results: %v", err)
	}
}

// TestLoneCommitDoesNotWait: a commit with no company waits only for
// its own fsync, not for a batch window. 200 sequential single-row
// INSERTs on MemFS, whose fsync is instant, take one fsync each and
// finish in well under a millisecond apiece.
func TestLoneCommitDoesNotWait(t *testing.T) {
	db, err := Open(durableOpts(t.TempDir(), wal.NewMemFS())...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (i INT)")
	const n = 200
	before := db.WALStats()
	start := time.Now()
	for i := 0; i < n; i++ {
		mustExec(t, db, "INSERT INTO t VALUES (?)", int64(i))
	}
	if d := time.Since(start); d >= 100*time.Millisecond {
		t.Fatalf("%d lone commits took %v, want < 100ms", n, d)
	}
	s := db.WALStats()
	if txs, fsyncs := s.Txs-before.Txs, s.Fsyncs-before.Fsyncs; txs != n || fsyncs != txs {
		t.Fatalf("%d fsyncs for %d txs, want one per tx for %d", fsyncs, txs, n)
	}
}

// checkpointWindowWorkload makes duplicate replay detectable in every
// way it can corrupt: a replayed CREATE errors Open, replayed INSERTs
// duplicate rows, and replayed DELETEs (positions addressing the
// pre-checkpoint layout) tombstone the wrong rows after the checkpoint
// vacuum compacts positions.
var checkpointWindowWorkload = []string{
	"CREATE TABLE t (a INT, s TEXT)",
	"INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd')",
	"DELETE FROM t WHERE a = 2",
	"CREATE TABLE u (x INT)",
	"INSERT INTO u VALUES (10), (20)",
	"UPDATE t SET s = 'z' WHERE a = 4",
}

// TestCheckpointCrashBeforeTruncate exercises the window between a
// checkpoint's two durable steps: the snapshot save commits (CURRENT
// renamed) but the WAL truncation fails and the process dies. Recovery
// then finds the NEW snapshot plus the FULL old log; the snapshot's
// wal_lsn watermark must make it skip every logged transaction the
// snapshot already contains instead of replaying it twice.
func TestCheckpointCrashBeforeTruncate(t *testing.T) {
	mfs := wal.NewMemFS()
	dir := t.TempDir()
	db, err := Open(durableOpts(dir, mfs)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range checkpointWindowWorkload {
		mustExec(t, db, s)
	}
	// Every workload commit is durable; the NEXT sync — the checkpoint's
	// log truncation (or the flush of its vacuum record, depending on
	// committer timing; either lands inside the save-committed/
	// truncate-pending window) — fails and poisons the log.
	mfs.FailSyncsAfter(0, nil)
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint with failing truncate sync returned nil")
	}
	db.Close() // poisoned: checkpoint refused; on-disk state stays put

	// Power-cycle. The durable state is the committed snapshot plus the
	// old WAL in full.
	mfs.Crash()
	mfs.FailSyncsAfter(-1, nil)
	rec, err := Open(durableOpts(dir, mfs)...)
	if err != nil {
		t.Fatalf("recovery after checkpoint crash window: %v", err)
	}
	oracle, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	for _, s := range checkpointWindowWorkload {
		mustExec(t, oracle, s)
	}
	for _, table := range oracle.Tables() {
		want := tableRows(t, oracle, table)
		got := tableRows(t, rec, table)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("table %s after recovery:\n oracle %v\n got    %v", table, want, got)
		}
	}
	if !reflect.DeepEqual(oracle.Tables(), rec.Tables()) {
		t.Fatalf("tables: oracle %v, recovered %v", oracle.Tables(), rec.Tables())
	}

	// The recovered database must write, checkpoint, and survive another
	// full cycle: post-recovery LSNs sit above the watermark, so nothing
	// new is ever mistaken for already-checkpointed.
	mustExec(t, rec, "INSERT INTO t VALUES (5, 'e')")
	if err := rec.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, rec, "INSERT INTO t VALUES (6, 'f')")
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	mfs.Crash()
	rec2, err := Open(durableOpts(dir, mfs)...)
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	mustExec(t, oracle, "INSERT INTO t VALUES (5, 'e')")
	mustExec(t, oracle, "INSERT INTO t VALUES (6, 'f')")
	if want, got := tableRows(t, oracle, "t"), tableRows(t, rec2, "t"); !reflect.DeepEqual(want, got) {
		t.Fatalf("after second cycle:\n oracle %v\n got    %v", want, got)
	}
}

// TestCheckpointWindowSweep kills the database at every record boundary
// of the OLD log inside the checkpoint's crash window: the snapshot
// save has committed (CURRENT renamed) but the WAL truncation never
// reached disk, so recovery sees the new snapshot plus some durable
// prefix of a log whose every transaction the snapshot already
// contains. For every cut — torn tails included — the recovered state
// must be exactly the checkpoint state: the watermark skips each
// surviving transaction rather than replaying it onto its own effects.
func TestCheckpointWindowSweep(t *testing.T) {
	mfs := wal.NewMemFS()
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal.log")
	db, err := Open(durableOpts(dir, mfs)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range checkpointWindowWorkload {
		mustExec(t, db, s)
	}
	// The full old-log image, captured before the checkpoint truncates
	// it: the bytes a crash inside the window would leave behind.
	oldImage := mfs.Durable(walPath)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	want := func() [][]any {
		oracle, err := Open()
		if err != nil {
			t.Fatal(err)
		}
		defer oracle.Close()
		for _, s := range checkpointWindowWorkload {
			mustExec(t, oracle, s)
		}
		return tableRows(t, oracle, "t")
	}()

	recs := wal.Dump(oldImage)
	if len(recs) == 0 {
		t.Fatal("old log image parsed to zero records")
	}
	cuts := []int64{0}
	for _, r := range recs {
		cuts = append(cuts, r.End)
		if r.End-r.Off > 5 {
			cuts = append(cuts, r.End-3) // torn tail inside this record
		}
	}
	for _, cut := range cuts {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			cfs := wal.NewMemFS()
			cfs.Seed(walPath, oldImage[:cut])
			rec, err := Open(durableOpts(dir, cfs)...)
			if err != nil {
				t.Fatalf("recovery at cut %d: %v", cut, err)
			}
			defer func() {
				// This subtest's Close would checkpoint into the SHARED
				// dir and perturb later cuts; poison it out instead.
				cfs.FailSyncsAfter(0, nil)
				rec.Close()
			}()
			if got := tableRows(t, rec, "t"); !reflect.DeepEqual(got, want) {
				t.Fatalf("cut %d: recovered %v, want checkpoint state %v", cut, got, want)
			}
			if got := tableRows(t, rec, "u"); len(got) != 2 {
				t.Fatalf("cut %d: table u has %d rows, want 2", cut, len(got))
			}
		})
	}
}

// TestCheckpointMidRunThenCrash: an explicit Checkpoint moves the
// snapshot forward and truncates the log while the handle stays open
// and keeps writing. A crash after it must recover the checkpointed
// state plus the later transactions, replaying nothing twice.
func TestCheckpointMidRunThenCrash(t *testing.T) {
	mfs := wal.NewMemFS()
	dir := t.TempDir()
	db, err := Open(durableOpts(dir, mfs)...)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2)")
	mustExec(t, db, "DELETE FROM t WHERE a = 1")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO t VALUES (3)")
	// Crash without Close: the first handle is abandoned mid-flight.
	mfs.Crash()
	rec, err := Open(durableOpts(dir, mfs)...)
	if err != nil {
		t.Fatalf("recovery after mid-run checkpoint: %v", err)
	}
	defer rec.Close()
	want := [][]any{{int64(2)}, {int64(3)}}
	if got := tableRows(t, rec, "t"); !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v (checkpointed txs must not replay twice)", got, want)
	}
}

// TestDurabilityFailureTaintsDB: once a statement's effects are applied
// in memory but its commit cannot be made durable, the database must
// refuse READS too — serving them would expose a write the caller was
// told failed.
func TestDurabilityFailureTaintsDB(t *testing.T) {
	mfs := wal.NewMemFS()
	dir := t.TempDir()
	db, err := Open(durableOpts(dir, mfs)...)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	mfs.FailSyncsAfter(0, nil)
	if _, err := db.Exec(bg, "INSERT INTO t VALUES (2)"); err == nil {
		t.Fatal("write with failing fsync returned nil")
	}
	// The failed write's row is in memory; reads must error rather than
	// serve it.
	if _, err := db.Query(bg, "SELECT * FROM t"); err == nil {
		t.Fatal("read on tainted database returned nil")
	}
	if _, err := db.Conn().Prepare("SELECT a FROM t"); err == nil {
		t.Fatal("prepare on tainted database returned nil")
	}
	if err := db.Err(); err == nil {
		t.Fatal("Err() on tainted database = nil")
	}
	if err := db.Close(); err == nil {
		t.Fatal("Close on tainted database checkpointed")
	}

	// Recovery serves exactly the acknowledged prefix, reads included.
	mfs.Crash()
	mfs.FailSyncsAfter(-1, nil)
	rec, err := Open(durableOpts(dir, mfs)...)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := tableRows(t, rec, "t"); !reflect.DeepEqual(got, [][]any{{int64(1)}}) {
		t.Fatalf("recovered rows = %v, want only the acknowledged insert", got)
	}
	mustExec(t, rec, "INSERT INTO t VALUES (5)")
}
