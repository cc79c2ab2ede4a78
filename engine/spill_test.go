package engine

// Out-of-core execution at the public API, beyond the rows the
// differential driver's tight-budget cells check (diff_test.go): the
// typed rejection without a spill directory, a fault-injected spill
// failure that fails only its query, the orphan sweep, and the plan
// cache's byte bound.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wal"
)

// newGovDB opens an in-memory database with a per-query budget and a
// MemFS-backed spill directory (fault-injectable, no real disk).
func newGovDB(t *testing.T, budget int64, workers int) (*DB, *wal.MemFS) {
	t.Helper()
	fs := wal.NewMemFS()
	db, err := openSized(512, 64, WithWorkers(workers), WithMemBudget(budget), WithSpill("/spill"), WithWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	return db, fs
}

// checkNoLeak asserts every spill file died with its query.
func checkNoLeak(t *testing.T, db *DB, label string) {
	t.Helper()
	if live := db.SpillStats().LiveFiles; live != 0 {
		t.Fatalf("%s: %d spill files leaked", label, live)
	}
}

// Without a spill directory the budget is a hard rejection — typed,
// per-query, database untouched.
func TestBudgetRejectWithoutSpill(t *testing.T) {
	db, err := openSized(512, 64, WithWorkers(4), WithMemBudget(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadGrouped(t, db, "g", 30000, 8000, 3)
	for _, q := range []string{
		"SELECT k, v, f FROM g ORDER BY v",
		"SELECT k, sum(v) FROM g GROUP BY k",
	} {
		if _, err := Drain(db.Query(bg, q)); !errors.Is(err, ErrOverBudget) {
			t.Fatalf("%s: got %v, want ErrOverBudget", q, err)
		}
	}
	if err := db.Err(); err != nil {
		t.Fatalf("an over-budget query must not fail the database: %v", err)
	}
	// A small query on the same tables still serves.
	got := collect(t)(db.Query(bg, "SELECT count(*) FROM g"))
	if len(got) != 1 {
		t.Fatalf("count after rejection: %v", got)
	}
}

// A fault-injected spill failure fails ONLY the querying statement with
// the typed error; the database is not tainted, no files leak, and the
// same query succeeds once the fault clears.
func TestSpillFailureDegradesOneQuery(t *testing.T) {
	for _, q := range []string{
		"SELECT k, v, f FROM g ORDER BY v",
		"SELECT k, sum(v) FROM g GROUP BY k",
		"SELECT jl.k, jl.v FROM jl JOIN jr ON jl.k = jr.k",
	} {
		t.Run(q, func(t *testing.T) { testSpillFailure(t, q) })
	}
}

func testSpillFailure(t *testing.T, q string) {
	db, fs := newGovDB(t, 128<<10, 4)
	defer db.Close()
	oracle, _ := openSized(512, 64, WithWorkers(4))
	defer oracle.Close()
	for _, d := range []*DB{db, oracle} {
		loadGrouped(t, d, "g", 30000, 8000, 5)
		loadGrouped(t, d, "jl", 20000, 600, 11)
		loadGrouped(t, d, "jr", 6000, 600, 12)
	}
	boom := errors.New("disk gone")
	fs.FailSyncsAfter(0, boom)
	_, err := Drain(db.Query(bg, q))
	if !errors.Is(err, ErrSpillFailed) {
		t.Fatalf("%s: got %v, want ErrSpillFailed", q, err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("%s: injected cause lost: %v", q, err)
	}
	if derr := db.Err(); derr != nil {
		t.Fatalf("%s: spill failure tainted the database: %v", q, derr)
	}
	checkNoLeak(t, db, q)

	// Fault clears; the SAME query now completes — and correctly.
	fs.FailSyncsAfter(-1, nil)
	got := collect(t)(db.Query(bg, q))
	want := collect(t)(oracle.Query(bg, q))
	c := Unordered
	if strings.Contains(q, "ORDER BY") {
		c.Order = 1
	}
	if err := c.Check(got, want); err != nil {
		t.Fatalf("%s (retry): %v", q, err)
	}
	checkNoLeak(t, db, q+" (retry)")
}

// Open sweeps spill files orphaned by a crashed process, and leaves
// everything else in the directory alone.
func TestOpenSweepsOrphanedSpillFiles(t *testing.T) {
	t.Run("memfs", func(t *testing.T) {
		fs := wal.NewMemFS()
		fs.Seed("/spill/spill-sortrun-9.run", []byte("stale"))
		fs.Seed("/spill/keep.dat", []byte("mine"))
		db, err := Open(WithMemBudget(1<<20), WithSpill("/spill"), WithWALFS(fs))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		names, err := fs.List("/spill")
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(names) != "[keep.dat]" {
			t.Fatalf("after sweep: %v, want only keep.dat", names)
		}
	})
	t.Run("osfs", func(t *testing.T) {
		dir := t.TempDir()
		for _, f := range []string{"spill-grp3-12.run", "keep.dat"} {
			if err := os.WriteFile(filepath.Join(dir, f), []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		db, err := Open(WithMemBudget(1<<20), WithSpill(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if _, err := os.Stat(filepath.Join(dir, "spill-grp3-12.run")); !os.IsNotExist(err) {
			t.Fatalf("orphaned spill file survived the sweep (err=%v)", err)
		}
		if _, err := os.Stat(filepath.Join(dir, "keep.dat")); err != nil {
			t.Fatalf("sweep touched a non-spill file: %v", err)
		}
	})
}

// The plan cache's byte bound evicts cold plans even when the entry
// count is far below the entry cap.
func TestPlanCacheByteBound(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.plans = newPlanCache(1000, 2<<10)
	mustExec(t, db, "CREATE TABLE t (a INT, b INT)")
	conn := db.Conn()
	for i := 0; i < 40; i++ {
		stmt, err := conn.Prepare(fmt.Sprintf("SELECT a, b FROM t WHERE a > %d AND b < %d ORDER BY b", i, i*2))
		if err != nil {
			t.Fatal(err)
		}
		collect(t)(stmt.Query(bg)) // compiles: Prepare alone is lazy for the cache
		stmt.Close()
	}
	st := db.PlanCacheStats()
	// A lone entry may exceed the bound by design (a single huge plan
	// still caches); past one entry the bound must hold.
	if st.Entries > 1 && st.Bytes > 2<<10 {
		t.Fatalf("cache holds %d bytes in %d entries, bound is %d", st.Bytes, st.Entries, 2<<10)
	}
	if st.Entries >= 40 {
		t.Fatalf("byte bound never evicted: %d entries", st.Entries)
	}
	if st.Bytes <= 0 || st.Entries <= 0 {
		t.Fatalf("cache should retain recent plans: %+v", st)
	}
}
