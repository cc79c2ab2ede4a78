package engine

// Out-of-core execution at the public API: queries whose sort runs,
// grouping tables, or join builds exceed the per-query memory budget
// must degrade to disk and return BIT-EXACT the rows an unlimited
// database returns — and a fault-injected spill failure must fail only
// that query, leaving the database serving.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/sqlfe"
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

// newOracleDB opens an identically-tuned database with NO budget: the
// pure in-memory plans are the oracle the spilled plans must match.
func newOracleDB(t *testing.T, workers int) *DB {
	t.Helper()
	db, err := openSized(512, 64, WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// renderSorted turns rows into a sorted string multiset so unordered
// results (grouped, joined) compare exactly across plans.
func renderSorted(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func diffRows(t *testing.T, label string, got, want [][]any, ordered bool) {
	t.Helper()
	g, w := renderSorted(got), renderSorted(want)
	if ordered {
		g, w = make([]string, len(got)), make([]string, len(want))
		for i, r := range got {
			g[i] = fmt.Sprint(r)
		}
		for i, r := range want {
			w[i] = fmt.Sprint(r)
		}
	}
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, oracle has %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s row %d: got %s, oracle %s", label, i, g[i], w[i])
		}
	}
}

// checkNoLeak asserts every spill file died with its query.
func checkNoLeak(t *testing.T, db *DB, label string) {
	t.Helper()
	if live := db.SpillStats().LiveFiles; live != 0 {
		t.Fatalf("%s: %d spill files leaked", label, live)
	}
}

func TestExternalSortEngineOracle(t *testing.T) {
	queries := []struct {
		sql     string
		ordered bool
	}{
		{"SELECT k, v, f FROM s ORDER BY v", true},
		// A LIMIT the budget cannot hold: a bounded top-N that fits never
		// spills (TestTopNBudget), so only one this large still exercises
		// Limit-truncated spilled runs.
		{"SELECT k, v, f FROM s ORDER BY f DESC LIMIT 13700", true},
		{"SELECT v FROM s WHERE k >= 3 ORDER BY v DESC", true},
	}
	for _, workers := range []int{1, 2, 4, 8} {
		oracle := newOracleDB(t, workers)
		loadGrouped(t, oracle, "s", 20000, 5000, 42)
		// ~128KB across all workers: a 20000-row sort must spill runs.
		db, _ := newGovDB(t, 128<<10, workers)
		loadGrouped(t, db, "s", 20000, 5000, 42)
		for _, q := range queries {
			label := fmt.Sprintf("%s (workers=%d)", q.sql, workers)
			before := db.SpillStats().Spills
			got := collect(t)(db.Query(bg, q.sql))
			want := collect(t)(oracle.Query(bg, q.sql))
			diffRows(t, label, got, want, q.ordered)
			if db.SpillStats().Spills == before {
				t.Fatalf("%s: budget never forced a spill", label)
			}
			checkNoLeak(t, db, label)
		}
		db.Close()
		oracle.Close()
	}
}

func TestGraceGroupEngineOracle(t *testing.T) {
	queries := []string{
		"SELECT k, sum(v), count(*), count(v) FROM g GROUP BY k",
		"SELECT k, avg(v), min(f), max(f) FROM g GROUP BY k",
		"SELECT k, sum(f) FROM g WHERE v > -400 GROUP BY k",
		"SELECT k, v, count(*), sum(f) FROM g GROUP BY k, v",
	}
	for _, workers := range []int{1, 2, 4, 8} {
		oracle := newOracleDB(t, workers)
		loadGrouped(t, oracle, "g", 30000, 8000, 7)
		// ~256KB: an ~8000-group table exceeds the grant and re-plans to
		// grace partitioning.
		db, _ := newGovDB(t, 256<<10, workers)
		loadGrouped(t, db, "g", 30000, 8000, 7)
		for _, q := range queries {
			label := fmt.Sprintf("%s (workers=%d)", q, workers)
			before := db.SpillStats().Spills
			got := collect(t)(db.Query(bg, q))
			want := collect(t)(oracle.Query(bg, q))
			diffRows(t, label, got, want, false)
			if db.SpillStats().Spills == before {
				t.Fatalf("%s: budget never forced a spill", label)
			}
			checkNoLeak(t, db, label)
		}
		db.Close()
		oracle.Close()
	}
}

func TestGraceJoinEngineOracle(t *testing.T) {
	queries := []string{
		"SELECT jl.k, jl.v, jr.v FROM jl JOIN jr ON jl.k = jr.k",
		"SELECT jl.v, jr.f FROM jl JOIN jr ON jl.k = jr.k WHERE jl.v > 0",
	}
	for _, workers := range []int{1, 2, 4, 8} {
		oracle := newOracleDB(t, workers)
		db, _ := newGovDB(t, 256<<10, workers)
		for _, d := range []*DB{oracle, db} {
			loadGrouped(t, d, "jl", 20000, 600, 11)
			loadGrouped(t, d, "jr", 6000, 600, 12)
		}
		for _, q := range queries {
			label := fmt.Sprintf("%s (workers=%d)", q, workers)
			before := db.SpillStats().Spills
			got := collect(t)(db.Query(bg, q))
			want := collect(t)(oracle.Query(bg, q))
			diffRows(t, label, got, want, false)
			if db.SpillStats().Spills == before {
				t.Fatalf("%s: budget never forced a spill", label)
			}
			checkNoLeak(t, db, label)
		}
		db.Close()
		oracle.Close()
	}
}

// loadShifted loads n rows (k INT, v INT) whose keys are (i % card)
// shifted left: distinct keys that differ ONLY in their high bits, the
// shape a partitioner reading too few hash bits routes to one partition.
func loadShifted(t *testing.T, db *DB, name string, n, card int, shift uint) {
	t.Helper()
	if _, err := db.Exec(bg, fmt.Sprintf("CREATE TABLE %s (k INT, v INT)", name)); err != nil {
		t.Fatal(err)
	}
	ins := &sqlfe.Insert{Table: name}
	for i := 0; i < n; i++ {
		ins.Rows = append(ins.Rows, []sqlfe.Lit{
			{Kind: sqlfe.TInt, I: int64(i%card) << shift},
			{Kind: sqlfe.TInt, I: int64(i % 97)},
		})
	}
	if _, err := db.sdb.ExecStmt(ins); err != nil {
		t.Fatal(err)
	}
}

// The grace partitioner must spread keys whatever bits they vary in: a
// fan-out that collapses onto one partition leaves that partition's
// table over the budget and fails a query the budget can serve.
func TestGraceRoutingSpreadsHighBitKeys(t *testing.T) {
	queries := []string{
		"SELECT k, sum(v), count(*) FROM g GROUP BY k",
		"SELECT k, v, count(*) FROM g GROUP BY k, v",
		"SELECT g.k, g.v, h.v FROM g JOIN h ON g.k = h.k",
	}
	for _, shift := range []uint{36, 40, 50} {
		oracle := newOracleDB(t, 2)
		db, _ := newGovDB(t, 256<<10, 2)
		for _, d := range []*DB{oracle, db} {
			loadShifted(t, d, "g", 30000, 8000, shift)
			loadShifted(t, d, "h", 12000, 12000, shift)
		}
		for _, q := range queries {
			label := fmt.Sprintf("%s (keys << %d)", q, shift)
			before := db.SpillStats().Spills
			t.Log(label)
			got := collect(t)(db.Query(bg, q))
			want := collect(t)(oracle.Query(bg, q))
			diffRows(t, label, got, want, false)
			if db.SpillStats().Spills == before {
				t.Fatalf("%s: budget never forced a spill", label)
			}
			checkNoLeak(t, db, label)
		}
		db.Close()
		oracle.Close()
	}
}

// Deep join trees degrade per step: when a build table exceeds the
// grant mid-chain, that step grace-partitions both sides to disk and
// the rest of the chain continues serially — including with GROUP BY,
// a global aggregate, aggregate expressions, and canonical ORDER BY over
// the join output.
func TestGraceNWayJoinEngineOracle(t *testing.T) {
	queries := []struct {
		sql     string
		ordered bool
	}{
		{"SELECT jl.v, jm.v, jr.f FROM jl JOIN jm ON jl.k = jm.k JOIN jr ON jm.k = jr.k", false},
		{"SELECT jl.k, count(*), sum(jm.v), sum(jm.v + jl.v) FROM jl JOIN jm ON jl.k = jm.k JOIN jr ON jm.k = jr.k GROUP BY jl.k", false},
		{"SELECT jl.v AS a, jm.v AS b FROM jl JOIN jm ON jl.k = jm.k JOIN jr ON jm.k = jr.k ORDER BY a LIMIT 100", true},
		{"SELECT jl.k AS kk, sum(jr.v) FROM jl JOIN jm ON jl.k = jm.k JOIN jr ON jm.k = jr.k GROUP BY jl.k ORDER BY kk DESC LIMIT 20", true},
		{"SELECT count(*), sum(jm.v), min(jr.f), avg(jr.f) FROM jl JOIN jm ON jl.k = jm.k JOIN jr ON jm.k = jr.k", false},
	}
	for _, workers := range []int{1, 4} {
		oracle := newOracleDB(t, workers)
		db, _ := newGovDB(t, 256<<10, workers)
		for _, d := range []*DB{oracle, db} {
			loadGrouped(t, d, "jl", 12000, 3000, 21)
			loadGrouped(t, d, "jm", 6000, 3000, 22)
			loadGrouped(t, d, "jr", 6000, 3000, 23)
		}
		for _, q := range queries {
			label := fmt.Sprintf("%s (workers=%d)", q.sql, workers)
			before := db.SpillStats().Spills
			got := collect(t)(db.Query(bg, q.sql))
			want := collect(t)(oracle.Query(bg, q.sql))
			diffRows(t, label, got, want, q.ordered)
			if db.SpillStats().Spills == before {
				t.Fatalf("%s: budget never forced a spill", label)
			}
			checkNoLeak(t, db, label)
		}
		db.Close()
		oracle.Close()
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
		rows, err := db.Query(bg, q)
		if err == nil {
			for rows.Next() {
			}
			err = rows.Err()
			rows.Close()
		}
		if !errors.Is(err, ErrOverBudget) {
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
	{
		db, fs := newGovDB(t, 128<<10, 4)
		loadGrouped(t, db, "g", 30000, 8000, 5)
		loadGrouped(t, db, "jl", 20000, 600, 11)
		loadGrouped(t, db, "jr", 6000, 600, 12)
		oracle := newOracleDB(t, 4)
		loadGrouped(t, oracle, "g", 30000, 8000, 5)
		loadGrouped(t, oracle, "jl", 20000, 600, 11)
		loadGrouped(t, oracle, "jr", 6000, 600, 12)

		boom := errors.New("disk gone")
		fs.FailSyncsAfter(0, boom)
		rows, err := db.Query(bg, q)
		if err == nil {
			for rows.Next() {
			}
			err = rows.Err()
			rows.Close()
		}
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
		diffRows(t, q+" (retry)", got, want, strings.Contains(q, "ORDER BY"))
		checkNoLeak(t, db, q+" (retry)")
		db.Close()
		oracle.Close()
	}
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
		// Query forces compilation (Prepare alone is lazy for the cache).
		rows, err := stmt.Query(bg)
		if err != nil {
			t.Fatal(err)
		}
		rows.Close()
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
