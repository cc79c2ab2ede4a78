package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// Parallel sessions: readers stream queries while writers insert and
// delete, all over one DB. Run under -race in CI.
func TestConcurrentQueryAndExec(t *testing.T) {
	db, _ := openSized(256, 0, WithWorkers(2))
	defer db.Close()
	loadInts(t, db, "t", 5000)

	const readers, writers, iters = 4, 2, 25
	var wg sync.WaitGroup
	errCh := make(chan error, readers+writers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			conn := db.Conn()
			stmt, err := conn.Prepare("SELECT x, y FROM t WHERE x >= ? AND x < ?")
			if err != nil {
				errCh <- err
				return
			}
			defer stmt.Close()
			for i := 0; i < iters; i++ {
				lo := rng.Int63n(5000)
				rows, err := stmt.Query(bg, lo, lo+100)
				if err != nil {
					errCh <- err
					return
				}
				for rows.Next() {
					var x, y any
					if err := rows.Scan(&x, &y); err != nil {
						errCh <- err
						rows.Close()
						return
					}
					// y == 2x for every surviving row, whatever the
					// writers are doing.
					if x != nil && y.(int64) != 2*x.(int64) {
						errCh <- fmt.Errorf("torn row: x=%v y=%v", x, y)
						rows.Close()
						return
					}
				}
				if err := rows.Err(); err != nil {
					errCh <- err
					return
				}
				rows.Close()
			}
		}(int64(r))
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			conn := db.Conn()
			for i := 0; i < iters; i++ {
				v := 10000 + rng.Int63n(1000)
				if _, err := conn.Exec(bg, "INSERT INTO t VALUES (?, ?, ?)", v, 2*v, float64(v)); err != nil {
					errCh <- err
					return
				}
				if _, err := conn.Exec(bg, "DELETE FROM t WHERE x = ?", v); err != nil {
					errCh <- err
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// Mid-query cancellation on the vectorized path: the cursor reports
// context.Canceled and the pipeline stops without draining the scan.
func TestCancelMidQuery(t *testing.T) {
	db, _ := openSized(512, 128, WithWorkers(2))
	defer db.Close()
	loadInts(t, db, "big", 200000)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := db.Query(ctx, "SELECT x FROM big WHERE x >= ?", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	seen := 0
	for rows.Next() {
		seen++
		if seen == 10 {
			cancel()
		}
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v after %d rows, want context.Canceled", err, seen)
	}
	if seen >= 200000 {
		t.Fatalf("cancellation did not stop the scan (saw all %d rows)", seen)
	}
}

// A deadline that expires before the query starts refuses to run it.
func TestCancelBeforeQuery(t *testing.T) {
	db, _ := Open()
	defer db.Close()
	loadInts(t, db, "t", 100)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, err := db.Query(ctx, "SELECT x FROM t"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

// Property: for random predicates and bindings, a prepared statement
// re-bound per execution returns exactly what the one-shot Exec path
// (placeholders inlined as literals) returns — across both executors,
// since nil-free data runs vectorized and the oracle runs through MAL.
func TestPreparedRebindMatchesOneShotOracle(t *testing.T) {
	db, _ := openSized(128, 0, WithWorkers(2))
	defer db.Close()
	loadInts(t, db, "t", 3000)
	sdb := db.sdb // oracle: the internal one-shot layer

	conn := db.Conn()
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	stmts := map[string]*Stmt{}
	for _, op := range ops {
		s, err := conn.Prepare("SELECT x, y FROM t WHERE x " + op + " ? AND y < ?")
		if err != nil {
			t.Fatal(err)
		}
		stmts[op] = s
	}

	check := func(opIdx uint8, a int16, b int32) bool {
		op := ops[int(opIdx)%len(ops)]
		got := collect(t)(stmts[op].Query(bg, int64(a), int64(b)))
		oracle, err := sdb.Query(fmt.Sprintf(
			"SELECT x, y FROM t WHERE x %s %d AND y < %d", op, a, b))
		if err != nil {
			t.Fatal(err)
		}
		// No ORDER BY: the contract is a multiset (doc.go § Result
		// contract), not MAL's row order.
		return sameMultiset(got, oracle.Rows) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// A frozen session keeps reading one snapshot while writers INSERT,
// UPDATE and DELETE (enough to trip the half-tombstoned vacuum): the
// column prefixes and tombstone list it shares are never written, so a
// vector-routed and a MAL-routed query return their first answer every
// time. Run under -race in CI.
func TestFrozenSnapshotStableUnderWriters(t *testing.T) {
	db, _ := openSized(256, 64, WithWorkers(2))
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (x INT, y INT, s TEXT)")
	for i := 0; i < 2000; i += 500 {
		ins := "INSERT INTO t VALUES "
		for x := i; x < i+500; x++ {
			if x > i {
				ins += ", "
			}
			ins += fmt.Sprintf("(%d, %d, 's%d')", x, 2*x, x%7)
		}
		mustExec(t, db, ins)
	}
	mustExec(t, db, "DELETE FROM t WHERE x < 100")
	frozen := db.Conn()
	frozen.Freeze()
	queries := []struct {
		q      string
		vector bool
	}{
		{"SELECT x, y FROM t WHERE x >= 50 AND x < 1500", true},
		{"SELECT s, count(*), sum(y) FROM t GROUP BY s", false},
	}
	first := make([][][]any, len(queries))
	for i, c := range queries {
		plan, err := frozen.Plan(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if vec := strings.HasPrefix(plan, "vectorized pipeline"); vec != c.vector {
			t.Fatalf("%s: vectorized=%v, want %v:\n%s", c.q, vec, c.vector, plan)
		}
		first[i] = collect(t)(frozen.Query(bg, c.q))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn := db.Conn()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := int64(10000 + 1000*w + i%1000)
				for _, st := range []struct {
					sql  string
					args []any
				}{
					{"INSERT INTO t VALUES (?, ?, 'w')", []any{v, v}},
					{"UPDATE t SET y = ? WHERE x = ?", []any{-v, v}},
					{"DELETE FROM t WHERE x = ?", []any{v}},
					{"DELETE FROM t WHERE x = ?", []any{int64(100 + (i+w*7)%1900)}},
				} {
					if _, err := conn.Exec(bg, st.sql, st.args...); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	// Read until the writers have tripped the half-tombstoned vacuum at
	// least once (it builds the zone maps this insert-only table lacked).
	vacuumed := func() bool {
		tbl, err := db.sdb.Snapshot().Table("t")
		return err == nil && tbl.ZonedRows() > 0
	}
	for round := 0; round < 20 || (!vacuumed() && len(errCh) == 0); round++ {
		for i, c := range queries {
			if err := sameMultiset(collect(t)(frozen.Query(bg, c.q)), first[i]); err != nil {
				close(stop)
				wg.Wait()
				t.Fatalf("round %d, %s: frozen answer moved: %v", round, c.q, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
