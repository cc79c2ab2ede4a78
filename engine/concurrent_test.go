package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
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
				rows, err := Drain(stmt.Query(bg, lo, lo+100))
				if err != nil {
					errCh <- err
					return
				}
				// y == 2x for every surviving row, whatever the writers
				// are doing.
				for _, r := range rows {
					if r[0] != nil && r[1].(int64) != 2*r[0].(int64) {
						errCh <- fmt.Errorf("torn row: x=%v y=%v", r[0], r[1])
						return
					}
				}
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
			if err := Unordered.Check(collect(t)(frozen.Query(bg, c.q)), first[i]); err != nil {
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
