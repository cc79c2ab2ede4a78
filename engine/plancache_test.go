package engine

import (
	"context"
	"fmt"
	"testing"
)

// TestPlanCacheCrossConnection is the acceptance check for the shared
// plan cache: a statement prepared on one connection is a compile-free
// cache hit when another connection prepares (and runs) the same SQL.
func TestPlanCacheCrossConnection(t *testing.T) {
	ctx := context.Background()
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(ctx, `CREATE TABLE t (a INT, b INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ctx, `INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)`); err != nil {
		t.Fatal(err)
	}

	c1 := db.Conn()
	defer c1.Close()
	c2 := db.Conn()
	defer c2.Close()

	const q = `SELECT a, b FROM t WHERE a >= ? ORDER BY a`
	run := func(c *Conn) {
		t.Helper()
		st, err := c.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		rows, err := st.Query(ctx, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		if n != 2 {
			t.Fatalf("got %d rows, want 2", n)
		}
	}

	before := db.PlanCacheStats()
	run(c1)
	mid := db.PlanCacheStats()
	if mid.Misses <= before.Misses {
		t.Fatalf("first prepare should miss: before %+v, after %+v", before, mid)
	}
	run(c2)
	after := db.PlanCacheStats()
	if after.Hits <= mid.Hits {
		t.Fatalf("second connection should hit: mid %+v, after %+v", mid, after)
	}
	if after.Misses != mid.Misses {
		t.Fatalf("second connection should not miss: mid %+v, after %+v", mid, after)
	}
}

// TestPlanCacheSchemaChangeInvalidates: a DDL bumps the schema version,
// so the old plan is never served against the new catalog.
func TestPlanCacheSchemaChangeInvalidates(t *testing.T) {
	ctx := context.Background()
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(ctx, `CREATE TABLE t (a INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ctx, `INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	query := func(want int) {
		t.Helper()
		rows, err := db.Query(ctx, `SELECT a FROM t`)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Fatalf("got %d rows, want %d", n, want)
		}
	}
	query(1)
	s1 := db.PlanCacheStats()

	// DROP + recreate under the same name: same SQL text, new schema
	// version. Serving the stale plan would scan freed columns.
	if _, err := db.Exec(ctx, `DROP TABLE t`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ctx, `CREATE TABLE t (a INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ctx, `INSERT INTO t VALUES (1), (2)`); err != nil {
		t.Fatal(err)
	}
	query(2)
	s2 := db.PlanCacheStats()
	if s2.Misses <= s1.Misses {
		t.Fatalf("post-DDL query must recompile (miss): before %+v, after %+v", s1, s2)
	}
}

// TestPlanCacheEviction: the LRU stays within its bound.
func TestPlanCacheEviction(t *testing.T) {
	ctx := context.Background()
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.plans = newPlanCache(2, 8<<20)
	if _, err := db.Exec(ctx, `CREATE TABLE t (a INT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		rows, err := db.Query(ctx, fmt.Sprintf(`SELECT a FROM t WHERE a = %d`, i))
		if err != nil {
			t.Fatal(err)
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s := db.PlanCacheStats()
	if s.Entries > 2 {
		t.Fatalf("cache exceeded its bound: %+v", s)
	}
	if s.Misses < 5 {
		t.Fatalf("5 distinct statements should all miss, got %+v", s)
	}
}
