package engine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sqlfe"
)

// loadInlineTable loads t(k INT, a INT, b INT) of n rows into db: k is
// the row index, a repeats every 7 rows (ties for ORDER BY a), b has
// nils.
func loadInlineTable(t *testing.T, db *DB, n int) {
	t.Helper()
	if _, err := db.Exec(bg, "CREATE TABLE t (k INT, a INT, b INT)"); err != nil {
		t.Fatal(err)
	}
	ins := &sqlfe.Insert{Table: "t"}
	for i := 0; i < n; i++ {
		b := sqlfe.Lit{Kind: sqlfe.TInt, I: int64(i % 31)}
		if i%11 == 0 {
			b = sqlfe.Lit{Null: true}
		}
		ins.Rows = append(ins.Rows, []sqlfe.Lit{{Kind: sqlfe.TInt, I: int64(i)}, {Kind: sqlfe.TInt, I: int64(i % 7)}, b})
	}
	if _, err := db.sdb.ExecStmt(ins); err != nil {
		t.Fatal(err)
	}
}

// TestInlineMatchesExchange runs the same statements over one 4096-row
// table three ways: as one morsel, which streams inline on the caller's
// goroutine; as many small morsels on four workers, through an
// Exchange; and as many morsels on one worker, inline again. Results,
// the order an ORDER BY leaves its ties in (row order), and what a
// canceled context does must not depend on which.
func TestInlineMatchesExchange(t *testing.T) {
	const n = 4096
	one, err := Open(WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	many, err := openSized(512, 128, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer many.Close()
	serial, err := openSized(512, 128, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	dbs := []struct {
		name   string
		db     *DB
		inline bool
	}{{"one morsel", one, true}, {"many morsels", many, false}, {"one worker", serial, true}}
	for _, d := range dbs {
		loadInlineTable(t, d.db, n)
	}

	stmts := []struct {
		sql     string
		ordered bool // compare the row sequence, ties included
	}{
		{"SELECT k, a, b FROM t WHERE b >= 20", false},
		{"SELECT k, b FROM t WHERE k >= 100 AND k < 3000 AND a = 3", false},
		{"SELECT count(*), sum(b), min(b), max(k) FROM t WHERE a <> 2", false},
		{"SELECT a, count(*), sum(b) FROM t WHERE k < 4000 GROUP BY a", false},
		{"SELECT k, a FROM t WHERE b < 5 ORDER BY a", true},
		{"SELECT k, a FROM t ORDER BY a DESC LIMIT 50", true},
		{"SELECT k, b FROM t WHERE k > 10 ORDER BY b LIMIT 300", true},
		{"SELECT a, sum(b) AS s FROM t GROUP BY a ORDER BY s DESC LIMIT 3", true},
	}
	for _, st := range stmts {
		var want [][]any
		for i, d := range dbs {
			plan, err := d.db.Conn().Plan(st.sql)
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Contains(plan, ", inline"); got != d.inline {
				t.Errorf("%s, %s: inline %v, want %v:\n%s", d.name, st.sql, got, d.inline, plan)
			}
			got := collect(t)(d.db.Conn().Query(bg, st.sql))
			if i == 0 {
				want = got
				if len(want) == 0 {
					t.Fatalf("%s: no rows", st.sql)
				}
				continue
			}
			if st.ordered {
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s, %s: rows in another order than %s:\n got %v\nwant %v", d.name, st.sql, dbs[0].name, got, want)
				}
			} else if err := Unordered.Check(got, want); err != nil {
				t.Errorf("%s, %s: %v", d.name, st.sql, err)
			}
		}
	}

	// Cancellation: a context canceled before the query, and one canceled
	// after its first row, end every way of running it with the
	// context's error, never with a short result.
	for _, sql := range []string{
		"SELECT k, a FROM t WHERE b >= 0",
		"SELECT a, count(*) FROM t GROUP BY a",
		"SELECT k FROM t ORDER BY a",
	} {
		for _, d := range dbs {
			ctx, cancel := context.WithCancel(bg)
			cancel()
			if _, err := Drain(d.db.Conn().Query(ctx, sql)); !errors.Is(err, context.Canceled) {
				t.Errorf("%s, %s, canceled before: %v, want context.Canceled", d.name, sql, err)
			}
			ctx, cancel = context.WithCancel(bg)
			rows, err := d.db.Conn().Query(ctx, sql)
			if err != nil {
				t.Fatal(err)
			}
			read := 0
			for rows.Next() {
				if read++; read == 1 {
					cancel()
				}
			}
			err = rows.Err()
			rows.Close()
			cancel()
			if read == 0 || !errors.Is(err, context.Canceled) {
				t.Errorf("%s, %s, canceled after the first row: read %d rows, err %v; want context.Canceled", d.name, sql, read, err)
			}
		}
	}
}
