package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/client"
	"repro/engine"
)

// budgetSide runs statements against a budgeted database one way:
// straight through the engine, or over the wire.
type budgetSide struct {
	query      func(sql string) ([][]any, error) // drains the result
	exec       func(sql string) (int64, error)
	overBudget error // the sentinel a refusal matches on this side
}

// cursor is what engine.Rows and client.Rows have in common.
type cursor interface {
	Columns() []string
	Next() bool
	Scan(dest ...any) error
	Err() error
	Close() error
}

// drain reads every row of a cursor opened by (rows, err), returning the
// first error from opening, scanning, iterating or closing.
func drain[C cursor](rows C, err error) ([][]any, error) {
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	vals := make([]any, len(rows.Columns()))
	ptrs := make([]any, len(vals))
	for i := range vals {
		ptrs[i] = &vals[i]
	}
	var out [][]any
	for rows.Next() {
		if err := rows.Scan(ptrs...); err != nil {
			return nil, err
		}
		out = append(out, append([]any(nil), vals...))
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return out, rows.Close()
}

func embeddedSide(db *engine.DB) budgetSide {
	ctx := context.Background()
	return budgetSide{
		query: func(sql string) ([][]any, error) { return drain(db.Query(ctx, sql)) },
		exec: func(sql string) (int64, error) {
			res, err := db.Exec(ctx, sql)
			return res.RowsAffected, err
		},
		overBudget: engine.ErrOverBudget,
	}
}

func servedSide(c *client.Client) budgetSide {
	ctx := context.Background()
	return budgetSide{
		query:      func(sql string) ([][]any, error) { return drain(c.Query(ctx, sql)) },
		exec:       func(sql string) (int64, error) { return c.Exec(ctx, sql) },
		overBudget: client.ErrBudget,
	}
}

// seedBudgetTable loads big(a INT, s TEXT) with n rows: a is a
// permutation of 0..n-1 (n a power of two) so ORDER BY has real work,
// s one of 16 group labels.
func seedBudgetTable(t *testing.T, db *engine.DB, n int) {
	t.Helper()
	ctx := context.Background()
	if _, err := db.Exec(ctx, `CREATE TABLE big (a INT, s TEXT)`); err != nil {
		t.Fatal(err)
	}
	const chunk = 4096
	for base := 0; base < n; base += chunk {
		var sb strings.Builder
		sb.WriteString(`INSERT INTO big VALUES `)
		for i := base; i < base+chunk && i < n; i++ {
			if i > base {
				sb.WriteString(", ")
			}
			a := i * 7919 % n
			fmt.Fprintf(&sb, "(%d, 'g%d')", a, a%16)
		}
		if _, err := db.Exec(ctx, sb.String()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMemBudgetRejection: the engine is the one owner of the per-query
// memory budget, so a statement is governed the same embedded and
// served. Under a 1 MiB budget over a table storing ~2 MB: a vectorized
// point read and a DELETE run (neither materializes the table); a full
// ORDER BY outgrows the budget and fails without a spill directory but
// completes sorted with one; a MAL-routed GROUP BY on the TEXT column,
// which cannot spill, is refused up front without a spill directory and
// runs with one. Served, every refusal — whether it arrives at Query or
// while the result drains — counts in the Stats frame's RejectedMem.
func TestMemBudgetRejection(t *testing.T) {
	const (
		budget = 1 << 20
		n      = 1 << 17 // a: 1 MiB of INT; s: 4-byte offsets + heap
		groups = 16
	)
	type outcome int
	const (
		runs outcome = iota
		refusedUnlessSpill
	)
	cases := []struct {
		name  string
		sql   string
		dml   bool
		plan  string // Conn.Plan prefix the case relies on; "" = not checked
		want  outcome
		check func(t *testing.T, rows [][]any, affected int64)
	}{
		{"point read", `SELECT a FROM big WHERE a = 7`, false, "vectorized pipeline", runs,
			func(t *testing.T, rows [][]any, _ int64) {
				if len(rows) != 1 || rows[0][0] != int64(7) {
					t.Fatalf("point read returned %v, want [[7]]", rows)
				}
			}},
		{"delete", `DELETE FROM big WHERE a = 0`, true, "", runs,
			func(t *testing.T, _ [][]any, affected int64) {
				if affected != 1 {
					t.Fatalf("DELETE affected %d rows, want 1", affected)
				}
			}},
		{"full sort", `SELECT a FROM big ORDER BY a`, false, "", refusedUnlessSpill,
			func(t *testing.T, rows [][]any, _ int64) {
				if len(rows) != n-1 {
					t.Fatalf("sort returned %d rows, want %d", len(rows), n-1)
				}
				for i, r := range rows {
					if r[0] != int64(i+1) {
						t.Fatalf("row %d = %v, want %d", i, r[0], i+1)
					}
				}
			}},
		{"MAL group by TEXT", `SELECT s, count(*) AS c FROM big GROUP BY s`, false, "MAL program", refusedUnlessSpill,
			func(t *testing.T, rows [][]any, _ int64) {
				total := int64(0)
				for _, r := range rows {
					total += r[1].(int64)
				}
				if len(rows) != groups || total != n-1 {
					t.Fatalf("group by returned %d groups over %d rows, want %d over %d", len(rows), total, groups, n-1)
				}
			}},
	}

	for _, served := range []bool{false, true} {
		for _, spill := range []bool{false, true} {
			for _, workers := range []int{1, 2, 4} {
				mode := "embedded"
				if served {
					mode = "served"
				}
				t.Run(fmt.Sprintf("%s/spill=%v/workers=%d", mode, spill, workers), func(t *testing.T) {
					opts := []engine.Option{engine.WithWorkers(workers), engine.WithMemBudget(budget)}
					if spill {
						opts = append(opts, engine.WithSpill(t.TempDir()))
					}
					var db *engine.DB
					var side budgetSide
					var c *client.Client
					if served {
						var addr string
						addr, _, db, _ = startServerWith(t, opts, nil)
						c = dial(t, addr)
						side = servedSide(c)
					} else {
						var err error
						if db, err = engine.Open(opts...); err != nil {
							t.Fatal(err)
						}
						defer db.Close()
						side = embeddedSide(db)
					}
					seedBudgetTable(t, db, n)

					refusals := uint64(0)
					for _, tc := range cases {
						if tc.plan != "" {
							p, err := db.Conn().Plan(tc.sql)
							if err != nil || !strings.HasPrefix(p, tc.plan) {
								t.Fatalf("%s: plan %q (err %v), want prefix %q", tc.name, p, err, tc.plan)
							}
						}
						var rows [][]any
						var affected int64
						var err error
						if tc.dml {
							affected, err = side.exec(tc.sql)
						} else {
							rows, err = side.query(tc.sql)
						}
						if tc.want == refusedUnlessSpill && !spill {
							if !errors.Is(err, side.overBudget) {
								t.Fatalf("%s: err = %v, want %v", tc.name, err, side.overBudget)
							}
							refusals++
							continue
						}
						if err != nil {
							t.Fatalf("%s: %v", tc.name, err)
						}
						tc.check(t, rows, affected)
					}
					if err := db.Err(); err != nil {
						t.Fatalf("a refused query must not fail the database: %v", err)
					}
					if spill && db.SpillStats().Spills == 0 {
						t.Fatal("the over-budget sort completed without spilling")
					}
					if !served {
						return
					}
					st, err := c.Stats()
					if err != nil {
						t.Fatal(err)
					}
					if st.RejectedMem != refusals {
						t.Fatalf("RejectedMem = %d, want %d refusals", st.RejectedMem, refusals)
					}
					if spill && (st.Spills == 0 || st.SpillBytes == 0) {
						t.Fatalf("stats frame shows no spill activity: %+v", st)
					}
					if st.SpillLive != 0 {
						t.Fatalf("%d spill files leaked past query end", st.SpillLive)
					}
					if st.PlanBytes == 0 {
						t.Fatal("stats frame shows an empty plan cache after queries ran")
					}
				})
			}
		}
	}
}

// TestMemPolicySpill: served, the same over-budget ORDER BY that a
// budget alone refuses completes sorted once the engine has a spill
// directory, counts no refusal, and leaves its spill activity in the
// Stats frame.
func TestMemPolicySpill(t *testing.T) {
	const (
		budget = 128 << 10
		n      = 1 << 15 // 256 KiB of INT to sort, well past the budget
	)
	ctx := context.Background()
	sortSQL := `SELECT a FROM big ORDER BY a`

	addr, srv, db, _ := startServerWith(t,
		[]engine.Option{engine.WithMemBudget(budget), engine.WithSpill(t.TempDir())}, nil)
	seedBudgetTable(t, db, n)
	c := dial(t, addr)
	rows, err := drain(c.Query(ctx, sortSQL))
	if err != nil {
		t.Fatalf("spilling sort: %v", err)
	}
	if len(rows) != n {
		t.Fatalf("spilled sort returned %d rows, want %d", len(rows), n)
	}
	for i, r := range rows {
		if r[0] != int64(i) {
			t.Fatalf("row %d = %v, want %d", i, r[0], i)
		}
	}
	if got := srv.rejectedMem.Load(); got != 0 {
		t.Fatalf("a spilled sort counted %d refusals", got)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Spills == 0 || st.SpillBytes == 0 {
		t.Fatalf("stats frame shows no spill activity: %+v", st)
	}
	if st.SpillLive != 0 {
		t.Fatalf("%d spill files leaked past query end", st.SpillLive)
	}
	if st.PlanBytes == 0 {
		t.Fatal("stats frame shows an empty plan cache after queries ran")
	}

	// The identical workload with nowhere to spill is refused.
	addrR, srvR, dbR, _ := startServerWith(t, []engine.Option{engine.WithMemBudget(budget)}, nil)
	seedBudgetTable(t, dbR, n)
	if _, err := drain(dial(t, addrR).Query(ctx, sortSQL)); !errors.Is(err, client.ErrBudget) {
		t.Fatalf("budget without spill: err = %v, want ErrBudget", err)
	}
	if srvR.rejectedMem.Load() == 0 {
		t.Fatal("the refused sort did not count in rejectedMem")
	}
}

// TestSpillPolicyWithoutSpillDir: served, a budget with no spill
// directory refuses the over-budget sort with a typed ErrBudget — the
// grant is denied while the lazy pipeline drains — counts it once in
// rejectedMem, and leaves the session serving.
func TestSpillPolicyWithoutSpillDir(t *testing.T) {
	const budget = 128 << 10
	ctx := context.Background()
	addr, srv, db, _ := startServerWith(t,
		[]engine.Option{engine.WithMemBudget(budget)}, // budget but nowhere to spill
		nil)
	seedBudgetTable(t, db, 1<<15)
	c := dial(t, addr)

	if _, err := drain(c.Query(ctx, `SELECT a FROM big ORDER BY a`)); !errors.Is(err, client.ErrBudget) {
		t.Fatalf("runtime over-budget err = %v, want ErrBudget", err)
	}
	if got := srv.rejectedMem.Load(); got != 1 {
		t.Fatalf("rejectedMem = %d, want 1", got)
	}
	rows, err := drain(c.Query(ctx, `SELECT count(*) AS n FROM big`))
	if err != nil {
		t.Fatalf("follow-up query: %v", err)
	}
	if len(rows) != 1 || rows[0][0] != int64(1<<15) {
		t.Fatalf("follow-up count = %v, want [[%d]]", rows, 1<<15)
	}
}
