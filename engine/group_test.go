package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sqlfe"
)

// loadGrouped bulk-loads n rows with a group key in [0,card) (NULL every
// 11th row), a nil-laden INT value, and a nil-laden FLOAT value. One
// extra key (card) carries ONLY NULL values, so its groups must
// aggregate to NULL.
func loadGrouped(t testing.TB, db *DB, name string, n, card int, seed int64) {
	t.Helper()
	if _, err := db.Exec(bg, fmt.Sprintf("CREATE TABLE %s (k INT, v INT, f FLOAT)", name)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	ins := &sqlfe.Insert{Table: name}
	for i := 0; i < n; i++ {
		k := sqlfe.Lit{Kind: sqlfe.TInt, I: rng.Int63n(int64(card))}
		if i%11 == 10 {
			k = sqlfe.Lit{Null: true} // NULL group key
		}
		v := sqlfe.Lit{Kind: sqlfe.TInt, I: rng.Int63n(1000) - 500}
		if rng.Intn(4) == 0 {
			v = sqlfe.Lit{Null: true}
		}
		f := sqlfe.Lit{Kind: sqlfe.TFloat, F: float64(rng.Int63n(1000)) / 8}
		if rng.Intn(4) == 0 {
			f = sqlfe.Lit{Null: true}
		}
		ins.Rows = append(ins.Rows, []sqlfe.Lit{k, v, f})
	}
	// The all-NULL group: key=card, every value NULL.
	for i := 0; i < 3; i++ {
		ins.Rows = append(ins.Rows, []sqlfe.Lit{{Kind: sqlfe.TInt, I: int64(card)}, {Null: true}, {Null: true}})
	}
	if _, err := db.sdb.ExecStmt(ins); err != nil {
		t.Fatal(err)
	}
}

// GROUP BY routing edges: a TEXT key falls back to MAL; a grouped ORDER
// BY lowers onto the vector path. The differential driver
// (diff_test.go) holds both routes' rows to its reference.
func TestGroupByFallbacks(t *testing.T) {
	db, _ := Open()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE s (k TEXT, v INT)")
	mustExec(t, db, "CREATE TABLE g (k INT, v INT)")
	conn := db.Conn()
	for _, tc := range []struct{ q, marker string }{
		{"SELECT k, sum(v) FROM s GROUP BY k", "reason=group-key-not-int"},
		{"SELECT k, sum(v) FROM g GROUP BY k ORDER BY k", "order-by[item 0]"},
		{"SELECT k, sum(v) FROM g GROUP BY k ORDER BY k DESC LIMIT 4", "order-by[item 0 desc]"},
	} {
		plan, err := conn.Plan(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, tc.marker) {
			t.Fatalf("%s: expected %q in:\n%s", tc.q, tc.marker, plan)
		}
	}
}

// Mid-query cancellation on the grouped bridge path: the canceled
// cursor stops handing out morsels, the workers wind down, and the
// grouped pipeline reports context.Canceled instead of a partial
// result. White-box: Query's own up-front ctx check is bypassed so the
// cancellation is observed INSIDE the grouped pipeline. Runs under
// -race in CI.
func TestGroupedCancelInsidePipeline(t *testing.T) {
	db, _ := openSized(256, 64, WithWorkers(4))
	defer db.Close()
	loadGrouped(t, db, "big", 100000, 1000, 1)
	conn := db.Conn()
	stmt, err := conn.Prepare("SELECT k, sum(v), min(f) FROM big GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	snap := conn.snapshot()
	e, err := stmt.currentPlan(snap)
	if err != nil {
		t.Fatal(err)
	}
	phys := e.phys
	if phys == nil || !strings.Contains(phys.Describe(), "group-by[") {
		t.Fatal("statement did not lower onto the grouped physical plan")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, fb, err := phys.Execute(ctx, snap, nil, db.physOpts())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("execute under canceled ctx: fb=%v err=%v, want context.Canceled", fb, err)
	}
}
