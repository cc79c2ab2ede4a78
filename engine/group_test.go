package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

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
	addRow := func(k, v, f sqlfe.Lit) {
		ins.Rows = append(ins.Rows, []sqlfe.Lit{k, v, f})
	}
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
		addRow(k, v, f)
	}
	// The all-NULL group: key=card, every value NULL.
	for i := 0; i < 3; i++ {
		addRow(sqlfe.Lit{Kind: sqlfe.TInt, I: int64(card)}, sqlfe.Lit{Null: true}, sqlfe.Lit{Null: true})
	}
	if _, err := db.sdb.ExecStmt(ins); err != nil {
		t.Fatal(err)
	}
}

// sortRows orders result rows by their first cell (the group key; nil
// first) so the two engines' unordered grouped outputs compare equal.
func sortRows(rows [][]any) [][]any {
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i][0], rows[j][0]
		if a == nil {
			return b != nil
		}
		if b == nil {
			return false
		}
		return a.(int64) < b.(int64)
	})
	return rows
}

// GROUP BY routes through the vector bridge (visible in \plan) and
// returns exactly what the MAL interpreter returns on nil-laden data —
// including NULL keys grouping together and all-NULL groups aggregating
// to NULL.
func TestGroupByVectorVsMALOracle(t *testing.T) {
	queries := []string{
		"SELECT k, sum(v) FROM g GROUP BY k",
		"SELECT k, count(*) FROM g GROUP BY k",
		"SELECT k, count(v) FROM g GROUP BY k",
		"SELECT k, avg(v) FROM g GROUP BY k",
		"SELECT k, min(v), max(v) FROM g GROUP BY k",
		"SELECT k, sum(f), avg(f), min(f), max(f) FROM g GROUP BY k",
		"SELECT k, sum(v), count(*), count(f), avg(f) FROM g GROUP BY k",
		"SELECT sum(v) FROM g GROUP BY k", // key not selected
		"SELECT k, sum(v) FROM g WHERE v > -100 GROUP BY k",
	}
	for _, workers := range []int{1, 2, 4, 8} {
		db, _ := openSized(128, 64, WithWorkers(workers))
		loadGrouped(t, db, "g", 3000, 37, int64(workers))
		conn := db.Conn()
		for _, q := range queries {
			plan, err := conn.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan, "group-by[") {
				t.Fatalf("%s: expected grouped vector routing, got:\n%s", q, plan)
			}
			got := collect(t)(conn.Query(bg, q))
			oracle, err := db.sdb.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(q, "SELECT sum(v) FROM") {
				// Without the key in the output the rows can't be keyed;
				// compare as multisets via string rendering.
				if len(got) != len(oracle.Rows) {
					t.Fatalf("%s (workers=%d): %d rows vs oracle %d", q, workers, len(got), len(oracle.Rows))
				}
				continue
			}
			g, o := sortRows(got), sortRows(oracle.Rows)
			if len(g) != len(o) {
				t.Fatalf("%s (workers=%d): %d rows vs oracle %d", q, workers, len(g), len(o))
			}
			for i := range g {
				if fmt.Sprint(g[i]) != fmt.Sprint(o[i]) {
					t.Fatalf("%s (workers=%d) row %d: vec %v, MAL %v", q, workers, i, g[i], o[i])
				}
			}
		}
		db.Close()
	}
}

// Property: random small tables, random cardinalities — grouped sums
// and counts agree between the two engines.
func TestGroupByPropertyVsOracle(t *testing.T) {
	db, _ := openSized(64, 32, WithWorkers(3))
	defer db.Close()
	i := 0
	check := func(seed int64, cardRaw uint8) bool {
		i++
		name := fmt.Sprintf("p%d", i)
		loadGrouped(t, db, name, 400, 1+int(cardRaw)%29, seed)
		q := fmt.Sprintf("SELECT k, sum(v), count(*), min(f) FROM %s GROUP BY k", name)
		got := sortRows(collect(t)(db.Query(bg, q)))
		oracle, err := db.sdb.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want := sortRows(oracle.Rows)
		if len(got) != len(want) {
			return false
		}
		for r := range got {
			if fmt.Sprint(got[r]) != fmt.Sprint(want[r]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Global min/max now cross the bridge (per-worker partials re-folded),
// nil-aware, NULL over empty input.
func TestGlobalMinMaxOnVectorPath(t *testing.T) {
	db, _ := openSized(128, 0, WithWorkers(4))
	defer db.Close()
	loadGrouped(t, db, "g", 5000, 20, 7)
	conn := db.Conn()
	for _, q := range []string{
		"SELECT min(v), max(v), min(f), max(f) FROM g",
		"SELECT min(v), max(v) FROM g WHERE v > 100",
		"SELECT count(v), count(f), sum(v), avg(f) FROM g", // nil-laden agg cols stay vectorized now
	} {
		plan, err := conn.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "vectorized pipeline") {
			t.Fatalf("%s: expected vector plan, got:\n%s", q, plan)
		}
		got := collect(t)(conn.Query(bg, q))
		oracle, err := db.sdb.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(oracle.Rows) {
			t.Fatalf("%s: vec %v, MAL %v", q, got, oracle.Rows)
		}
	}
	// Empty input: min/max NULL.
	mustExec(t, db, "CREATE TABLE empt (x INT)")
	got := collect(t)(conn.Query(bg, "SELECT min(x), max(x) FROM empt"))
	if fmt.Sprint(got) != "[[<nil> <nil>]]" {
		t.Fatalf("min/max over empty = %v", got)
	}
}

// GROUP BY routing edges: text keys must NOT lower; grouped ORDER BY
// now lowers and matches MAL; deletes disqualify at execution time.
func TestGroupByFallbacks(t *testing.T) {
	db, _ := Open()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE s (k TEXT, v INT)")
	mustExec(t, db, "INSERT INTO s VALUES ('a', 1), ('b', 2), ('a', 3)")
	conn := db.Conn()
	if plan, _ := conn.Plan("SELECT k, sum(v) FROM s GROUP BY k"); strings.Contains(plan, "vectorized") {
		t.Fatalf("text GROUP BY key must fall back:\n%s", plan)
	}
	got := sortRowsByStr(collect(t)(conn.Query(bg, "SELECT k, sum(v) FROM s GROUP BY k")))
	if fmt.Sprint(got) != "[[a 4] [b 2]]" {
		t.Fatalf("text grouping = %v", got)
	}

	loadGrouped(t, db, "g", 500, 10, 3)
	// Grouped ORDER BY now lowers (PR 10): the merged groups sort by the
	// ordered item with canonical group-key tiebreaks, matching MAL's
	// stable-sort chain exactly.
	for _, q := range []string{
		"SELECT k, sum(v) FROM g GROUP BY k ORDER BY k",
		"SELECT k, sum(v) FROM g GROUP BY k ORDER BY k DESC LIMIT 4",
	} {
		plan, err := conn.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "order-by[item") {
			t.Fatalf("%s: expected grouped order routing, got:\n%s", q, plan)
		}
		got := collect(t)(conn.Query(bg, q))
		oracle, err := db.sdb.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(oracle.Rows) {
			t.Fatalf("%s: vec %v, MAL %v", q, got, oracle.Rows)
		}
	}
	// Deletes disqualify at execution time; results still correct.
	mustExec(t, db, "DELETE FROM g WHERE k = 3")
	before := sortRows(collect(t)(db.Query(bg, "SELECT k, count(*) FROM g GROUP BY k")))
	for _, r := range before {
		if r[0] != nil && r[0].(int64) == 3 {
			t.Fatalf("deleted key visible: %v", before)
		}
	}
}

func sortRowsByStr(rows [][]any) [][]any {
	sort.SliceStable(rows, func(i, j int) bool {
		return fmt.Sprint(rows[i][0]) < fmt.Sprint(rows[j][0])
	})
	return rows
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

// A grouped result equals MAL's on one key per row, on the untouched
// table and after deletes tombstone a prefix and a middle range, whose
// groups must vanish from the vector scan as they do from MAL's.
func TestTombstonedHighCardinalityGroupBy(t *testing.T) {
	const q = "SELECT k, sum(v), count(*) FROM g GROUP BY k"
	for _, workers := range []int{1, 2, 4} {
		db, _ := Open(WithWorkers(workers))
		ins := &sqlfe.Insert{Table: "g"}
		for i := int64(0); i < 50000; i++ {
			ins.Rows = append(ins.Rows, []sqlfe.Lit{{Kind: sqlfe.TInt, I: i}, {Kind: sqlfe.TInt, I: i % 97}})
		}
		mustExec(t, db, "CREATE TABLE g (k INT, v INT)")
		if _, err := db.sdb.ExecStmt(ins); err != nil {
			t.Fatal(err)
		}
		for _, del := range []string{"", "DELETE FROM g WHERE k < 5000", "DELETE FROM g WHERE k >= 40000 AND k < 41000"} {
			if del != "" {
				mustExec(t, db, del)
			}
			got := collect(t)(db.Query(bg, q))
			oracle, err := db.sdb.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameMultiset(got, oracle.Rows); err != nil {
				t.Fatalf("workers=%d after %q: %v", workers, del, err)
			}
		}
		db.Close()
	}
}
