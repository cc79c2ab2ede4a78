package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/radix"
	"repro/internal/sqlfe"
)

// A join step whose build carries no column, over unique keys with an
// exact bitmap filter, is a semi-join the filter has already answered:
// \plan marks it semi, and every statement returns MAL's rows. A
// duplicated key, a range filter or a column read above keeps the step
// probed; a NULL build key, an empty build and a snowflake arm whose
// sub-dimension contributes no column do not.
func TestSemiJoinStepsMatchMAL(t *testing.T) {
	mal := sqlfe.NewDB()
	var stmts []string
	add := func(table string, rows []string) {
		stmts = append(stmts, fmt.Sprintf("INSERT INTO %s VALUES %s", table, strings.Join(rows, ", ")))
	}
	stmts = append(stmts, "CREATE TABLE f (a INT, b INT, v INT)", "CREATE TABLE du (k INT, p INT)",
		"CREATE TABLE dd (k INT, p INT)", "CREATE TABLE dn (k INT, p INT)", "CREATE TABLE d1 (k INT, r INT, y INT)",
		"CREATE TABLE rg (k INT, p INT)", "CREATE TABLE de (k INT, p INT)")
	var fact, uniq, dup, nul, d1, rg []string
	for i := 0; i < 3000; i++ {
		a := fmt.Sprint(i % 70) // 60..69 match no dimension
		if i%50 == 0 {
			a = "NULL"
		}
		fact = append(fact, fmt.Sprintf("(%s, %d, %d)", a, i%13, i%100))
	}
	for k := 0; k < 60; k++ {
		row := fmt.Sprintf("(%d, %d)", k, k%10)
		uniq, dup, nul = append(uniq, row), append(dup, row), append(nul, row)
		d1 = append(d1, fmt.Sprintf("(%d, %d, %d)", k, k%20, 2*k))
	}
	dup = append(dup, "(7, 7)")
	nul = append(nul, "(NULL, 1)", "(NULL, 2)")
	for k := 0; k < 20; k++ {
		rg = append(rg, fmt.Sprintf("(%d, %d)", k, k%10))
	}
	add("f", fact)
	add("du", uniq)
	add("dd", dup)
	add("dn", nul)
	add("d1", d1)
	add("rg", rg)
	for _, s := range stmts {
		if _, err := mal.Exec(s); err != nil {
			t.Fatalf("MAL: %.60s: %v", s, err)
		}
	}
	open := func(opts ...Option) *DB {
		db, err := openSized(512, 64, append(opts, WithWorkers(2))...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		for _, s := range stmts {
			mustExec(t, db, s)
		}
		return db
	}
	db := open()
	// A budget that holds du's keys, its payload and its table, but not
	// the bitmap a probed step charges after its table; a semi step
	// charges only keys and bitmap.
	const n = 60
	budgeted := open(WithMemBudget(int64(16*n + radix.TableBytes(n) + 4)))

	// check runs q on db and on MAL, and holds \plan's steps to semi
	// (built tables whose step is marked semi) and probed (the others),
	// with the filter kind each probed step's line names. It returns the
	// rows and the join lines by build.
	check := func(db *DB, q string, semi []string, probed map[string]string) ([][]any, map[string]string) {
		t.Helper()
		want, err := mal.Query(q)
		if err != nil {
			t.Fatalf("%s on MAL: %v", q, err)
		}
		got := collect(t)(db.Query(bg, q))
		if err := Unordered.Check(got, want.Rows); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		plan, err := db.Conn().Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		lines := map[string]string{}
		for _, line := range strings.Split(plan, "\n") {
			if f := strings.Fields(line); len(f) > 3 && f[0] == "join" && f[2] == "build" {
				lines[f[3]] = line
			}
		}
		if len(lines) != len(semi)+len(probed) {
			t.Fatalf("%s: %d join steps, want %d\n%s", q, len(lines), len(semi)+len(probed), plan)
		}
		for _, b := range semi {
			if l := lines[b]; !strings.Contains(l, ", bitmap filter on ") || !strings.Contains(l, "[semi: answered by its bitmap filter]") {
				t.Fatalf("%s: step building %s is not semi\n%s", q, b, plan)
			}
		}
		for b, kind := range probed {
			if l := lines[b]; strings.Contains(l, "[semi") || !strings.Contains(l, ", "+kind+" filter on ") {
				t.Fatalf("%s: step building %s is not probed with a %s filter\n%s", q, b, kind, plan)
			}
		}
		return got, lines
	}
	count := func(rows [][]any) int64 { return rows[0][0].(int64) }

	unique, _ := check(db, "SELECT count(*), sum(f.v) FROM f JOIN du ON f.a = du.k WHERE du.p < 8", []string{"du"}, nil)
	doubled, _ := check(db, "SELECT count(*), sum(f.v) FROM f JOIN dd ON f.a = dd.k WHERE dd.p < 8", nil, map[string]string{"dd": "bitmap"})
	sevens, _ := check(db, "SELECT count(*) FROM f WHERE f.a = 7", nil, nil)
	if count(doubled)-count(unique) != count(sevens) || count(sevens) == 0 {
		t.Fatalf("the duplicated key yields %d rows, the unique one %d: want %d more", count(doubled), count(unique), count(sevens))
	}
	check(db, "SELECT count(*), sum(f.v) FROM f JOIN dn ON f.a = dn.k", []string{"dn"}, nil)
	check(db, "SELECT f.v, f.b FROM f JOIN du ON f.a = du.k JOIN dd ON f.b = dd.k", []string{"du"}, map[string]string{"dd": "bitmap"})
	// The snowflake arm: rg contributes no column, so its filter on d1
	// answers its step, and d1 carries r no further.
	_, lines := check(db, "SELECT count(*), sum(d1.y) FROM f JOIN d1 ON f.a = d1.k JOIN rg ON d1.r = rg.k WHERE rg.p < 5",
		[]string{"rg"}, map[string]string{"d1": "bitmap"})
	if !strings.Contains(lines["d1"], " rows of 1 columns") {
		t.Fatalf("the step building d1 carries more than d1.y: %s", lines["d1"])
	}
	check(db, "SELECT count(*), sum(f.v) FROM f JOIN d1 ON f.a = d1.k JOIN rg ON d1.r = rg.k WHERE rg.p < 5",
		[]string{"rg", "d1"}, nil)
	// Empty builds: one filtered to nothing, and an empty table.
	if got, _ := check(db, "SELECT count(*), sum(f.v) FROM f JOIN du ON f.a = du.k WHERE du.p < 0", []string{"du"}, nil); count(got) != 0 {
		t.Fatalf("a join with an empty build counts %d rows", count(got))
	}
	check(db, "SELECT f.v FROM f JOIN de ON f.a = de.k JOIN du ON f.b = du.k", []string{"de", "du"}, nil)
	// Under the budget a probed step's bitmap is denied after its table:
	// range filter, probed. The semi step fits.
	check(budgeted, "SELECT f.v, du.p FROM f JOIN du ON f.a = du.k", nil, map[string]string{"du": "range"})
	check(budgeted, "SELECT f.v FROM f JOIN du ON f.a = du.k", []string{"du"}, nil)
}

// A NULL build key matches nothing, so it adds nothing to a step's
// multiplier: joining 16 fact rows to keys 1, 2, 3 and six NULLs, the
// estimate is the 9 rows the bitmap lets through, once each, probed or
// semi.
func TestKeyFilterEstimateSkipsNullBuildKeys(t *testing.T) {
	db, err := openSized(512, 64, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE f (k INT, v INT)")
	mustExec(t, db, "CREATE TABLE d (k INT, p INT)")
	mustExec(t, db, "INSERT INTO f VALUES (1, 1), (2, 2), (3, 3), (1, 4), (2, 5), (3, 6), (1, 7), (2, 8), (3, 9), "+
		"(10, 1), (11, 1), (12, 1), (13, 1), (14, 1), (15, 1), (16, 1)")
	mustExec(t, db, "INSERT INTO d VALUES (1, 1), (2, 2), (3, 3), (NULL, 4), (NULL, 5), (NULL, 6), (NULL, 7), (NULL, 8), (NULL, 9)")
	for _, q := range []string{"SELECT f.v, d.p FROM f JOIN d ON f.k = d.k", "SELECT count(*) FROM f JOIN d ON f.k = d.k"} {
		plan, err := db.Conn().Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "join 1: build d (9 rows), est 9 rows -> actual 9 rows") {
			t.Fatalf("%s: want est 9 rows -> actual 9 rows\n%s", q, plan)
		}
	}
}
