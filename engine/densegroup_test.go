package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sqlfe"
)

// The grouping table's direct-address layout and its hash layout return
// the same groups. A single INT key whose leaf's zone maps cover every
// row groups by position over the zone-map domain; rows appended past
// the zone maps put the key back on hash until a checkpoint rebuilds
// them. Every statement, in every state, returns MAL's rows, and \plan's
// group line names the layout it took: through tombstones, appended
// rows, a checkpoint and reopen, a key on a join leaf, and a key the
// aggregate's expression projection carries.
func TestDenseGroupingMatchesHash(t *testing.T) {
	dir := t.TempDir()
	mal := sqlfe.NewDB()
	var db *DB
	open := func() {
		var err error
		if db, err = openSized(512, 64, WithDir(dir), WithWorkers(2)); err != nil {
			t.Fatal(err)
		}
	}
	exec := func(s string) {
		t.Helper()
		if _, err := mal.Exec(s); err != nil {
			t.Fatalf("MAL: %.60s: %v", s, err)
		}
		mustExec(t, db, s)
	}
	open()
	exec("CREATE TABLE g (k INT, v INT, f FLOAT)")
	exec("CREATE TABLE d (k INT, c INT)")
	rng := rand.New(rand.NewSource(11))
	var rows []string
	for i := 0; i < 3000; i++ {
		k, v, f := fmt.Sprint(rng.Intn(40)-15), fmt.Sprint(rng.Intn(1000)-500), fmt.Sprint(float64(rng.Intn(1000))/8)
		if i%11 == 10 {
			k = "NULL"
		}
		if rng.Intn(4) == 0 {
			v = "NULL"
		}
		if rng.Intn(4) == 0 {
			f = "NULL"
		}
		rows = append(rows, fmt.Sprintf("(%s, %s, %s)", k, v, f))
	}
	exec("INSERT INTO g VALUES " + strings.Join(rows, ", "))
	rows = rows[:0]
	for k := -15; k < 25; k++ {
		c := fmt.Sprint((k + 15) % 6)
		if k == 3 {
			c = "NULL"
		}
		rows = append(rows, fmt.Sprintf("(%d, %s)", k, c))
	}
	exec("INSERT INTO d VALUES " + strings.Join(rows, ", "))

	const (
		plain = "SELECT k, count(*), sum(v), avg(f), min(v), max(f), count(v) FROM g GROUP BY k"
		pre   = "SELECT k, sum(v * 2), count(f + 1.5), avg(v + 1) FROM g GROUP BY k"
		join  = "SELECT d.c, count(*), sum(g.v), max(g.f) FROM g JOIN d ON g.k = d.k GROUP BY d.c"
	)
	// check holds each statement to MAL's rows and to the layout its
	// \plan group line names.
	check := func(state string, layouts map[string]string) {
		t.Helper()
		for q, layout := range layouts {
			want, err := mal.Query(q)
			if err != nil {
				t.Fatalf("%s on MAL: %v", q, err)
			}
			if err := Unordered.Check(collect(t)(db.Query(bg, q)), want.Rows); err != nil {
				t.Fatalf("%s: %s: %v", state, q, err)
			}
			plan, err := db.Conn().Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			line := ""
			for _, l := range strings.Split(plan, "\n") {
				if strings.HasPrefix(l, "group: ") {
					line = l
				}
			}
			if !strings.Contains(line, fmt.Sprintf(" groups, %s, ", layout)) {
				t.Fatalf("%s: %s: group line %q, want layout %s\n%s", state, q, line, layout, plan)
			}
		}
	}
	// Loaded rows sit in deltas: no zone maps, every key hashes.
	check("before the first checkpoint", map[string]string{plain: "hash", pre: "hash", join: "hash"})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	open()
	defer func() { db.Close() }()
	dense := map[string]string{plain: "dense [-15,24]", pre: "dense [-15,24]", join: "dense [0,5]"}
	check("reopened", dense)
	exec("DELETE FROM g WHERE v < -400")
	check("tombstoned", dense)
	exec("INSERT INTO g VALUES (40, 1, 2.5), (-15, NULL, 0.125), (NULL, 7, NULL)")
	// g's key is past its zone maps now; d's is not.
	check("appended", map[string]string{plain: "hash", pre: "hash", join: "dense [0,5]"})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	open()
	check("checkpointed and reopened", map[string]string{plain: "dense [-15,40]", pre: "dense [-15,40]", join: "dense [0,5]"})
}
