package engine

import "testing"

// Execute instantiates a plan's operators on every execution, so what
// one execution allocates is paid by every prepared aggregate on the
// serving path. One worker keeps the counts deterministic: a single
// exchange worker over the same morsels. The bounds are what each
// statement allocated while global aggregates, groupings and grouped
// sorts each had an executor of their own; the one walk must not cost
// more.
func TestAggregateExecutionAllocs(t *testing.T) {
	db, _ := Open(WithWorkers(1))
	defer db.Close()
	loadGrouped(t, db, "g", 20000, 50, 7)
	conn := db.Conn()
	for _, tc := range []struct {
		name, sql string
		arg       any
		max       float64
	}{
		{"global", "SELECT count(*), sum(v) FROM g WHERE k = ?", int64(3), 75},
		{"grouped", "SELECT k, count(*), sum(v) FROM g WHERE v >= ? GROUP BY k", int64(-100), 121},
		{"grouped-top", "SELECT k, sum(v) AS s FROM g WHERE v >= ? GROUP BY k ORDER BY s DESC LIMIT 5", int64(-100), 128},
	} {
		st, err := conn.Prepare(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		got := testing.AllocsPerRun(20, func() {
			r, err := st.Query(bg, tc.arg)
			if err != nil {
				t.Fatal(err)
			}
			rows = 0
			for r.Next() {
				rows++
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per execution, %d rows", tc.name, got, rows)
		if got > tc.max {
			t.Errorf("%s: %.0f allocations per execution, want at most %.0f", tc.name, got, tc.max)
		}
	}
}
