package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sqlfe"
)

// The structural side of the top-N, read off \plan and the spill
// counters: how many rows passed the cutoff, how often the buffer
// compacted, what spilled. The rows a top-N returns are held to a
// plain-Go reference by the differential driver (diff_test.go,
// TestTopNMatchesPlainGoStableSort and the ORDER BY ... LIMIT
// statements of TestDifferential).

// loadZ loads table z (id INT, k INT, f FLOAT) of n rows whose sort
// keys repeat heavily, so ties straddle every cutoff, in one arrival
// order: "sorted" keys rise with the row — under DESC every row beats
// the cutoff, its worst case — and "random" ones ignore it. One key in
// 40 is NULL.
func loadZ(t *testing.T, db *DB, shape string, n int, rng *rand.Rand) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE z (id INT, k INT, f FLOAT)")
	ins := &sqlfe.Insert{Table: "z"}
	for i := 0; i < n; i++ {
		k := int64(i / 7)
		if shape == "random" {
			k = rng.Int63n(int64(n / 7))
		}
		ins.Rows = append(ins.Rows, []sqlfe.Lit{{Kind: sqlfe.TInt, I: int64(i)},
			{Kind: sqlfe.TInt, I: k, Null: rng.Intn(40) == 0}, {Kind: sqlfe.TFloat, F: float64(k) / 4}})
	}
	if _, err := db.sdb.ExecStmt(ins); err != nil {
		t.Fatal(err)
	}
}

// sortLine finds "sort <input>: R rows in, P past cutoff, C compactions,
// K kept, S spilled runs" in a \plan.
func sortLine(t *testing.T, plan, input string) (in, past, compactions, kept, spilled int) {
	t.Helper()
	for _, line := range strings.Split(plan, "\n") {
		if _, err := fmt.Sscanf(line, "sort "+input+": %d rows in, %d past cutoff, %d compactions, %d kept, %d spilled runs",
			&in, &past, &compactions, &kept, &spilled); err == nil {
			return
		}
	}
	t.Fatalf("no top-N sort line for %s in:\n%s", input, plan)
	return
}

// TestTopNCutoffPrunes is the structural form of the top-N claim,
// read off \plan: on random input all but a sliver of the rows stop at
// the cutoff, and on the adversarial input — already ascending under
// DESC, every row a new maximum — the buffer still retires LIMIT rows
// per compaction, so there are at most rows/LIMIT of them.
func TestTopNCutoffPrunes(t *testing.T) {
	const n, limit = 20000, 10
	for _, workers := range []int{1, 2, 4} {
		for _, shape := range []string{"random", "sorted"} {
			db, err := openSized(2048, 0, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			loadZ(t, db, shape, n, rand.New(rand.NewSource(5)))
			for _, q := range []string{
				fmt.Sprintf("SELECT id, k FROM z ORDER BY k DESC LIMIT %d", limit),
				fmt.Sprintf("SELECT k, count(*) AS c FROM z GROUP BY k ORDER BY k DESC LIMIT %d", limit),
			} {
				plan, err := db.Conn().Plan(q)
				if err != nil {
					t.Fatal(err)
				}
				input, rows := "z", n
				if strings.Contains(q, "GROUP BY") {
					input, rows = "groups", len(collect(t)(db.Query(bg, "SELECT k, count(*) FROM z GROUP BY k")))
				} else if !strings.Contains(plan, fmt.Sprintf("top-n[col1 desc limit %d]", limit)) {
					t.Fatalf("%s: not planned as a top-N:\n%s", q, plan)
				}
				in, past, compactions, kept, spilled := sortLine(t, plan, input)
				label := fmt.Sprintf("%s (%s, workers=%d): %d in, %d past cutoff, %d compactions", q, shape, workers, in, past, compactions)
				if in != rows || kept != limit || spilled != 0 {
					t.Fatalf("%s: want %d in, %d kept, 0 spilled; got %d kept, %d spilled", label, rows, limit, kept, spilled)
				}
				if compactions < 1 || compactions > rows/limit {
					t.Fatalf("%s: compactions outside [1, rows/LIMIT]", label)
				}
				// Each worker buffers its first vector whole — no cutoff exists
				// before the first compaction — and little after it.
				if shape == "random" && past > workers*1024+rows/10 {
					t.Fatalf("%s: the cutoff let more than a vector per worker and a tenth of the rows through", label)
				}
			}
			db.Close()
		}
	}
}

// TestTopNBudget: a top-N whose 2*LIMIT rows fit the query budget runs
// in memory however large the table is; one whose LIMIT rows do not fit
// still spills Limit-truncated runs. Both keep the Result contract.
func TestTopNBudget(t *testing.T) {
	const n = 12000
	for _, workers := range []int{1, 2, 4} {
		db, _ := newGovDB(t, 96<<10, workers)
		loadZ(t, db, "random", n, rand.New(rand.NewSource(int64(workers))))
		for _, col := range []string{"k", "f"} {
			all := collect(t)(db.Query(bg, "SELECT id, "+col+" FROM z"))
			for _, desc := range []bool{false, true} {
				for _, limit := range []int{100, 5000} { // (id, key, rowid): 2.4 KB and 120 KB
					q := fmt.Sprintf("SELECT id, %s FROM z ORDER BY %s LIMIT %d", col, col, limit)
					if desc {
						q = strings.Replace(q, " LIMIT", " DESC LIMIT", 1)
					}
					label := fmt.Sprintf("%s (workers=%d)", q, workers)
					before := db.SpillStats().Spills
					if err := (Contract{Order: 1, Desc: desc, Limit: limit}).Check(collect(t)(db.Query(bg, q)), all); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					spills := db.SpillStats().Spills - before
					if limit == 100 && spills != 0 {
						t.Fatalf("%s: a top-N that fits the budget spilled %d runs", label, spills)
					}
					if limit == 5000 && spills == 0 {
						t.Fatalf("%s: LIMIT rows outgrow the budget, yet nothing spilled", label)
					}
					checkNoLeak(t, db, label)
				}
			}
		}
		db.Close()
	}
}
