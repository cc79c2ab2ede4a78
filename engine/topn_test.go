package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/bat"
)

// ORDER BY .. LIMIT is a selection, and a selection may only ever drop
// rows that lose. The differential test below holds every shape of the
// sort path — single table, join output, grouped output; full sorts and
// bounded top-N runs behind their cutoff; in memory and spilled — to the
// EXACT row sequence of a plain-Go model: a stable sort of the table in
// row order, NULL first, descending its exact reverse. The model shares
// no code with internal/vector.
//
// Three one-line mutations of internal/vector/sort.go were applied by
// hand and each fails this file: a strict cutoff (`<` for `<=` in
// sortOrder.within: a later row tying the cutoff is dropped although it
// wins the DESC row-id tiebreak), a cutoff taken before truncation
// (tighten(es[len(es)-1].k) ahead of es = es[:Limit] in SortRun.sorted:
// the cutoff is the worst buffered key and prunes next to nothing —
// TestTopNCutoffPrunes), and a DESC row id left unreversed (rid not
// complemented in sortOrder.ents: ties come out in ascending row order).

// zLess is the ascending order of column col over model rows: NULL
// first, then by value; equal keys are NOT ordered here — stability
// does that.
func zLess(col string, a, b zRow) bool {
	if col == "k" {
		if a.kNil || b.kNil {
			return a.kNil && !b.kNil
		}
		return a.k < b.k
	}
	if a.fNil || b.fNil {
		return a.fNil && !b.fNil
	}
	return a.f < b.f
}

func zKey(col string, r zRow) any {
	if col == "k" {
		return intCell(r.k, r.kNil)
	}
	return fltCell(r.f, r.fNil)
}

// topnWant is the model answer of
// SELECT id, col FROM z [WHERE g < gmax] ORDER BY col [DESC] [LIMIT limit].
func topnWant(model []zRow, gmax int64, col string, desc bool, limit int) [][]any {
	var rows []zRow
	for _, r := range model {
		if r.g < gmax {
			rows = append(rows, r)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return zLess(col, rows[i], rows[j]) })
	if desc {
		for i, j := 0, len(rows)-1; i < j; i, j = i+1, j-1 {
			rows[i], rows[j] = rows[j], rows[i]
		}
	}
	if limit >= 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	out := make([][]any, len(rows))
	for i, r := range rows {
		out[i] = []any{r.id, zKey(col, r)}
	}
	return out
}

// sameSequence compares two results cell by cell, in order.
func sameSequence(t *testing.T, label string, got, want [][]any) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, model has %d", label, len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			if got[i][c] != want[i][c] { // nil, int64 and float64 cells; -0.0 == +0.0
				t.Fatalf("%s row %d: got %v, model %v", label, i, got[i], want[i])
			}
		}
	}
}

func limitSQL(limit int) string {
	if limit < 0 {
		return ""
	}
	return fmt.Sprintf(" LIMIT %d", limit)
}

func descSQL(desc bool) string {
	if desc {
		return " DESC"
	}
	return ""
}

// topnGen draws z rows whose sort keys repeat heavily (so ties straddle
// every cutoff) in one arrival order: "sorted" keys rise with the row
// index — under DESC every row beats the cutoff, its worst case —
// "reversed" fall with it, "random" ignore it. NULLs, the extreme INT
// values and -Inf/-0/+0/+Inf are sprinkled over every shape.
func topnGen(rng *rand.Rand, shape string, n int) []zRow {
	model := make([]zRow, n)
	for i := range model {
		v := int64(i / 7)
		switch shape {
		case "reversed":
			v = int64((n - i) / 7)
		case "random":
			v = rng.Int63n(int64(n / 7))
		}
		r := zRow{id: int64(i), g: int64(i % 7), k: v, f: float64(v) / 4}
		switch rng.Intn(40) {
		case 0:
			r.kNil = true
		case 1:
			r.fNil = true
		case 2:
			r.k = bat.NilInt + 1
			r.f = math.Inf(-1)
		case 3:
			r.k = math.MaxInt64
			r.f = math.Inf(1)
		case 4:
			r.k = 0
			r.f = math.Copysign(0, -1)
		}
		model[i] = r
	}
	return model
}

// topnCheck runs the single-table statement mix against the model.
func topnCheck(t *testing.T, stage string, conn *Conn, model []zRow, rng *rand.Rand) {
	t.Helper()
	n := len(model)
	for _, col := range []string{"k", "f"} {
		for _, desc := range []bool{false, true} {
			// Limits around nothing, one row, a cutoff well inside the data,
			// far more rows than a vector holds, and the table size itself.
			for _, limit := range []int{-1, 0, 1, 10, 100, 1000, n - 1, n, n + 1} {
				q := fmt.Sprintf("SELECT id, %s FROM z ORDER BY %s%s%s", col, col, descSQL(desc), limitSQL(limit))
				label := fmt.Sprintf("%s: %s", stage, q)
				sameSequence(t, label, collect(t)(conn.Query(bg, q)), topnWant(model, 7, col, desc, limit))
			}
			gmax := int64(1 + rng.Intn(6))
			limit := 1 + rng.Intn(300)
			q := fmt.Sprintf("SELECT id, %s FROM z WHERE g < ? ORDER BY %s%s LIMIT %d", col, col, descSQL(desc), limit)
			label := fmt.Sprintf("%s: %s [g < %d]", stage, q, gmax)
			sameSequence(t, label, collect(t)(conn.Query(bg, q, gmax)), topnWant(model, gmax, col, desc, limit))
		}
	}
}

// topnJoinCheck orders a join's output. Match order is nondeterministic,
// so the engine's order is the canonical (key, output columns...) one,
// entirely reversed under DESC: here (w, id), id being unique.
func topnJoinCheck(t *testing.T, stage string, conn *Conn, model []zRow) {
	t.Helper()
	type jr struct{ id, w int64 }
	var all []jr
	for _, r := range model {
		all = append(all, jr{r.id, r.g / 2}) // d.w = dk/2: w repeats across dk
	}
	for _, desc := range []bool{false, true} {
		for _, limit := range []int{-1, 1, 10, 500, len(all) + 1} {
			rows := append([]jr(nil), all...)
			sort.Slice(rows, func(i, j int) bool {
				a, b := rows[i], rows[j]
				if desc {
					a, b = b, a
				}
				return a.w < b.w || a.w == b.w && a.id < b.id
			})
			if limit >= 0 && limit < len(rows) {
				rows = rows[:limit]
			}
			want := make([][]any, len(rows))
			for i, r := range rows {
				want[i] = []any{r.id, r.w}
			}
			q := "SELECT z.id, d.w FROM z JOIN d ON z.g = d.dk ORDER BY w" + descSQL(desc) + limitSQL(limit)
			sameSequence(t, stage+": "+q, collect(t)(conn.Query(bg, q)), want)
		}
	}
}

// topnGroupCheck orders grouped output by an aggregate: ties break on
// the group key, NULL group first, all of it reversed under DESC.
func topnGroupCheck(t *testing.T, stage string, conn *Conn, model []zRow) {
	t.Helper()
	type gr struct {
		k    int64
		kNil bool
		n    int64
	}
	idx := map[any]int{}
	var groups []gr
	for _, r := range model {
		key := intCell(r.k, r.kNil)
		gi, ok := idx[key]
		if !ok {
			gi = len(groups)
			idx[key] = gi
			groups = append(groups, gr{k: r.k, kNil: r.kNil})
		}
		groups[gi].n++
	}
	for _, desc := range []bool{false, true} {
		for _, limit := range []int{-1, 0, 1, 10, 100, len(groups), len(groups) + 1} {
			rows := append([]gr(nil), groups...)
			sort.Slice(rows, func(i, j int) bool {
				a, b := rows[i], rows[j]
				if desc {
					a, b = b, a
				}
				if a.n != b.n {
					return a.n < b.n
				}
				if a.kNil || b.kNil {
					return a.kNil && !b.kNil
				}
				return a.k < b.k
			})
			if limit >= 0 && limit < len(rows) {
				rows = rows[:limit]
			}
			want := make([][]any, len(rows))
			for i, r := range rows {
				want[i] = []any{intCell(r.k, r.kNil), r.n}
			}
			q := "SELECT k, count(*) AS n FROM z GROUP BY k ORDER BY n" + descSQL(desc) + limitSQL(limit)
			sameSequence(t, stage+": "+q, collect(t)(conn.Query(bg, q)), want)
		}
	}
}

func TestTopNMatchesPlainGoStableSort(t *testing.T) {
	const n = 6000
	for i, shape := range []string{"sorted", "reversed", "random"} {
		for _, workers := range []int{1, 2, 4} {
			shape, workers, seed := shape, workers, int64(10*i+workers)
			t.Run(fmt.Sprintf("%s/workers=%d", shape, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				dir := t.TempDir()
				// 64-row vectors: LIMIT 100 and 1000 are many vectors deep, and
				// a 2*LIMIT buffer compacts dozens of times over 6000 rows.
				opts := []Option{WithDir(dir), WithWorkers(workers)}
				db, err := openSized(700, 64, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { db.Close() }()
				mustExec(t, db, "CREATE TABLE z (id INT, k INT, f FLOAT, g INT)")
				mustExec(t, db, "CREATE TABLE d (dk INT, w INT)")
				for dk := 0; dk < 7; dk++ {
					mustExec(t, db, "INSERT INTO d VALUES (?, ?)", dk, dk/2)
				}
				model := topnGen(rng, shape, n)
				insertZ(t, db, model)
				check := func(stage string) {
					conn := db.Conn()
					topnCheck(t, stage, conn, model, rng)
					topnJoinCheck(t, stage, conn, model)
					topnGroupCheck(t, stage, conn, model)
				}
				check("deltas")

				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				if db, err = openSized(700, 64, opts...); err != nil {
					t.Fatal(err)
				}
				check("main columns")

				// The sorts skip tombstones with their row ids; the vacuum
				// renumbers every later row, and the row-id tiebreak with it.
				mustExec(t, db, "DELETE FROM z WHERE id >= ? AND id < ?", 900, 2100)
				kept := model[:0:0]
				for _, r := range model {
					if r.id < 900 || r.id >= 2100 {
						kept = append(kept, r)
					}
				}
				model = kept
				check("deleted")
				if got, err := db.Vacuum(); err != nil || got != 1 {
					t.Fatalf("vacuum: %d tables, %v", got, err)
				}
				check("vacuumed")

				extra := topnGen(rng, "random", 400)
				for i := range extra {
					extra[i].id = int64(n + i)
				}
				insertZ(t, db, extra)
				model = append(model, extra...)
				check("vacuumed+deltas")
			})
		}
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
			mustExec(t, db, "CREATE TABLE z (id INT, k INT, f FLOAT, g INT)")
			model := topnGen(rand.New(rand.NewSource(5)), shape, n)
			insertZ(t, db, model)
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
// still spills Limit-truncated runs. Both agree with the model.
func TestTopNBudget(t *testing.T) {
	const n = 12000
	for _, workers := range []int{1, 2, 4} {
		db, _ := newGovDB(t, 96<<10, workers)
		mustExec(t, db, "CREATE TABLE z (id INT, k INT, f FLOAT, g INT)")
		model := topnGen(rand.New(rand.NewSource(int64(workers))), "random", n)
		insertZ(t, db, model)
		for _, col := range []string{"k", "f"} {
			for _, desc := range []bool{false, true} {
				for _, limit := range []int{100, 5000} { // (id, key, rowid): 2.4 KB and 120 KB
					q := fmt.Sprintf("SELECT id, %s FROM z ORDER BY %s%s LIMIT %d", col, col, descSQL(desc), limit)
					label := fmt.Sprintf("%s (workers=%d)", q, workers)
					before := db.SpillStats().Spills
					sameSequence(t, label, collect(t)(db.Query(bg, q)), topnWant(model, 7, col, desc, limit))
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
