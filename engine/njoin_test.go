package engine

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/physical"
	"repro/internal/sqlfe"
)

// The greedy orderer must beat naive textual order on a skewed star: the
// textual first join explodes (hot dimension), while the selective
// dimension the orderer prefers keeps intermediates small. Compares the
// measured intermediate cardinalities of both orders on the same
// snapshot, and that both produce the same rows. The last step's output
// is the result under any order, so only the steps before it count.
func TestGreedyOrderBeatsNaive(t *testing.T) {
	db, _ := openSized(64, 32, WithWorkers(2))
	defer db.Close()
	mustExec(t, db, "CREATE TABLE sfact (h INT, s INT, m INT)")
	mustExec(t, db, "CREATE TABLE hot (k INT, p INT)")
	mustExec(t, db, "CREATE TABLE sel (k INT, p INT)")
	rng := rand.New(rand.NewSource(77))
	ins := &sqlfe.Insert{Table: "sfact"}
	for i := 0; i < 1500; i++ {
		ins.Rows = append(ins.Rows, []sqlfe.Lit{
			{Kind: sqlfe.TInt, I: rng.Int63n(4)},    // hot key: tiny domain
			{Kind: sqlfe.TInt, I: rng.Int63n(2000)}, // selective key: wide domain
			{Kind: sqlfe.TInt, I: rng.Int63n(100)},
		})
	}
	if _, err := db.sdb.ExecStmt(ins); err != nil {
		t.Fatal(err)
	}
	ins = &sqlfe.Insert{Table: "hot"}
	for i := 0; i < 200; i++ { // every fact row matches ~50 hot rows
		ins.Rows = append(ins.Rows, []sqlfe.Lit{
			{Kind: sqlfe.TInt, I: rng.Int63n(4)},
			{Kind: sqlfe.TInt, I: rng.Int63n(50)},
		})
	}
	if _, err := db.sdb.ExecStmt(ins); err != nil {
		t.Fatal(err)
	}
	ins = &sqlfe.Insert{Table: "sel"}
	for i := 0; i < 40; i++ { // most fact rows match nothing here
		ins.Rows = append(ins.Rows, []sqlfe.Lit{
			{Kind: sqlfe.TInt, I: rng.Int63n(2000)},
			{Kind: sqlfe.TInt, I: rng.Int63n(50)},
		})
	}
	if _, err := db.sdb.ExecStmt(ins); err != nil {
		t.Fatal(err)
	}

	// Textual order puts the exploding join first.
	const q = "SELECT sfact.m, hot.p, sel.p FROM sfact JOIN hot ON sfact.h = hot.k JOIN sel ON sfact.s = sel.k"
	st, err := sqlfe.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*sqlfe.Select)
	conn := db.Conn()
	snap := conn.snapshot()
	phys, fb := physical.Lower(sel, snap)
	if phys == nil {
		t.Fatalf("query did not lower: %v", fb)
	}
	run := func(naive bool) ([][]any, int64) {
		stats := &physical.ExecStats{}
		opts := db.physOpts()
		opts.Stats = stats
		opts.NaiveJoinOrder = naive
		res, fb, err := phys.Execute(bg, snap, nil, opts)
		if err != nil || fb != nil {
			t.Fatalf("naive=%v: fb=%v err=%v", naive, fb, err)
		}
		rows := collect(t)(newVecRows(bg, make([]string, len(sel.Items)), res.Op, res.Limit), nil)
		var inter int64
		for i := range stats.Joins[:len(stats.Joins)-1] {
			inter += atomic.LoadInt64(&stats.Joins[i].Actual)
		}
		return rows, inter
	}
	greedyRows, greedyInter := run(false)
	naiveRows, naiveInter := run(true)
	if err := Unordered.Check(greedyRows, naiveRows); err != nil {
		t.Fatalf("greedy and naive orders disagree on rows: %v", err)
	}
	if greedyInter*2 >= naiveInter {
		t.Fatalf("greedy order did not pay: %d intermediate rows vs naive %d", greedyInter, naiveInter)
	}
	t.Logf("intermediate rows: greedy=%d naive=%d (%.1fx)", greedyInter, naiveInter, float64(naiveInter)/float64(greedyInter+1))
}
