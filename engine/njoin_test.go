package engine

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/physical"
	"repro/internal/sqlfe"
)

// The greedy orderer must beat textual order on a skewed star: the
// textual first join explodes (hot dimension), while the selective
// dimension the orderer probes first keeps intermediates small. The
// last step's output is the result under any order, so only the steps
// before it count; they are held to what plain Go counts from the
// inserted rows: the fact rows that pass both dimensions' key filters
// (exactly: a range filter lets more through) times their matches in
// the textual first dimension, and in the selective one.
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
	fact := ins.Rows
	hot, sel := map[int64]int64{}, map[int64]int64{} // key -> rows
	ins = &sqlfe.Insert{Table: "hot"}
	for i := 0; i < 200; i++ { // every fact row matches ~50 hot rows
		k := rng.Int63n(4)
		hot[k]++
		ins.Rows = append(ins.Rows, []sqlfe.Lit{
			{Kind: sqlfe.TInt, I: k},
			{Kind: sqlfe.TInt, I: rng.Int63n(50)},
		})
	}
	if _, err := db.sdb.ExecStmt(ins); err != nil {
		t.Fatal(err)
	}
	ins = &sqlfe.Insert{Table: "sel"}
	for i := 0; i < 40; i++ { // most fact rows match nothing here
		k := rng.Int63n(2000)
		sel[k]++
		ins.Rows = append(ins.Rows, []sqlfe.Lit{
			{Kind: sqlfe.TInt, I: k},
			{Kind: sqlfe.TInt, I: rng.Int63n(50)},
		})
	}
	if _, err := db.sdb.ExecStmt(ins); err != nil {
		t.Fatal(err)
	}
	var textual, selective, result int64
	for _, r := range fact {
		h, s := hot[r[0].I], sel[r[1].I]
		if h > 0 && s > 0 {
			textual += h
			selective += s
			result += h * s
		}
	}

	// Textual order puts the exploding join first.
	const q = "SELECT sfact.m, hot.p, sel.p FROM sfact JOIN hot ON sfact.h = hot.k JOIN sel ON sfact.s = sel.k"
	st, err := sqlfe.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	conn := db.Conn()
	snap := conn.snapshot()
	phys, fb := physical.Lower(st.(*sqlfe.Select), snap)
	if phys == nil {
		t.Fatalf("query did not lower: %v", fb)
	}
	stats := &physical.ExecStats{}
	opts := db.physOpts()
	opts.Stats = stats
	res, fb, err := phys.Execute(bg, snap, nil, opts)
	if err != nil || fb != nil {
		t.Fatalf("fb=%v err=%v", fb, err)
	}
	rows := collect(t)(newVecRows(bg, phys.Names, res.Op, res.Limit), nil)
	var inter int64
	for _, j := range stats.Joins[:len(stats.Joins)-1] {
		inter += atomic.LoadInt64(&j.Actual)
	}
	if int64(len(rows)) != result {
		t.Fatalf("%d result rows, plain Go counts %d", len(rows), result)
	}
	if inter != selective {
		t.Fatalf("%d intermediate rows, the selective step yields %d", inter, selective)
	}
	if inter*2 >= textual {
		t.Fatalf("greedy order did not pay: %d intermediate rows vs textual order's %d", inter, textual)
	}
	t.Logf("intermediate rows: greedy=%d textual=%d (%.1fx)", inter, textual, float64(textual)/float64(inter+1))
}

// The stream is the leaf with the most LIVE rows: a DELETE that
// tombstones half a table, short of the half-rule vacuum, leaves its
// positions in place, and the orderer must not count them.
func TestStreamSkipsTombstonedRows(t *testing.T) {
	db, _ := Open()
	defer db.Close()
	for name, n := range map[string]int{"a": 10000, "b": 8000} {
		mustExec(t, db, "CREATE TABLE "+name+" (k INT, v INT)")
		ins := &sqlfe.Insert{Table: name}
		for i := 0; i < n; i++ {
			ins.Rows = append(ins.Rows, []sqlfe.Lit{{Kind: sqlfe.TInt, I: int64(i)}, {Kind: sqlfe.TInt, I: int64(i % 7)}})
		}
		if _, err := db.sdb.ExecStmt(ins); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, db, "DELETE FROM a WHERE k < 4900")
	plan, err := db.Conn().Plan("SELECT a.v, b.v FROM a JOIN b ON a.k = b.k")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "10000/10000 rows, 4900 tombstoned") {
		t.Fatalf("a is not 10000 positions with 4900 tombstoned:\n%s", plan)
	}
	if !strings.Contains(plan, "stream: scan b\n") {
		t.Fatalf("streamed a, whose 5100 live rows are fewer than b's 8000:\n%s", plan)
	}
}
