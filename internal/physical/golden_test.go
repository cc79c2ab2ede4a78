package physical

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/sqlfe"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current code")

// regenerated lists the corpus statements whose golden entry was
// rewritten AFTER the bind-once refactor, because a later change alters
// them on purpose; every other entry of testdata/golden.txt was
// generated at the parent commit (4b212ce) and must stay byte-identical.
var regenerated = []string{
	// Grouped ORDER BY resolves by (table, column), not by spelling:
	// the parent rejected this with `ORDER BY "a" must name an output
	// column`.
	"SELECT t.a, count(*) FROM t GROUP BY a ORDER BY a",
	// The MAL global-aggregate program applies LIMIT: the parent
	// returned one row for LIMIT 0.
	"SELECT count(*) FROM t LIMIT 0",
	"SELECT count(*) FROM t WHERE s = 'x' LIMIT 0",
	// GROUP BY has one plan: the description no longer names the
	// radix-partitioned plan, which is gone. Nothing else changed.
	"SELECT a AS k, sum(b) FROM t GROUP BY a ORDER BY a",
	"SELECT a, count(*) AS n FROM t GROUP BY a ORDER BY n",
	"SELECT a, count(*) FROM t GROUP BY a",
	"SELECT a, count(*) FROM t GROUP BY a LIMIT 2",
	"SELECT a, count(*) FROM t GROUP BY a ORDER BY a DESC LIMIT 2",
	"SELECT a, count(*) FROM t GROUP BY t.a ORDER BY a",
	"SELECT a, sum(b) FROM t GROUP BY a ORDER BY a",
	"SELECT a, sum(b), count(*), count(f), avg(f) FROM t GROUP BY a",
	"SELECT a, sum(f), avg(f), min(f), max(f) FROM t GROUP BY a",
	"SELECT t.a AS k, count(*) FROM t JOIN u ON t.a = u.a JOIN z ON u.a = z.a GROUP BY t.a ORDER BY k DESC LIMIT 12",
	"SELECT t.a, count(*) FROM t GROUP BY t.a ORDER BY t.a",
	"SELECT t.a, sum(u.w) FROM t JOIN u ON t.a = u.a GROUP BY t.a",
	// One plan skeleton, Project ← Sort? ← GroupAgg? ← pipeline: every
	// aggregate's tree gained its Project root and lost the GroupAgg
	// order fields, and a grouped ORDER BY is a SortNode (its description
	// names the sort stage; the entries above that order groups were
	// rewritten again for this). The ORDER BY over a global aggregate
	// lowers instead of falling back. The MAL programs, names and params
	// are unchanged. Later, the entries with arithmetic were rewritten
	// once more when the nil-blind INT kernels went: every vector.ExprOp
	// code in their pre fields moved down by two, and nothing else.
	"SELECT count(*) FROM t",
	"SELECT count(*) FROM t WHERE a = 7",
	"SELECT count(*), count(f) FROM t",
	"SELECT count(*), sum(x), avg(x), sum(f) FROM t WHERE x < ?",
	"SELECT count(a), count(f), sum(a), avg(f) FROM t",
	"SELECT min(a), max(a), min(f), max(f) FROM t",
	"SELECT count(a + 1), sum(10 - a) FROM t",
	"SELECT count(f * 2.0), sum(a + f) FROM t",
	"SELECT min(1.5 - f), max(f - 2.0) FROM t",
	"SELECT min(a - b), max(b * 3) FROM t",
	"SELECT avg(a * 2) FROM t",
	"SELECT sum(a) AS total FROM t ORDER BY total",
	"SELECT count(*) FROM t LIMIT 1",
	"SELECT a, sum(b + 1), avg(b * 2) FROM t GROUP BY a",
	"SELECT a, sum(f + 1.5), max(f * -1.0) FROM t GROUP BY a",
	"SELECT a, count(b * 2), min(10 - b) FROM t GROUP BY a",
	"SELECT a, avg(b + f) FROM t GROUP BY a",
	"SELECT a, sum(f) FROM t WHERE b > -400 GROUP BY a",
	"SELECT a, count(*) FROM t GROUP BY a, b",
	"SELECT a, b, sum(f), count(*) FROM t GROUP BY a, b",
	"SELECT a, b, x, count(*) FROM t GROUP BY a, b, x",
	"SELECT a, b, sum(b), min(f), max(f) FROM t GROUP BY a, b ORDER BY b DESC",
	"SELECT sum(t.b) FROM t JOIN u ON t.a = u.a",
	"SELECT t.a, sum(u.w + t.b), avg(u.g * 2) FROM t JOIN u ON t.a = u.a GROUP BY t.a",
	"SELECT t.b, z.y, avg(u.g) FROM t JOIN u ON t.a = u.a JOIN z ON u.a = z.a GROUP BY t.b, z.y",
	// Every join's build and probe steps read "or semi", and the note
	// under them says what a semi step is: whether a step builds a
	// table is decided per execution. Nothing else changed (the five
	// join statements above were rewritten once more for this).
	"SELECT t.b, u.w FROM t JOIN u ON t.a = u.a WHERE b > 0",
	"SELECT t.b, u.w FROM t JOIN u ON u.a = t.a",
	"SELECT b, w FROM t JOIN u ON a = a",
	"SELECT t.b, u.w, z.y FROM t JOIN u ON t.a = u.a JOIN z ON u.a = z.a",
	"SELECT t.b, u.w, z.y FROM t JOIN u ON t.a = u.a JOIN z ON t.b = z.y WHERE y > 0 AND u.w < 100",
	"SELECT t.b, u.w FROM t JOIN u ON t.a = u.a ORDER BY w",
	"SELECT t.b, u.w FROM t JOIN u ON t.a = u.a ORDER BY w DESC LIMIT 5",
	"SELECT t.b FROM t JOIN u ON t.a = u.a ORDER BY g LIMIT 30",
	"SELECT t.b AS p, u.w AS q FROM t JOIN u ON t.a = u.a JOIN z ON u.a = z.a ORDER BY p LIMIT 100",
}

// golden renders what both back-ends make of one statement: the bind
// error, or the optimized MAL program with its placeholder types and
// the physical plan (or the reason it routes to MAL).
func golden(snap *sqlfe.Snapshot, q string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s\n", q)
	st, err := sqlfe.Parse(q)
	if err != nil {
		fmt.Fprintf(&sb, "parse error: %v\n", err)
		return sb.String()
	}
	sel, ok := st.(*sqlfe.Select)
	if !ok {
		sb.WriteString("not a SELECT\n")
		return sb.String()
	}
	prog, ptypes, err := snap.CompileSelectBound(sel)
	if err != nil {
		fmt.Fprintf(&sb, "error: %v\n", err)
		return sb.String()
	}
	fmt.Fprintf(&sb, "%s\nnames: %q params: %v\n", strings.TrimRight(prog.String(), "\n"), prog.ResultNames, ptypes)
	if plan, fb := Lower(sel, snap); plan != nil {
		fmt.Fprintf(&sb, "%s\n", plan.Describe())
		fmt.Fprintf(&sb, "tree: limit %d ", plan.Limit)
		dumpNode(&sb, plan.Root)
		sb.WriteString("\n")
	} else {
		fmt.Fprintf(&sb, "fallback: %s\n", fb.Code)
	}
	return sb.String()
}

// dumpNode renders a plan tree with every field the executor reads, so
// the golden file pins column positions, accumulator layouts and
// predicate values, not just the pipeline's shape.
func dumpNode(sb *strings.Builder, n Node) {
	preds := func(ps []Pred) {
		for _, p := range ps {
			// The comparison value as the executor reads it: I on an INT
			// column, the literal widened to float64 on a FLOAT one.
			v := any(p.Lit.I)
			if p.Type == sqlfe.TFloat {
				v = p.Lit.F
				if p.Lit.Kind == sqlfe.TInt {
					v = float64(p.Lit.I)
				}
			}
			fmt.Fprintf(sb, " pred{col%d %s %s ?%d %v}", p.Col, p.Op, p.Type, p.Param, v)
		}
	}
	scan := func(s *ScanNode) { fmt.Fprintf(sb, "scan{%s %v %v %v}", s.Table, s.Cols, s.Types, s.Names) }
	switch x := n.(type) {
	case *ScanNode:
		scan(x)
	case *FilterNode:
		sb.WriteString("filter{")
		dumpNode(sb, x.Child)
		preds(x.Preds)
		sb.WriteString("}")
	case *ProjectNode:
		fmt.Fprintf(sb, "project{%v ", x.Outs)
		dumpNode(sb, x.Child)
		sb.WriteString("}")
	case *SortNode:
		fmt.Fprintf(sb, "sort{key %d ties %v desc %v limit %d ", x.Key, x.Ties, x.Desc, x.Limit)
		dumpNode(sb, x.Child)
		sb.WriteString("}")
	case *JoinTreeNode:
		fmt.Fprintf(sb, "join{edges %+v", x.Edges)
		for _, l := range x.Leaves {
			sb.WriteString(" leaf{")
			scan(l.Scan)
			preds(l.Preds)
			sb.WriteString("}")
		}
		sb.WriteString("}")
	case *GroupAggNode:
		fmt.Fprintf(sb, "groupagg{keys %v accs %+v outs %+v pre %+v ", x.Keys, x.Accs, x.Outs, x.Pre)
		dumpNode(sb, x.Child)
		sb.WriteString("}")
	}
}

// TestGoldenCorpus pins the refactor: for every corpus statement the
// MAL program text, the placeholder types, the plan description or
// fallback code, and the error message are what the parent commit
// produced.
func TestGoldenCorpus(t *testing.T) {
	snap := fixedCatalog(t).Snapshot()
	qs := corpus(t)
	selects := 0
	var got strings.Builder
	for _, q := range qs {
		g := golden(snap, q)
		if !strings.Contains(g, "\nnot a SELECT\n") && !strings.Contains(g, "\nparse error: ") {
			selects++
		}
		got.WriteString(g)
	}
	if selects < 40 {
		t.Fatalf("corpus has %d SELECTs, want at least 40", selects)
	}
	for _, q := range regenerated {
		if !strings.Contains(got.String(), "== "+q+"\n") {
			t.Fatalf("regenerated statement %q is not in the corpus", q)
		}
	}
	const path = "testdata/golden.txt"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	// Report per statement, so a diff names what moved.
	wantBy := map[string]string{}
	for _, e := range strings.Split(string(want), "== ") {
		if q, _, ok := strings.Cut(e, "\n"); ok {
			wantBy[q] = "== " + e
		}
	}
	for _, q := range qs {
		if g := golden(snap, q); g != wantBy[q] {
			t.Errorf("golden mismatch\n--- want\n%s--- got\n%s", wantBy[q], g)
		}
	}
}
