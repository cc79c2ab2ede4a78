package physical

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/sqlfe"
	"repro/internal/vector"
)

// A GROUP BY key takes the direct-address layout only when it is a
// base column whose zone-map domain is known: the same grouping over an
// expression of that column (here k + 0, spliced into the Pre
// projection, which SQL's column-only GROUP BY cannot spell) hashes,
// and both emit the same groups in the same order — single-threaded,
// the one table's first-seen order is the output order.
func TestGroupKeyLayoutFromDomain(t *testing.T) {
	var rows strings.Builder
	for i := 0; i < 40; i++ {
		k, v := fmt.Sprint(i*7%12-2), fmt.Sprint(i%5)
		if i%9 == 4 {
			k = "NULL"
		}
		if i%6 == 1 {
			v = "NULL"
		}
		fmt.Fprintf(&rows, ", (%s, %s)", k, v)
	}
	db := sqlfe.NewDB()
	for _, s := range []string{"CREATE TABLE g (k INT, v INT)", "INSERT INTO g VALUES " + rows.String()[2:]} {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	db, err := sqlfe.Load(dir) // zone-mapped
	if err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	st, err := sqlfe.Parse("SELECT k, count(*), sum(v * 2) FROM g GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	b, err := snap.Bind(st.(*sqlfe.Select))
	if err != nil {
		t.Fatal(err)
	}
	plan, fb := LowerBound(b)
	if plan == nil {
		t.Fatalf("not lowered: %v", fb)
	}
	run := func(p *Plan) ([][]any, *GroupStat) {
		t.Helper()
		stats := &ExecStats{}
		res, _, err := p.Execute(context.Background(), snap, nil, Options{Workers: 1, Stats: stats})
		if err != nil {
			t.Fatal(err)
		}
		defer res.Op.Close()
		var rows [][]any
		for {
			b, err := res.Op.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				return rows, stats.Group
			}
			b.ForEach(func(i int32) {
				row := make([]any, len(b.Cols))
				for c, col := range b.Cols {
					if col.Kind == vector.KindFloat {
						row[c] = col.Floats[i]
					} else {
						row[c] = col.Ints[i]
					}
				}
				rows = append(rows, row)
			})
		}
	}
	dense, dst := run(plan)
	if dst == nil || dst.Layout != "dense [-2,9]" || dst.Groups != 13 || dst.RowsIn.Load() != 40 {
		t.Fatalf("column key: group stat %+v, want dense [-2,9], 13 groups of 40 rows", dst)
	}

	// The same plan with the key k + 0: a copy, the cached plan is shared.
	g := findGroup(plan.Root)
	if g == nil || g.Pre == nil {
		t.Fatal("no GroupAggNode with a Pre projection")
	}
	expr := *g
	expr.Pre = slices.Clone(g.Pre)
	expr.Pre[0] = vector.Bin{Op: vector.EAddIntConstNil, L: g.Pre[0], IntConst: 0}
	hashed := *plan
	hashed.Root = replaceGroup(plan.Root, &expr)
	got, hst := run(&hashed)
	if hst == nil || hst.Layout != "hash" || hst.Groups != 13 {
		t.Fatalf("expression key: group stat %+v, want hash, 13 groups", hst)
	}
	if !slices.EqualFunc(dense, got, slices.Equal[[]any]) {
		t.Fatalf("dense layout emitted %v, hash layout %v", dense, got)
	}
}

func findGroup(n Node) *GroupAggNode {
	switch x := n.(type) {
	case *GroupAggNode:
		return x
	case *ProjectNode:
		return findGroup(x.Child)
	case *SortNode:
		return findGroup(x.Child)
	}
	return nil
}

// replaceGroup returns n with its GroupAggNode swapped for g, copying
// the nodes above it.
func replaceGroup(n Node, g *GroupAggNode) Node {
	switch x := n.(type) {
	case *GroupAggNode:
		return g
	case *ProjectNode:
		c := *x
		c.Child = replaceGroup(x.Child, g)
		return &c
	case *SortNode:
		c := *x
		c.Child = replaceGroup(x.Child, g)
		return &c
	}
	return n
}
