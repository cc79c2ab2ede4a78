package engine_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// A join step carries only the columns still live after it: those the
// nodes above read, and the probe keys of the steps after it. Joins
// whose consumers read one column per leaf must still match the
// reference at workers 1, 2 and 4, with no budget and under one that
// degrades steps to grace hash, and every step's \plan line must report
// exactly that many columns.
func TestJoinLiveColumns(t *testing.T) {
	var cells []*cell
	for _, w := range []int{1, 2, 4} {
		cells = append(cells, &cell{workers: w}, &cell{workers: w, budget: graceBudget})
	}
	// dh is big enough to degrade at graceBudget, as in
	// TestGraceNWayJoinEngineOracle.
	d := newDriver(t, 36, spec{scale: 8}, 0, cells...)
	for _, s := range diffStages[0].dml(d.m) {
		if _, err := d.mal.Exec(s); err != nil {
			t.Fatalf("MAL: %.80s: %v", s, err)
		}
		for _, c := range cells {
			if _, err := c.db.Exec(bg, s); err != nil {
				t.Fatalf("%s: %.80s: %v", c, s, err)
			}
		}
	}
	d.refs, d.mals = map[*dQuery][][]any{}, map[*dQuery][][]any{}

	ref := func(s string) dRef { t, c, _ := strings.Cut(s, "."); return dRef{t, c} }
	item := func(agg, s string) dItem { return dItem{agg: agg, e: col(ref(s))} }
	d1, d2, rg, dh := dJoin{a: ref("f.a"), b: ref("d1.k")}, dJoin{a: ref("f.b"), b: ref("d2.k")},
		dJoin{a: ref("d1.r"), b: ref("rg.k")}, dJoin{a: ref("f.h"), b: ref("dh.k")}
	queries := []*dQuery{
		{from: "f", joins: []dJoin{d1, dh}, items: []dItem{item("", "f.g"), item("", "d1.p"), item("", "dh.p")}},
		{from: "f", joins: []dJoin{d1, d2, rg}, items: []dItem{item("", "f.v"), item("", "d1.y"), item("", "d2.p"), item("", "rg.p")}},
		{from: "f", joins: []dJoin{dh, d1, rg}, items: []dItem{item("", "f.v"), item("", "d1.y"), item("", "dh.p"), item("", "rg.p")}},
		{from: "f", joins: []dJoin{d2, dh}, items: []dItem{item("", "dh.p"), {agg: "count", star: true}, item("max", "d2.p"), item("sum", "f.g")},
			group: []dRef{ref("dh.p")}},
		{from: "f", joins: []dJoin{d1, rg, dh}, items: []dItem{item("min", "f.v"), item("max", "d1.y"), item("sum", "dh.p"), item("count", "rg.p")}},
	}
	graced := 0
	for _, q := range queries {
		q.order, q.limit = -1, -1
		for _, c := range cells {
			if why := d.check(q, target{c.String(), through(c.db.Query), c}); why != "" {
				t.Fatalf("%s: %s\n  %s", c, q, why)
			}
			text, _ := q.sql(false)
			plan, err := c.db.Conn().Plan(text)
			if err != nil {
				t.Fatalf("%s: %s: %v", c, q, err)
			}
			stream, steps := liveColumnSteps(t, plan)
			if stream == "" || len(steps) != len(q.joins) {
				t.Fatalf("%s: %s: %d join steps in\n%s", c, q, len(steps), plan)
			}
			for s, st := range steps {
				if want := liveColumns(q, stream, steps, s); st.cols != want {
					t.Fatalf("%s: %s: join %d (build %s) carries %d columns, want %d\n%s", c, q, s+1, st.build, st.cols, want, plan)
				}
				if st.grace {
					graced++
				}
			}
		}
	}
	if graced == 0 {
		t.Fatal("no join step degraded to grace hash under the budget")
	}
}

// liveColumnStep is one `join k:` line of \plan.
type liveColumnStep struct {
	build string
	cols  int
	grace bool
}

// liveColumnSteps reads the stream and the join steps, in probe order,
// from a \plan observation.
func liveColumnSteps(t *testing.T, plan string) (stream string, steps []liveColumnStep) {
	for _, line := range strings.Split(plan, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == "stream:" {
			stream = f[2]
		}
		if len(f) < 4 || f[0] != "join" || f[2] != "build" {
			continue
		}
		st := liveColumnStep{build: f[3], grace: strings.Contains(line, "[grace")}
		i := strings.Index(line, " rows of ")
		if _, err := fmt.Sscanf(line[max(i, 0):], " rows of %d columns", &st.cols); err != nil {
			t.Fatalf("no column count in %q", line)
		}
		steps = append(steps, st)
	}
	return stream, steps
}

// liveColumns counts the columns live after step s: of the stream and
// the leaves built so far, the columns q's items read and the keys the
// later steps probe on.
func liveColumns(q *dQuery, stream string, steps []liveColumnStep, s int) int {
	joined := []string{stream}
	for _, st := range steps {
		joined = append(joined, st.build)
	}
	in := joined[:s+2]
	var live []dRef
	add := func(r dRef) {
		if slices.Contains(in, r.t) && !slices.Contains(live, r) {
			live = append(live, r)
		}
	}
	for _, it := range q.items {
		if !it.star {
			add(it.e.l.dRef)
		}
	}
	for _, later := range joined[s+2:] {
		for _, j := range q.joins {
			if j.b.t == later {
				add(j.a)
			} else if j.a.t == later {
				add(j.b)
			}
		}
	}
	return len(live)
}
