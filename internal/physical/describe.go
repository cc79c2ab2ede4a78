package physical

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Describe renders the plan tree for \plan: one line per pipeline, with
// the Exchange marking where batches cross from the parallel workers to
// the consumer. The rendering is STRUCTURAL (leaves in textual FROM
// order): which leaf streams and in what order the others build is
// decided per execution by the greedy orderer from what the builds
// measured, which \plan reports separately from its instrumented
// execution.
func (p *Plan) Describe() string {
	var sb strings.Builder
	sb.WriteString("vectorized pipeline (physical plan, morsel-parallel exchange):\n")
	describe(&sb, p.Root)
	return sb.String()
}

// describe renders n and everything under it, and reports whether its
// output has crossed the exchange to the consumer.
func describe(sb *strings.Builder, n Node) (crossed bool) {
	switch x := n.(type) {
	case *ScanNode:
		fmt.Fprintf(sb, "    scan %s", x.Table)
	case *FilterNode:
		describe(sb, x.Child)
		describePreds(sb, x.Preds)
	case *JoinTreeNode:
		describeJoinTree(sb, x)
	case *GroupAggNode:
		describe(sb, x.Child)
		if x.Pre != nil {
			fmt.Fprintf(sb, " -> expr-project[%d exprs]", len(x.Pre))
		}
		if len(x.Keys) == 0 {
			sb.WriteString(" -> partial-agg -> exchange -> re-agg")
			return true
		}
		cols := make([]string, len(x.Keys))
		for i, k := range x.Keys {
			cols[i] = fmt.Sprintf("col%d", k)
		}
		fmt.Fprintf(sb, " -> group-by[%s] partial-agg -> exchange -> merge by key", strings.Join(cols, ","))
		return true
	case *SortNode:
		crossed = describe(sb, x.Child)
		fmt.Fprintf(sb, " -> %s[col%d%s%s", sortName(x.Limit), x.Key, descSuffix(x.Desc), limitSuffix(x.Limit))
		if len(x.Ties) > 0 {
			sb.WriteString(", canonical value ties")
		}
		sb.WriteString("]")
		if !crossed {
			sb.WriteString(" -> exchange")
		}
		sb.WriteString(" -> merge-runs")
		return true
	case *ProjectNode:
		crossed = describe(sb, x.Child)
		if _, ok := x.Child.(*GroupAggNode); ok {
			return true // the groups are shaped in output order
		}
		sb.WriteString(" -> project")
		if !crossed {
			sb.WriteString(" -> exchange")
		}
		return true
	default:
		fmt.Fprintf(sb, "    %T", n)
	}
	return false
}

// Describe renders what one instrumented execution observed: per leaf,
// what data skipping left of its scan (the row range binary search on
// sorted columns cut it to, if any, and whether it streamed inline on
// the caller's goroutine rather than through an Exchange); for a GROUP
// BY, the rows its tables folded, the groups out, the layout the tables
// took (direct-address over the key's zone-map domain, or hashed) and
// the partials the merge folded, or the grace partitions; for an ORDER
// BY, how many rows reached the sort, how many of them a LIMIT's cutoff
// let through, and what came out; then, for a join, which leaf the
// orderer streamed (the largest in a sample of its scan) and per join
// step, in probe order, the build side with its estimate (the stream's
// sampled rows past its key filters times the measured multiplier of
// every step so far) against the measured output cardinality, the
// columns its output carries (only those a later step or the nodes
// above read), and the key filter the build published: its kind, the
// leaf that applied it, and the rows it saw and kept there. A step that
// filter answered alone, with no table and no probe, is marked semi.
func (s *ExecStats) Describe() string {
	var sb strings.Builder
	for _, sc := range s.Scans {
		fmt.Fprintf(&sb, "scan %s: %d/%d zones, %d/%d rows", sc.Table, sc.ZonesKept, sc.Zones, sc.Rows, sc.TableRows)
		if sc.Search != "" {
			fmt.Fprintf(&sb, ", rows [%d,%d) by binary search on %s", sc.Lo, sc.Hi, sc.Search)
		}
		if sc.Inline {
			sb.WriteString(", inline")
		}
		if sc.Deleted > 0 {
			fmt.Fprintf(&sb, ", %d tombstoned", sc.Deleted)
		}
		sb.WriteString("\n")
	}
	if g := s.Group; g != nil {
		fmt.Fprintf(&sb, "group: %d rows in, %d groups, %s", g.RowsIn.Load(), g.Groups, g.Layout)
		if c := g.Converted.Load(); c > 0 {
			fmt.Fprintf(&sb, " (%d tables converted to hash)", c)
		}
		if g.Partitions > 0 {
			fmt.Fprintf(&sb, ", %d grace partitions\n", g.Partitions)
		} else {
			fmt.Fprintf(&sb, ", %d partials merged\n", g.Partials.Load())
		}
	}
	if st := s.Sort; st != nil {
		fmt.Fprintf(&sb, "sort %s: %d rows in, ", st.Input, st.RowsIn.Load())
		if c := st.Compactions.Load(); c > 0 {
			fmt.Fprintf(&sb, "%d past cutoff, %d compactions, ", st.PastCutoff.Load(), c)
		}
		fmt.Fprintf(&sb, "%d kept, %d spilled runs\n", st.Kept.Load(), st.SpilledRuns.Load())
	}
	if len(s.Joins) == 0 {
		return strings.TrimRight(sb.String(), "\n")
	}
	sb.WriteString("join order (greedy, from the measured builds):\n")
	fmt.Fprintf(&sb, "    stream: scan %s\n", s.Stream)
	for i, j := range s.Joins {
		fmt.Fprintf(&sb, "    join %d: build %s (%d rows), est %d rows -> actual %d rows of %d columns",
			i+1, j.Build, j.BuildRows, j.EstRows, atomic.LoadInt64(&j.Actual), j.Cols)
		if j.Filter != "" {
			fmt.Fprintf(&sb, ", %s filter on %s: %d -> %d rows",
				j.Filter, j.FilterOn, atomic.LoadInt64(&j.FilterIn), atomic.LoadInt64(&j.FilterKept))
		}
		if j.Grace {
			sb.WriteString(" [grace: partitioned to disk]")
		}
		if j.Semi {
			sb.WriteString(" [semi: answered by its bitmap filter]")
		}
		sb.WriteString("\n")
	}
	return strings.TrimRight(sb.String(), "\n")
}

// describeJoinTree renders an N-way join tree: one build line per edge
// in textual order, then the probe chain. Whether a step builds a table
// and probes it, or is a semi step its build's bitmap filter answers
// alone, is decided per execution from the measured build, so each
// step reads as either. Ends mid-line so the caller appends the
// post-stage.
func describeJoinTree(sb *strings.Builder, jt *JoinTreeNode) {
	for _, e := range jt.Edges {
		sb.WriteString("    build: ")
		describeLeaf(sb, &jt.Leaves[e.B])
		fmt.Fprintf(sb, " -> join-table[key col%d] or semi\n", e.BKey)
	}
	sb.WriteString("    probe: ")
	describeLeaf(sb, &jt.Leaves[0])
	for _, e := range jt.Edges {
		fmt.Fprintf(sb, " -> hash-join[key col%d, shared table] or semi", e.AKey)
	}
	sb.WriteString("\n    (stream leaf and join order chosen per execution by the sampled greedy orderer;")
	sb.WriteString("\n    a semi step, a payload-free build over unique keys, is answered by its bitmap filter: no table, no probe)")
	sb.WriteString("\n   ")
}

// describeLeaf renders one join leaf (scan, optionally filtered).
func describeLeaf(sb *strings.Builder, lf *JoinLeaf) {
	fmt.Fprintf(sb, "scan %s", lf.Scan.Table)
	describePreds(sb, lf.Preds)
}

func describePreds(sb *strings.Builder, preds []Pred) {
	if len(preds) == 0 {
		return
	}
	sb.WriteString(" -> filter[")
	for i, p := range preds {
		if i > 0 {
			sb.WriteString(" AND ")
		}
		switch {
		case p.Op == "isnull":
			fmt.Fprintf(sb, "col%d is null", p.Col)
		case p.Op == "isnotnull":
			fmt.Fprintf(sb, "col%d is not null", p.Col)
		case p.Param > 0:
			fmt.Fprintf(sb, "col%d %s ?%d", p.Col, p.Op, p.Param)
		default:
			fmt.Fprintf(sb, "col%d %s lit", p.Col, p.Op)
		}
	}
	sb.WriteString("]")
}

func descSuffix(desc bool) string {
	if desc {
		return " desc"
	}
	return ""
}

// sortName names the run stage: under a LIMIT the runs are bounded
// top-N selections, not sorts of everything that qualifies.
func sortName(limit int) string {
	if limit >= 0 {
		return "top-n"
	}
	return "sort-runs"
}

func limitSuffix(limit int) string {
	if limit >= 0 {
		return fmt.Sprintf(" limit %d", limit)
	}
	return ""
}
