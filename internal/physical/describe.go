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
	switch root := p.Root.(type) {
	case *ProjectNode:
		switch child := root.Child.(type) {
		case *SortNode:
			if jt, ok := child.Child.(*JoinTreeNode); ok {
				describeJoinTree(&sb, jt)
				fmt.Fprintf(&sb, " -> %s[col%d%s%s, canonical value ties] -> exchange -> merge-runs -> project",
					sortName(child.Limit), child.Key, descSuffix(child.Desc), limitSuffix(child.Limit))
				break
			}
			sb.WriteString("    ")
			describePipe(&sb, child.Child)
			fmt.Fprintf(&sb, " -> %s[col%d%s%s] -> exchange -> merge-runs -> project",
				sortName(child.Limit), child.Key, descSuffix(child.Desc), limitSuffix(child.Limit))
		case *JoinTreeNode:
			describeJoinTree(&sb, child)
			sb.WriteString(" -> project -> exchange")
		default:
			sb.WriteString("    ")
			describePipe(&sb, root.Child)
			sb.WriteString(" -> project -> exchange")
		}
	case *GroupAggNode:
		if jt, ok := root.Child.(*JoinTreeNode); ok {
			describeJoinTree(&sb, jt)
		} else {
			sb.WriteString("    ")
			describePipe(&sb, root.Child)
		}
		if root.Pre != nil {
			fmt.Fprintf(&sb, " -> expr-project[%d exprs]", len(root.Pre))
		}
		if len(root.Keys) == 0 {
			sb.WriteString(" -> partial-agg -> exchange -> re-agg")
			break
		}
		cols := make([]string, len(root.Keys))
		for i, k := range root.Keys {
			cols[i] = fmt.Sprintf("col%d", k)
		}
		fmt.Fprintf(&sb, " -> group-by[%s] partial-agg -> exchange -> merge by key", strings.Join(cols, ","))
		if root.OrderBy >= 0 {
			fmt.Fprintf(&sb, " -> order-by[item %d%s]", root.OrderBy, descSuffix(root.OrderDesc))
		}
	default:
		fmt.Fprintf(&sb, "    %T", root)
	}
	return sb.String()
}

// Describe renders what one instrumented execution observed: per leaf,
// what data skipping left of its scan; for an ORDER BY, how many rows
// reached the sort, how many of them a LIMIT's cutoff let through, and
// what came out; then, for a join, which leaf the orderer streamed (the
// largest in a sample of its scan) and per join step, in probe order,
// the build side with its estimate (the stream's sampled rows past its
// key filters times the measured multiplier of every step so far)
// against the measured output cardinality, and the key filter the
// build published: its kind, the leaf that applied it, and the rows it
// saw and kept there.
func (s *ExecStats) Describe() string {
	var sb strings.Builder
	for _, sc := range s.Scans {
		fmt.Fprintf(&sb, "scan %s: %d/%d zones, %d/%d rows", sc.Table, sc.ZonesKept, sc.Zones, sc.Rows, sc.TableRows)
		if sc.Deleted > 0 {
			fmt.Fprintf(&sb, ", %d tombstoned", sc.Deleted)
		}
		sb.WriteString("\n")
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
		fmt.Fprintf(&sb, "    join %d: build %s (%d rows), est %d rows -> actual %d rows",
			i+1, j.Build, j.BuildRows, j.EstRows, atomic.LoadInt64(&j.Actual))
		if j.Filter != "" {
			fmt.Fprintf(&sb, ", %s filter on %s: %d -> %d rows",
				j.Filter, j.FilterOn, atomic.LoadInt64(&j.FilterIn), atomic.LoadInt64(&j.FilterKept))
		}
		if j.Grace {
			sb.WriteString(" [grace: partitioned to disk]")
		}
		sb.WriteString("\n")
	}
	return strings.TrimRight(sb.String(), "\n")
}

// describeJoinTree renders an N-way join tree: one build line per edge
// in textual order, then the probe chain. Ends mid-line so the caller
// appends the post-stage.
func describeJoinTree(sb *strings.Builder, jt *JoinTreeNode) {
	for _, e := range jt.Edges {
		sb.WriteString("    build: ")
		describeLeaf(sb, &jt.Leaves[e.B])
		fmt.Fprintf(sb, " -> join-table[key col%d]\n", e.BKey)
	}
	sb.WriteString("    probe: ")
	describeLeaf(sb, &jt.Leaves[0])
	for _, e := range jt.Edges {
		fmt.Fprintf(sb, " -> hash-join[key col%d, shared table]", e.AKey)
	}
	sb.WriteString("\n    (stream leaf and join order chosen per execution by the sampled greedy orderer)")
	sb.WriteString("\n   ")
}

// describeLeaf renders one join leaf (scan, optionally filtered).
func describeLeaf(sb *strings.Builder, lf *JoinLeaf) {
	fmt.Fprintf(sb, "scan %s", lf.Scan.Table)
	describePreds(sb, lf.Preds)
}

// describePipe renders a leaf pipeline (scan, optionally filtered).
func describePipe(sb *strings.Builder, n Node) {
	switch x := n.(type) {
	case *ScanNode:
		fmt.Fprintf(sb, "scan %s", x.Table)
	case *FilterNode:
		describePipe(sb, x.Child)
		describePreds(sb, x.Preds)
	default:
		fmt.Fprintf(sb, "%T", n)
	}
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
