// Package physical is the composable physical-plan layer between the
// SQL front-end and the vectorized execution engine. It replaces the
// monolithic per-query-shape bridge with a small TREE of physical
// operators — Scan, Filter, Project, HashJoin, GroupAgg, Sort — each
// lowered onto the morsel-parallel vector engine (every instantiated
// operator implements vector.Operator's Open/Next/Close contract, with
// ctx cancellation observed at morsel boundaries), so eligibility for
// the vectorized path is decided per OPERATOR, not per query shape.
//
// Lowering has two stages with different lifetimes, mirroring the
// prepared-statement model:
//
//   - LowerBound runs at Prepare time and is purely structural: it walks
//     the sqlfe.Bound the binder resolved and either emits a plan tree
//     (unresolved ? slots left in the predicate specs) or a typed
//     Fallback carrying a machine-readable reason code — there is no
//     silent "return nil", and no error: what is illegal the binder has
//     already rejected.
//
//   - Plan.Execute runs per Query: it binds the ? slots through the same
//     sqlfe.CoerceArg rules as the MAL interpreter, picks nil-aware
//     filter primitives per the columns' NoNil property, prunes zones,
//     consults the radix cost models (join build side, serial-vs-run
//     sort), and, in one walk over the tree, instantiates Exchange
//     pipelines over zero-copy snapshot column slices whose scans
//     filter the snapshot's tombstones. No snapshot disqualifies a
//     lowered plan: routing is fixed at LowerBound.
package physical

import (
	"fmt"
	"runtime"

	"repro/internal/memgov"
	"repro/internal/spill"
	"repro/internal/sqlfe"
	"repro/internal/vector"
)

// Fallback is a typed "run this on MAL instead" decision. Code is the
// stable machine-readable reason (surfaced by \plan); Detail narrows it
// for humans.
type Fallback struct {
	Code   string
	Detail string
}

// Fallback reason codes, all structural: they come out of LowerBound
// and depend on the statement alone, never on the data. Each says what
// the vector engine does not do; none stands for an error — an illegal
// statement never gets past sqlfe.Snapshot.Bind.
const (
	ReasonTextColumn   = "text-column"            // a referenced column is TEXT; the pipeline moves int/float vectors
	ReasonExprInSelect = "expression-in-select"   // PLAIN (non-aggregated) arithmetic select items are not lowered; expressions inside aggregates are
	ReasonGroupKeyType = "group-key-not-int"      // the grouping table keys int64 tuples
	ReasonOrderKeyType = "order-key-not-sortable" // ORDER BY key is TEXT
	ReasonJoinKeyType  = "join-key-not-int"       // the shared open-addressing table keys int64
)

func (f *Fallback) String() string {
	if f.Detail == "" {
		return "reason=" + f.Code
	}
	return "reason=" + f.Code + " (" + f.Detail + ")"
}

func fallback(code, detail string, args ...any) *Fallback {
	if len(args) > 0 {
		detail = fmt.Sprintf(detail, args...)
	}
	return &Fallback{Code: code, Detail: detail}
}

// Options carry the execution knobs of the engine into plan
// instantiation. Zero values mean the engine defaults.
type Options struct {
	Workers int // <= 0: GOMAXPROCS
	// MorselSize and VectorSize pin the morsel and vector lengths. No
	// deployment sets them; tests do, so small tables still run as many
	// morsels of small vectors.
	MorselSize int // <= 0: derived by the Exchange from rows and workers
	VectorSize int // <= 0: vector.DefaultSize

	// Gov is the query's live memory ledger; nil runs ungoverned. The
	// memory-hungry operators (sort runs, grouping tables, join builds)
	// charge it as they materialize and a denied charge either fails the
	// query (memgov.Reject) or degrades it out of core (memgov.Spill).
	Gov *memgov.Reservation
	// Spill is the query's spill-file scope; nil means spilling is
	// unavailable and a denied charge always fails the query.
	Spill *spill.Scope

	// Stats, when set, collects per-execution join-ordering observations
	// (chosen order, estimated and actual intermediate cardinalities) for
	// EXPLAIN-style reporting. It MUST be per-call state: plan trees are
	// cached and shared across sessions, so runtime counters never live
	// on the nodes themselves.
	Stats *ExecStats
}

// ExecStats is the per-execution observation collector \plan renders.
type ExecStats struct {
	Scans  []ScanStat  // one per bound leaf, in FROM order, filled at bind
	Stream string      // name of the streamed (probe) leaf table
	Joins  []*JoinStat // one per executed join step, in execution order
	Sort   *SortStat   // what the ORDER BY did; nil when nothing was sorted
}

// SortStat is one executed ORDER BY: what it ordered and the live
// counters its runs and merge fill in (complete once the result is
// drained).
type SortStat struct {
	Input string // a table name, "join output" or "groups"
	*vector.SortStats
}

// ScanStat is what data skipping left of one leaf's scan: the zones
// the scan still visits, and the positions handed to the pipeline
// (surviving zones plus the rows appended since the zone maps were
// built, which no zone covers, cut to the sorted range) out of the
// table's, with how many of the table's positions are tombstoned (the
// scan filters them).
type ScanStat struct {
	Table            string
	ZonesKept, Zones int
	Rows, TableRows  int
	Deleted          int
	// Search names the sorted columns ("t.a, t.b") whose comparisons
	// binary search turned into the row range [Lo, Hi); "" for none.
	Search string
	Lo, Hi int
	// Inline: the leaf streamed on the caller's goroutine, without an
	// Exchange (one morsel, or one worker).
	Inline bool
}

// JoinStat is one executed join step of an N-way tree.
type JoinStat struct {
	Build     string // the table drained into the hash table at this step
	BuildRows int64  // rows it hashed (post-filter)
	EstRows   int64  // stream rows past its filters (sampled) × the multipliers so far
	Actual    int64  // observed output rows (updated atomically during execution)
	Cols      int    // columns the output carries: those still live past the step
	Grace     bool   // step degraded to grace-hash partitioning
	Semi      bool   // its bitmap filter answered the step: no table, no probe

	// The key filter the build published: "bitmap" (exact), "range"
	// (min/max), or "" when the build degraded before it had keys to
	// publish. FilterOn is the table whose scan applied it; FilterIn and
	// FilterKept count the rows that reached it there and the rows it let
	// through (updated atomically during execution).
	Filter               string
	FilterOn             string
	FilterIn, FilterKept int64
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// canSpill reports whether over-grant operators may degrade to disk.
func (o Options) canSpill() bool {
	return o.Gov.CanSpill() && o.Spill != nil
}

// --- the plan tree ---

// Node is one operator of the physical plan tree. Nodes are pure
// descriptions — Execute instantiates them against a snapshot.
type Node interface{ node() }

// ScanNode reads one table's referenced columns through a
// morsel-parallel exchange of zero-copy snapshot slices.
type ScanNode struct {
	Table string
	// Cols are the referenced table column indexes, in pipeline order;
	// Types/Names are per pipeline column.
	Cols  []int
	Types []sqlfe.ColType
	Names []string
}

func (*ScanNode) node() {}

// col registers a table column in the scan on first use, returning its
// pipeline position. The planner routes TEXT columns to MAL before they
// get here: the pipeline moves int and float vectors only.
func (s *ScanNode) col(tableCol int, t sqlfe.ColType, name string) int {
	for i, c := range s.Cols {
		if c == tableCol {
			return i
		}
	}
	s.Cols = append(s.Cols, tableCol)
	s.Types = append(s.Types, t)
	s.Names = append(s.Names, name)
	return len(s.Cols) - 1
}

// Pred is one WHERE conjunct over a pipeline column; the comparison
// value is a literal or a ? slot resolved at execution time. The nil
// tests carry no value.
type Pred struct {
	Col   int    // pipeline column position
	Op    string // "=", "<>", "<", "<=", ">", ">=", "isnull", "isnotnull"
	Type  sqlfe.ColType
	Lit   sqlfe.Lit
	Param int
}

// FilterNode refines its child's selection vectors with pre-compiled
// predicate primitives.
type FilterNode struct {
	Child Node
	Preds []Pred
}

func (*FilterNode) node() {}

// ProjectNode picks output columns, by position into the child's
// columns (a SortNode passes its child's through; under a JoinTreeNode:
// VIRTUAL positions — the FROM-order concatenation of the leaves'
// pipeline columns, regardless of the join order the executor later
// picks). It is the root of every plan.
type ProjectNode struct {
	Child Node
	Outs  []int
}

func (*ProjectNode) node() {}

// JoinLeaf is one base-table input of an N-way join tree: its scan and
// the WHERE conjuncts that filter it before any join sees it.
type JoinLeaf struct {
	Scan  *ScanNode
	Preds []Pred
}

// JoinEdge is one INT equi-join edge between two leaves. Keys are
// pipeline positions WITHIN each leaf's scan columns.
type JoinEdge struct {
	A, B       int // leaf indexes; B is the leaf the edge's JOIN clause introduced
	AKey, BKey int
}

// JoinTreeNode is an N-way INT equi-join over a TREE of leaves (the
// grammar admits exactly one edge per joined table, so the graph is a
// tree by construction — no cycles, no cross products). The node is
// pure structure: WHICH leaf streams and in WHAT order the others are
// probed is decided per execution from measured facts, no statistics
// kept. The stream is the leaf whose filters pass the most rows in a
// strided sample of its scan. Every other leaf becomes a serial
// hash-table build, children-first over the tree rooted at the stream
// (memory charged to the query governor; an over-grant build degrades
// to grace-hash partitioning instead of failing), and publishes a key
// filter on its probe side. The probes are then ordered greedily along
// tree edges, smallest multiplier first: the output rows one probe row
// past the filter yields, from the build's exact rows and keys. The
// stream flows through the chain of probes in morsel-parallel worker
// pipelines. Nil keys never match — SQL three-valued logic, enforced
// once inside the table.
type JoinTreeNode struct {
	Leaves []JoinLeaf
	Edges  []JoinEdge // Edges[k] joins leaf k+1 into the prefix (textual order)
}

func (*JoinTreeNode) node() {}

// AccSpec is one per-worker accumulator (a partial-aggregate column).
type AccSpec struct {
	Kind vector.AggKind
	Col  int // pipeline column; -1 for AggCount
}

// AggOut maps one select-list item onto accumulators.
type AggOut struct {
	Key    bool // grouped mode: this item IS group key KeyIdx
	KeyIdx int  // which group key (0-based) when Key
	Fn     sqlfe.AggFn
	Acc    int  // main accumulator; -1 for key items
	CntAcc int  // non-nil count shaping sum/avg NULL; -1 when unused
	Flt    bool // float-typed result
}

// GroupAggNode aggregates its child per group of any number of INT key
// columns; every key width rides the one radix.GroupTable, in
// per-worker partial tables merged by key. No keys is a global
// aggregate: one group, emitted even over no rows. It emits one column
// per Outs entry, in order.
//
// Pre, when non-nil, is a per-worker expression projection inserted
// between the child pipeline and the aggregation: Keys and Accs then
// index Pre's OUTPUT columns, which is how aggregates over arithmetic
// (sum(a+b), avg(a*2)) lower — the nil-propagating expression kernels
// compute the argument column morsel-by-morsel, and the aggregation
// never knows it consumed an expression. Pre's ColRef leaves index the
// child's pipeline columns (virtual positions for a JoinTreeNode
// child; the executor remaps them to the chosen join order's
// intermediate layout without mutating the shared plan).
type GroupAggNode struct {
	Child Node
	Keys  []int // key positions (child pipeline, or Pre outputs when Pre != nil); empty = global
	Accs  []AccSpec
	Outs  []AggOut
	Pre   []vector.Expr // optional expression projection feeding Keys/Accs
}

func (*GroupAggNode) node() {}

// SortNode orders its child by one key column: per-worker sorted runs
// (vector.SortRun over the morsels each worker claimed) k-way merged by
// vector.MergeRuns. A LIMIT makes every run a bounded top-N selection
// behind a cutoff the workers share, and stops the merge.
//
// Over a single table, ties break on the global row id, so the order
// is exactly the MAL interpreter's stable sort (descending = its exact
// reverse); nil keys sort first ascending. Over a JOIN TREE there is
// no meaningful "original order" — match order is nondeterministic on
// both engines — so Ties lists the output columns (virtual positions)
// instead and both executors produce the canonical lexicographic
// (key, outputs...) order; rows equal on all of them are identical.
// Over a GroupAggNode the key is a select item and Ties are the group
// keys the node emits after the items: group rows are unique on them,
// so the order is total, the MAL program's canonical stable-sort chain.
type SortNode struct {
	Child Node
	Key   int   // position of the sort key (virtual over a join tree)
	Ties  []int // canonical value tiebreaks (virtual positions); nil = row-id ties
	Desc  bool
	Limit int // -1 = none
}

func (*SortNode) node() {}

// Plan is a lowered SELECT: the operator tree plus the row budget and
// the output labels (the binder's, so both executors label
// identically). Every tree has one skeleton, Project ← Sort? ←
// GroupAgg? ← pipeline, where the pipeline is a Scan, a Filter over a
// Scan, or a JoinTreeNode.
type Plan struct {
	Root  Node
	Limit int // -1 = none
	Names []string
}
