package physical

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/bat"
	"repro/internal/memgov"
	"repro/internal/radix"
	"repro/internal/sqlfe"
	"repro/internal/vector"
)

// Result is an instantiated plan: an OPENED operator streaming the
// result batches (the caller owns Close) and the row budget the cursor
// must enforce.
type Result struct {
	Op    vector.Operator
	Limit int
}

// Execute instantiates the plan over a snapshot: stage builds every
// node's operators bottom-up and the root's stream is the result. A
// non-nil error is a real binding/execution error that would fail on
// either engine. The *Fallback result is always nil — no snapshot
// disqualifies a lowered plan since scans filter tombstones — and stays
// in the signature for callers outside this module (bench/probes.go).
func (p *Plan) Execute(ctx context.Context, snap *sqlfe.Snapshot, args []any, opts Options) (*Result, *Fallback, error) {
	pl, err := p.stage(ctx, snap, args, opts, p.Root, nil)
	if err != nil {
		return nil, nil, err
	}
	op, _ := pl.run(opts.workers(), false, func(in vector.Operator) vector.Operator { return in })
	if err := op.Open(); err != nil {
		return nil, nil, err
	}
	return &Result{Op: op, Limit: p.Limit}, nil, nil
}

// stage instantiates node n and everything under it, returning the
// pipeline its parent composes over. It is the one walk that builds a
// plan's operators: a leaf (scan, filtered scan, join tree) yields a
// morsel-parallel pipeline, a projection stacks on its child's stream,
// and an aggregation or a sort ends the parallel part, leaving a serial
// pipeline over its output. live marks the columns of n's output that
// the nodes above read (nil: all of them); a join tree carries no
// other column past the step that last needs it.
func (p *Plan) stage(ctx context.Context, snap *sqlfe.Snapshot, args []any, opts Options, n Node, live colSet) (*pipeline, error) {
	var child Node
	switch x := n.(type) {
	case *JoinTreeNode:
		return p.joinPipeline(ctx, snap, args, opts, x, live)
	case *ScanNode, *FilterNode:
		return leafPipeline(ctx, snap, args, opts, n)
	case *ProjectNode:
		child = x.Child
	case *SortNode:
		child = x.Child
	case *GroupAggNode:
		child = x.Child
	default:
		return nil, fmt.Errorf("physical: unexecutable plan node %T", n)
	}
	if overJoin(child) { // a scan streams its columns zero-copy, live or not
		live = reads(n, live)
	}
	pl, err := p.stage(ctx, snap, args, opts, child, live)
	if err != nil {
		return nil, err
	}
	switch x := n.(type) {
	case *ProjectNode:
		pl.project(x.Outs)
	case *SortNode:
		pl.sort(x, sortInput(child))
	case *GroupAggNode:
		if err := pl.group(x); err != nil {
			return nil, err
		}
	}
	return pl, nil
}

// overJoin reports whether the pipeline at the bottom of n is a join
// tree.
func overJoin(n Node) bool {
	for {
		switch x := n.(type) {
		case *JoinTreeNode:
			return true
		case *ProjectNode:
			n = x.Child
		case *SortNode:
			n = x.Child
		case *GroupAggNode:
			n = x.Child
		default:
			return false
		}
	}
}

// colSet marks the columns of a node's output that its consumers read;
// the nil set reads every column.
type colSet []bool

func (s colSet) has(c int) bool { return s == nil || c < len(s) && s[c] }

// with adds cols to s, in place when s has room (nil stays nil).
func (s colSet) with(cols ...int) colSet {
	if s == nil {
		return nil
	}
	n := len(s)
	for _, c := range cols {
		n = max(n, c+1)
	}
	if n > len(s) {
		s = append(s, make(colSet, n-len(s))...)
	}
	for _, c := range cols {
		s[c] = true
	}
	return s
}

// reads is the set of its child's columns node n reads, of which the
// nodes above it read live: a projection its outputs, a sort those and
// its key and ties, an aggregation the column references of its Pre
// projection, or its keys and its accumulators' arguments.
func reads(n Node, live colSet) colSet {
	switch x := n.(type) {
	case *ProjectNode:
		return colSet{}.with(x.Outs...)
	case *SortNode:
		return live.with(x.Key).with(x.Ties...)
	case *GroupAggNode:
		if x.Pre != nil {
			var cols []int
			for _, e := range x.Pre {
				cols = exprCols(e, cols)
			}
			return colSet{}.with(cols...)
		}
		s := colSet{}.with(x.Keys...)
		for _, a := range x.Accs {
			if a.Col >= 0 {
				s = s.with(a.Col)
			}
		}
		return s
	}
	return nil
}

// exprCols appends the columns e's ColRef leaves read to cols.
func exprCols(e vector.Expr, cols []int) []int {
	switch x := e.(type) {
	case vector.ColRef:
		return append(cols, x.Idx)
	case vector.Bin:
		if x.L != nil {
			cols = exprCols(x.L, cols)
		}
		if x.R != nil {
			cols = exprCols(x.R, cols)
		}
	}
	return cols
}

// DataFallback always returns nil: routing no longer depends on the
// snapshot. It stays for callers outside this module (bench/probes.go).
func (p *Plan) DataFallback(*sqlfe.Snapshot) *Fallback { return nil }

// pipe splits a leaf pipeline (Scan or Filter-over-Scan) into its parts.
func pipe(n Node) (*ScanNode, []Pred, error) {
	switch x := n.(type) {
	case *ScanNode:
		return x, nil, nil
	case *FilterNode:
		s, ok := x.Child.(*ScanNode)
		if !ok {
			return nil, nil, fmt.Errorf("physical: filter over %T", x.Child)
		}
		return s, x.Preds, nil
	}
	return nil, nil, fmt.Errorf("physical: %T is not a scan pipeline", n)
}

// boundScan is a ScanNode bound to one snapshot: zero-copy column
// slices that filter the snapshot's tombstones plus, per pipeline
// column, the NoNil property driving nil-aware primitive selection,
// the Sorted property of an INT column turning its comparisons into
// binary searches, and the zone map of its leading rows.
type boundScan struct {
	table  string
	src    *vector.Source
	noNil  []bool
	sorted []bool
	zones  []*sqlfe.ZoneMap
	zoned  int // leading positions the zone maps cover
}

// bind resolves the scan's columns against the snapshot.
func bind(s *ScanNode, snap *sqlfe.Snapshot) (*boundScan, error) {
	t, err := snap.Table(s.Table)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(s.Cols))
	cols := make([]vector.Col, len(s.Cols))
	noNil := make([]bool, len(s.Cols))
	sorted := make([]bool, len(s.Cols))
	zones := make([]*sqlfe.ZoneMap, len(s.Cols))
	for i, ci := range s.Cols {
		// The snapshot's own header: its properties hold for exactly the
		// positions it covers, whatever the live column appended since.
		b := t.ColumnBAT(ci)
		noNil[i] = b.Props().NoNil
		zones[i] = t.ZoneMap(ci)
		names[i] = t.ColNames[ci]
		switch s.Types[i] {
		case sqlfe.TInt:
			sorted[i] = b.Props().Sorted
			cols[i] = vector.Col{Kind: vector.KindInt, Ints: b.Ints()}
		case sqlfe.TFloat:
			cols[i] = vector.Col{Kind: vector.KindFloat, Floats: b.Floats()}
		default:
			return nil, fmt.Errorf("physical: column %s.%s is not numeric", s.Table, names[i])
		}
	}
	// Every position, tombstoned ones included: the scan's selection
	// vectors drop those, so a column-free count(*) counts live rows.
	src, err := vector.NewSourceWithLen(names, cols, t.TotalPositions())
	if err != nil {
		return nil, err
	}
	src = src.WithDeleted(t.Deleted())
	return &boundScan{table: s.Table, src: src, noNil: noNil, sorted: sorted, zones: zones, zoned: t.ZonedRows()}, nil
}

// search returns the positions [lo,hi) of a sorted INT column whose
// values satisfy `column op v`: two binary searches over the snapshot's
// positions, tombstoned ones included (the scan still drops those).
// The nil sentinel sorts first and satisfies no comparison, so a nil
// prefix is skipped. ok is false for anything else — another operator,
// an unsorted or FLOAT column, or a nil-sentinel constant, which the
// scan's own primitives define the meaning of. (Only the first 64
// columns of a scan search: sortedRange marks them in one word.)
func (bs *boundScan) search(col int, op string, v int64) (lo, hi int, ok bool) {
	if col >= 64 || !bs.sorted[col] || v == bat.NilInt {
		return 0, 0, false
	}
	vals := bs.src.Cols[col].Ints
	// first is the first position at or after from whose value exceeds x
	// (or, with eq, reaches it).
	first := func(from int, x int64, eq bool) int {
		return from + sort.Search(len(vals)-from, func(i int) bool {
			return vals[from+i] > x || eq && vals[from+i] == x
		})
	}
	lo, hi = 0, len(vals)
	if (op == "<" || op == "<=") && !bs.noNil[col] {
		lo = first(0, bat.NilInt, false)
	}
	switch op {
	case "=":
		lo = first(0, v, true)
		hi = first(lo, v, false)
	case "<":
		hi = first(lo, v, true)
	case "<=":
		hi = first(lo, v, false)
	case ">":
		lo = first(0, v, false)
	case ">=":
		lo = first(0, v, true)
	default:
		return 0, 0, false
	}
	return lo, hi, true
}

// predOp maps a SQL comparison to the vectorized primitive, picking the
// nil-aware variant exactly when the column may hold nils and the plain
// loop would let the sentinel qualify (<, <=, <> on INT — bat.NilInt is
// the domain minimum). Float comparisons are NaN-correct as-is.
func predOp(op string, ct sqlfe.ColType, noNil bool) (vector.PredOp, bool) {
	if ct == sqlfe.TInt {
		switch op {
		case "isnull":
			return vector.PredIsNull, true
		case "isnotnull":
			return vector.PredIsNotNull, true
		case "=":
			return vector.PredEq, true
		case "<>":
			if noNil {
				return vector.PredNe, true
			}
			return vector.PredNeNil, true
		case "<":
			if noNil {
				return vector.PredLt, true
			}
			return vector.PredLtNil, true
		case "<=":
			if noNil {
				return vector.PredLe, true
			}
			return vector.PredLeNil, true
		case ">":
			return vector.PredGt, true
		case ">=":
			return vector.PredGe, true
		}
		return 0, false
	}
	switch op {
	case "isnull":
		return vector.PredIsNullF, true
	case "isnotnull":
		return vector.PredIsNotNullF, true
	case "=":
		return vector.PredEqF, true
	case "<>":
		return vector.PredNeF, true
	case "<":
		return vector.PredLtF, true
	case "<=":
		return vector.PredLeF, true
	case ">":
		return vector.PredGtF, true
	case ">=":
		return vector.PredGeF, true
	}
	return 0, false
}

// bindPreds resolves predicate specs against bound arguments, through
// the same sqlfe.CoerceArg rules as the MAL path. Nil tests
// short-circuit on the column's NoNil property — the same
// property-driven dispatch batalg.SelectNil/SelectNotNil apply: an IS
// NOT NULL over a nil-free column is always true and drops out of the
// predicate list; an IS NULL over one is always false, reported via
// empty so the caller scans nothing at all.
//
// A comparison on a sorted INT column becomes a row range instead
// (boundScan.search): the conjuncts' ranges intersect into srt, and the
// predicate leaves out and the zone maps alone, since the range holds
// exactly the positions that satisfy it.
//
// Every other bound predicate is tested against the zone map of its
// column: keep[z] ends up false for each zone of the table's main part
// that some conjunct proves holds no qualifying row (nil when no
// predicate had a zone map to consult). Those predicates all stay in
// out — the Filter still evaluates them — so keep can only remove work.
func bindPreds(preds []Pred, bs *boundScan, args []any) (out []vector.Pred, keep []bool, srt sortedRange, empty bool, err error) {
	out = make([]vector.Pred, 0, len(preds))
	srt.hi = bs.src.Len()
	for _, p := range preds {
		if p.Op == "isnotnull" && bs.noNil[p.Col] {
			continue
		}
		if p.Op == "isnull" && bs.noNil[p.Col] {
			empty = true
			continue
		}
		op, ok := predOp(p.Op, p.Type, bs.noNil[p.Col])
		if !ok {
			return nil, nil, srt, false, fmt.Errorf("physical: unsupported operator %q", p.Op)
		}
		vp := vector.Pred{ColIdx: p.Col, Op: op}
		if p.Op != "isnull" && p.Op != "isnotnull" {
			lit := p.Lit
			if p.Param > 0 {
				if lit, err = sqlfe.CoerceArg(args[p.Param-1], p.Type, p.Param); err != nil {
					return nil, nil, srt, false, err
				}
			}
			if p.Type == sqlfe.TInt {
				vp.IntVal = lit.I
			} else {
				vp.FltVal = lit.F // the binder widened an INT literal already
			}
		}
		if lo, hi, ok := bs.search(p.Col, p.Op, vp.IntVal); ok {
			srt.lo, srt.hi, srt.on = max(srt.lo, lo), min(srt.hi, hi), srt.on|1<<p.Col
			continue
		}
		out = append(out, vp)
		if zm := bs.zones[p.Col]; zm != nil {
			if keep == nil {
				keep = make([]bool, zm.Zones())
				for z := range keep {
					keep[z] = true
				}
			}
			zm.Prune(keep, p.Op, vp.IntVal, vp.FltVal)
		}
	}
	return out, keep, srt, empty, nil
}

// sortedRange is the row range [lo,hi) binary search on sorted columns
// left of a scan; on has bit i set for each column i it searched (0:
// none did).
type sortedRange struct {
	lo, hi int
	on     uint64
}

// names renders the searched columns as "t.a, t.b".
func (r sortedRange) names(bs *boundScan) string {
	var parts []string
	for i, name := range bs.src.Names {
		if i < 64 && r.on&(1<<i) != 0 {
			parts = append(parts, bs.table+"."+name)
		}
	}
	return strings.Join(parts, ", ")
}

// emptyLike returns a zero-row source with src's schema, for pipelines
// a contradiction proved empty before scanning (the aggregate shapes
// still need the schema to emit their identity rows).
func emptyLike(src *vector.Source) *vector.Source {
	cols := make([]vector.Col, len(src.Cols))
	for i := range src.Cols {
		cols[i] = vector.Col{Kind: src.Cols[i].Kind}
		switch src.Cols[i].Kind {
		case vector.KindInt:
			cols[i].Ints = []int64{}
		case vector.KindFloat:
			cols[i].Floats = []float64{}
		case vector.KindBool:
			cols[i].Bools = []bool{}
		}
	}
	out, err := vector.NewSourceWithLen(src.Names, cols, 0)
	if err != nil {
		panic(err) // schema copied from a valid source; cannot mismatch
	}
	return out
}

// zoneRanges coalesces the surviving zones of the zone-mapped prefix
// [0,mapped) and the unmapped tail [mapped,total) — rows appended since
// the zone maps were built, which no zone speaks for and which
// therefore always survive — into sorted disjoint row ranges. kept
// counts the surviving zones.
func zoneRanges(keep []bool, mapped, total int) (out []vector.RowRange, kept int) {
	add := func(lo, hi int) {
		if n := len(out); n > 0 && out[n-1].Hi == lo {
			out[n-1].Hi = hi
		} else if lo < hi {
			out = append(out, vector.RowRange{Lo: lo, Hi: hi})
		}
	}
	for z, k := range keep {
		if k {
			kept++
			add(z*sqlfe.ZoneRows, min((z+1)*sqlfe.ZoneRows, mapped))
		}
	}
	add(mapped, total)
	return out, kept
}

// clip cuts sorted disjoint ranges to [lo,hi).
func clip(ranges []vector.RowRange, lo, hi int) []vector.RowRange {
	out := ranges[:0]
	for _, r := range ranges {
		if r.Lo, r.Hi = max(r.Lo, lo), min(r.Hi, hi); r.Lo < r.Hi {
			out = append(out, r)
		}
	}
	return out
}

// zonesIn counts the zones of the zone-mapped prefix [0,mapped) that
// sorted disjoint ranges touch.
func zonesIn(ranges []vector.RowRange, mapped int) int {
	n, last := 0, -1 // last: the highest zone counted
	for _, r := range ranges {
		if r.Lo >= mapped {
			break
		}
		lo, hi := r.Lo/sqlfe.ZoneRows, (min(r.Hi, mapped)-1)/sqlfe.ZoneRows
		n += max(0, hi-max(lo, last+1)+1)
		last = max(last, hi)
	}
	return n
}

// bindLeaf binds one scan+preds leaf and narrows its source to the row
// ranges that binary search on sorted columns and the zone maps cannot
// rule out. A predicate contradiction (IS NULL over a provably nil-free
// column) or an empty survivor set swaps in a zero-row source, so the
// pipeline emits its empty/identity result without scanning. Every leaf
// — single-table or join input — binds here, so this is the only place
// that decides what a scan skips.
func bindLeaf(scan *ScanNode, preds []Pred, snap *sqlfe.Snapshot, args []any, stats *ExecStats) (*boundScan, []vector.Pred, error) {
	bs, err := bind(scan, snap)
	if err != nil {
		return nil, nil, err
	}
	vpreds, keep, srt, empty, err := bindPreds(preds, bs, args)
	if err != nil {
		return nil, nil, err
	}
	total := bs.src.Len()
	zones := (bs.zoned + sqlfe.ZoneRows - 1) / sqlfe.ZoneRows
	st := ScanStat{Table: scan.Table, Zones: zones, TableRows: total, Deleted: bs.src.Deleted()}
	if srt.on != 0 && stats != nil {
		st.Search, st.Lo, st.Hi = srt.names(bs), srt.lo, max(srt.lo, srt.hi)
	}
	scanned := total
	var ranges []vector.RowRange
	if keep != nil || srt.on != 0 {
		switch {
		case keep != nil:
			ranges, _ = zoneRanges(keep, bs.zoned, total)
			ranges = clip(ranges, srt.lo, srt.hi)
		case srt.lo < srt.hi:
			ranges = []vector.RowRange{{Lo: srt.lo, Hi: srt.hi}}
		}
		scanned = 0
		for _, r := range ranges {
			scanned += r.Hi - r.Lo
		}
	}
	switch {
	case empty:
		bs.src = emptyLike(bs.src)
	case scanned == total: // nothing skipped
		st.ZonesKept = zones
	case len(ranges) == 0:
		bs.src = emptyLike(bs.src)
	default:
		if bs.src, err = bs.src.Restrict(ranges); err != nil {
			return nil, nil, err
		}
		st.ZonesKept = zonesIn(ranges, bs.zoned)
	}
	st.Rows = bs.src.ScanRows()
	if stats != nil {
		stats.Scans = append(stats.Scans, st)
	}
	return bs, vpreds, nil
}

// countOp counts the rows flowing through it into an atomic counter —
// the per-join-step Actual observation \plan reports. One counter is
// shared by every worker's instance of the pipeline, hence atomics.
type countOp struct {
	child vector.Operator
	ctr   *int64
}

func (o *countOp) Open() error { return o.child.Open() }

func (o *countOp) Next() (*vector.Batch, error) {
	b, err := o.child.Next()
	if b != nil {
		atomic.AddInt64(o.ctr, int64(b.Rows()))
	}
	return b, err
}

func (o *countOp) Close() error { return o.child.Close() }

// --- the instantiated pipeline ---

// pipeline is a plan node bound to a snapshot: the stream its parent
// composes over. Normally src streams through an Exchange and par
// builds each worker's fragment on top of its morsel scan. mkSerial is
// set instead when the stream has one producer: when a join build
// degraded to grace-hash partitioning mid-instantiation (the whole
// stream now issues from spill partitions, and mkSerial constructs a
// fresh single-threaded chain, replayable: spill files and shared join
// tables persist), and above an aggregation or a sort, whose output
// mkSerial returns. run and serial are the only readers of that
// difference.
//
// remap translates the plan's VIRTUAL column positions (FROM-order
// concatenation of the leaves) to the chain's intermediate layout (the
// stream leaf's live columns, then each build's payload in execution
// order), sending a column no node above reads to -1. nil is the
// identity: a single table, or the output of an aggregation or a
// projection.
type pipeline struct {
	ctx      context.Context
	opts     Options
	src      *vector.Source
	par      func(vector.Operator) vector.Operator
	mkSerial func() vector.Operator
	remap    []int
	width    int
	// scan is the stream leaf's entry in opts.Stats.Scans.
	scan int
	// leaves are the bound scans whose columns the stream carries, the
	// virtual columns of leaves[i] starting at voff[i] (nil: one leaf, at
	// 0); nil once an aggregation or a projection reshaped the stream.
	leaves []*boundScan
	voff   []int
	// recount lists the observation counters a serial() replay counts
	// again; serial zeroes them, so \plan reports the run that produced
	// the result.
	recount []*int64
	// tables are the in-memory join steps the stream probes; release
	// hands them back.
	tables []builtStep
}

// builtStep is one in-memory join step of a stream: its shared table,
// the probe key and the probe columns it carries. A semi step has no
// table: the stream passes it unchanged.
type builtStep struct {
	jb       *vector.JoinBuild // nil for a semi step
	probeKey int
	keep     []int
	stat     *JoinStat
}

// release hands back the join tables the stream probes, once a
// consumer has drained it for the last time: the stream must not run
// again.
func (pl *pipeline) release() {
	for k := range pl.tables {
		if jb := pl.tables[k].jb; jb != nil {
			jb.ReleaseMem()
			pl.tables[k].jb = nil
		}
	}
}

// run returns the stream frag computes over the whole pipeline, and
// whether that stream is the outputs of several fragments, which an
// aggregate must still merge. Normally it is an Exchange running
// frag∘par on up to workers workers, whose morsel scans append global
// row positions when rowIDs is set; when that Exchange would start
// exactly one worker, it is the one fragment over its morsel scan, run
// inline on the caller's goroutine. After a degraded join step, an
// aggregation or a sort it is frag over the one serial stream, whose
// output is already whole (and carries no row ids: sorts over it break
// ties by value). Neither a serial nor an inline stream copies its
// batches: each is valid until the stream's next Next.
func (pl *pipeline) run(workers int, rowIDs bool, frag func(vector.Operator) vector.Operator) (vector.Operator, bool) {
	if pl.mkSerial != nil {
		return frag(pl.mkSerial()), false
	}
	par := pl.par
	ex := &vector.Exchange{
		Source:     pl.src,
		Workers:    workers,
		MorselSize: pl.opts.MorselSize,
		VectorSize: pl.opts.VectorSize,
		Plan:       func(scan vector.Operator) vector.Operator { return frag(par(scan)) },
		Ctx:        pl.ctx,
		RowIDs:     rowIDs,
	}
	if op := ex.Inline(); op != nil {
		if st := pl.opts.Stats; st != nil {
			st.Scans[pl.scan].Inline = true
		}
		return op, false
	}
	return ex, true
}

// serial returns a fresh single-threaded chain over the whole input:
// the stream a grace re-plan partitions.
func (pl *pipeline) serial() vector.Operator {
	for _, c := range pl.recount {
		atomic.StoreInt64(c, 0)
	}
	if pl.mkSerial != nil {
		return pl.mkSerial()
	}
	return pl.par(vector.NewScan(pl.src, pl.opts.VectorSize))
}

// pos is the chain position of virtual column v.
func (pl *pipeline) pos(v int) int {
	if pl.remap == nil {
		return v
	}
	return pl.remap[v]
}

// then stacks frag on the stream: on every worker's fragment, or on
// the serial chain.
func (pl *pipeline) then(frag func(vector.Operator) vector.Operator) {
	if mk := pl.mkSerial; mk != nil {
		pl.mkSerial = func() vector.Operator { return frag(mk()) }
		return
	}
	par := pl.par
	pl.par = func(scan vector.Operator) vector.Operator { return frag(par(scan)) }
}

// leafPipeline instantiates a single-table leaf (Scan or
// Filter-over-Scan).
func leafPipeline(ctx context.Context, snap *sqlfe.Snapshot, args []any, opts Options, n Node) (*pipeline, error) {
	scan, preds, err := pipe(n)
	if err != nil {
		return nil, err
	}
	bs, vpreds, err := bindLeaf(scan, preds, snap, args, opts.Stats)
	if err != nil {
		return nil, err
	}
	pl := &pipeline{
		ctx: ctx, opts: opts, src: bs.src,
		par:    func(scan vector.Operator) vector.Operator { return filtered(scan, vpreds, nil) },
		width:  len(bs.src.Cols),
		leaves: []*boundScan{bs},
	}
	if opts.Stats != nil {
		pl.scan = len(opts.Stats.Scans) - 1
	}
	return pl, nil
}

// filtered puts a Filter over op when there are predicates; counts are
// the row counters of the join key filters among them (Filter.Counts).
func filtered(op vector.Operator, preds []vector.Pred, counts []vector.PredCount) vector.Operator {
	if len(preds) > 0 {
		return &vector.Filter{Child: op, Preds: preds, Counts: counts}
	}
	return op
}

// --- join ordering: from what the builds measured ---

// A leaf's estimate scans sampleRuns runs of sampleRun rows.
const sampleRuns, sampleRun = 32, 32

// estimateLeaf estimates how many rows src's scan passes through preds.
// The engine keeps no table statistics, so it runs them over about
// sampleRuns·sampleRun of the positions the scan visits: runs evenly
// spaced inside the ranges data skipping left, read by a real scan, so
// tombstoned positions drop out as they do from the leaf's own scan.
// Add-half smoothing keeps an all-rejected sample from estimating an
// impossible zero.
func estimateLeaf(src *vector.Source, preds []vector.Pred, vectorSize int) float64 {
	total := src.ScanRows()
	if total == 0 {
		return 0
	}
	sample := src
	if total > sampleRuns*sampleRun {
		var err error
		if sample, err = src.Restrict(sampleRanges(src.Ranges(), total)); err != nil {
			panic(err) // runs cut inside the source's own ranges cannot fail
		}
	}
	op := filtered(vector.NewScan(sample, vectorSize), preds, nil)
	if err := op.Open(); err != nil {
		return float64(total)
	}
	defer op.Close()
	q := 0
	for {
		b, err := op.Next()
		if err != nil || b == nil {
			break
		}
		q += b.Rows()
	}
	sn := sample.ScanRows()
	if q == sn {
		return float64(total)
	}
	return (float64(q) + 0.5) / (float64(sn) + 1) * float64(total)
}

// sampleRanges cuts sampleRuns runs of at most sampleRun rows, evenly
// spaced over the total positions ranges cover, each inside the range
// it starts in. total exceeds sampleRuns·sampleRun, so no two meet.
func sampleRanges(ranges []vector.RowRange, total int) []vector.RowRange {
	out := make([]vector.RowRange, 0, sampleRuns)
	i, base := 0, 0 // ranges[i] holds the scan's positions [base, base+its length)
	for j := 0; j < sampleRuns; j++ {
		off := j * total / sampleRuns
		for off >= base+ranges[i].Hi-ranges[i].Lo {
			base += ranges[i].Hi - ranges[i].Lo
			i++
		}
		lo := ranges[i].Lo + off - base
		out = append(out, vector.RowRange{Lo: lo, Hi: min(lo+sampleRun, ranges[i].Hi)})
	}
	return out
}

// joinStep folds leaf build into the joined set: a hash table over its
// key, probed with the key of probe, its parent in the join tree rooted
// at the stream.
type joinStep struct {
	build, probe             int
	buildKeyPos, probeKeyPos int // key positions within each leaf's columns
	subtree                  int // the steps of build's descendants are steps[subtree:] up to this one

	jb    *vector.JoinBuild // nil once degraded or handed back, and for a semi step
	grace bool              // joins by grace hash, after every in-memory probe
	// semi: the step's key filter is exact over unique keys and the
	// build carries no column, so the filter has answered it. It builds
	// no table and the stream passes it unprobed.
	semi bool
	// mult is the output rows one probe row that passed the step's key
	// filter yields (JoinBuild.KeyFilter); 1 for a degraded build, which
	// measured nothing.
	mult float64
	stat *JoinStat // nil when not observed
}

// runsBefore reports whether s probes before o when both could go next:
// in-memory steps before grace steps, then the smaller multiplier, then
// FROM order.
func (s *joinStep) runsBefore(o *joinStep) bool {
	switch {
	case s.grace != o.grace:
		return o.grace
	case s.mult != o.mult:
		return s.mult < o.mult
	}
	return s.build < o.build
}

// rootJoinTree orients the join tree away from the stream, one step per
// other leaf joining it to its parent, and lists the steps
// children-first: each leaf's subtree before it, siblings in FROM order
// (edge k introduces leaf k+1, so edge order lists a leaf's neighbours
// in FROM order).
func rootJoinTree(jt *JoinTreeNode, stream int) []joinStep {
	steps := make([]joinStep, 0, len(jt.Edges))
	seen := make([]bool, len(jt.Leaves))
	var visit func(leaf int)
	visit = func(leaf int) {
		seen[leaf] = true
		for _, e := range jt.Edges {
			st := joinStep{build: e.B, probe: leaf, buildKeyPos: e.BKey, probeKeyPos: e.AKey}
			if e.B == leaf {
				st = joinStep{build: e.A, probe: leaf, buildKeyPos: e.AKey, probeKeyPos: e.BKey}
			}
			if e.A != leaf && e.B != leaf || seen[st.build] {
				continue
			}
			st.subtree = len(steps)
			visit(st.build)
			steps = append(steps, st)
		}
	}
	visit(stream)
	return steps
}

// joinPipeline instantiates an N-way join tree and returns the pipeline
// the post-stages compose over. It decides from measured facts, in one
// pass:
//
//   - The stream is the leaf with the largest estimate (estimateLeaf),
//     first in FROM order on a tie, so the fact table is never hashed.
//   - Every other leaf builds, children-first over the tree rooted at
//     the stream, and each in-memory build publishes a key filter into
//     the Filter of the leaf owning its probe key, after that leaf's own
//     predicates. So a build leaf is pruned by the leaves hanging off it
//     before it is hashed, and the stream arrives at its first probe
//     pruned by every dimension: a bottom-up semi-join reduction.
//   - The probes run after the builds, each after the step joining its
//     probe leaf; of the steps that can go next, the one with the
//     smallest multiplier first.
//   - A build that carries no column measures its filter before it is
//     indexed. When that filter is an exact bitmap over unique keys, it
//     passes each probe row that has a match, once: the step is a
//     semi-join it has already computed. Such a semi step builds no
//     table, the stream passes it unprobed (its output still counted),
//     and its probe key keeps no column live.
//
// Builds charge the governor: keys and payload, then a probed step's
// table before its filter. An over-grant build degrades its step to
// grace-hash partitioning, and so do its descendants, whose probe keys
// live in its columns, semi steps among them: their tables are handed
// back at once, their filters kept. The builds after it degrade
// without trying memory, so the tables they would hold leave the grace
// steps, and the operators above the join, their staging. Grace steps run after every in-memory
// probe, serially over disk partitions.
//
// A column is live while the nodes above read it (live, over the
// virtual columns) or a later step still probes on it. A build keeps
// the live columns of its leaf as its payload, every step carries only
// the probe columns live after it, and a grace step partitions just
// what its join reads, so every path shares one compact layout.
func (p *Plan) joinPipeline(ctx context.Context, snap *sqlfe.Snapshot, args []any, opts Options, jt *JoinTreeNode, live colSet) (*pipeline, error) {
	n := len(jt.Leaves)
	bss := make([]*boundScan, n)
	vpreds := make([][]vector.Pred, n)
	vcounts := make([][]vector.PredCount, n) // the key filters' counters, by index into vpreds
	anyEmpty := false
	scan0 := 0 // the first leaf's entry in opts.Stats.Scans
	if opts.Stats != nil {
		scan0 = len(opts.Stats.Scans)
	}
	for i := range jt.Leaves {
		bs, vp, err := bindLeaf(jt.Leaves[i].Scan, jt.Leaves[i].Preds, snap, args, opts.Stats)
		if err != nil {
			return nil, err
		}
		bss[i], vpreds[i] = bs, vp
		if bs.src.Len() == 0 {
			anyEmpty = true
		}
	}
	if anyEmpty {
		// An inner join with one empty input is empty: swap EVERY leaf to
		// a zero-row source and run the normal shape (builds are empty,
		// aggregates still emit their identity rows).
		for i := range bss {
			bss[i].src = emptyLike(bss[i].src)
		}
	}

	stream, best := 0, -1.0
	for i := range bss {
		if est := estimateLeaf(bss[i].src, vpreds[i], opts.VectorSize); est > best {
			stream, best = i, est
		}
	}
	steps := rootJoinTree(jt, stream)
	if len(steps) != n-1 {
		return nil, fmt.Errorf("physical: join graph is not a tree (%d steps for %d leaves)", len(steps), n)
	}

	mkLeafOp := func(li int) vector.Operator {
		return filtered(vector.NewScan(bss[li].src, opts.VectorSize), vpreds[li], vcounts[li])
	}
	voff := make([]int, n+1) // leaf li's columns are the virtual columns [voff[li], voff[li+1])
	for li := range bss {
		voff[li+1] = voff[li] + len(bss[li].src.Cols)
	}
	// lastProbe[v] is the position in the probe order of the last step
	// probing on virtual column v, -1 for none; until the order is
	// known, 0 marks a column some step other than a semi one probes on,
	// which markProbes sets.
	lastProbe := make([]int, voff[n])
	markProbes := func() {
		for v := range lastProbe {
			lastProbe[v] = -1
		}
		for k := range steps {
			if !steps[k].semi {
				lastProbe[voff[steps[k].probe]+steps[k].probeKeyPos] = 0
			}
		}
	}
	markProbes()
	// payloadOf lists the columns of leaf li a build carries: those the
	// nodes above read and the probe keys of the steps joining its
	// children.
	payloadOf := func(li int) []int {
		payload := make([]int, 0, voff[li+1]-voff[li])
		for v := voff[li]; v < voff[li+1]; v++ {
			if live.has(v) || lastProbe[v] >= 0 {
				payload = append(payload, v-voff[li])
			}
		}
		return payload
	}

	degraded := false // the governor denied a build: the later ones do not try memory
	for k := range steps {
		st := &steps[k]
		if opts.Stats != nil {
			st.stat = &JoinStat{Build: jt.Leaves[st.build].Scan.Table}
		}
		payload := payloadOf(st.build)
		var jb *vector.JoinBuild
		var preds []vector.Pred
		var bitmap, unique bool
		err := memgov.ErrExceeded
		if !degraded {
			jb, err = vector.BuildJoinTableGov(mkLeafOp(st.build), st.buildKeyPos, payload, opts.Gov)
		}
		switch {
		case err != nil:
		case len(payload) > 0:
			if err = jb.Index(); err == nil {
				preds, bitmap, st.mult, _ = jb.KeyFilter(st.probeKeyPos, opts.Gov)
			}
		default:
			preds, bitmap, st.mult, unique = jb.KeyFilter(st.probeKeyPos, opts.Gov)
			if st.semi = bitmap && unique; !st.semi {
				if err = jb.Index(); err != nil && bitmap {
					opts.Gov.Release(int64(8 * len(preds[0].Bits))) // a denied step holds no filter
				}
			}
		}
		switch {
		case err == nil:
			if stat := st.stat; stat != nil {
				stat.BuildRows = int64(jb.Rows())
				stat.FilterOn, stat.Filter = jt.Leaves[st.probe].Scan.Table, "range"
				if bitmap {
					stat.Filter = "bitmap"
				}
				// The leaf's earlier predicates count nothing.
				cs := vcounts[st.probe]
				cs = append(cs, make([]vector.PredCount, len(vpreds[st.probe])+len(preds)-len(cs))...)
				cs[len(vpreds[st.probe])].In, cs[len(cs)-1].Kept = &stat.FilterIn, &stat.FilterKept
				vcounts[st.probe] = cs
			}
			vpreds[st.probe] = append(vpreds[st.probe], preds...)
			if st.semi {
				jb.ReleaseMem() // the key copy: the filter holds all the step needs
				markProbes()
			} else {
				st.jb = jb
			}
		case errors.Is(err, memgov.ErrExceeded) && opts.canSpill():
			// The build outgrew the grant (its partial charge is already
			// handed back), or followed one that did.
			for j := st.subtree; j < k; j++ {
				if d := &steps[j]; d.jb != nil {
					d.jb.ReleaseMem()
					d.jb = nil
				}
				steps[j].grace, steps[j].semi = true, false
			}
			st.grace, st.mult, degraded = true, 1, true
			markProbes()
		default:
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	order := make([]*joinStep, 0, len(steps))
	joined := make([]bool, n)
	joined[stream] = true
	for len(order) < len(steps) {
		var next *joinStep
		for k := range steps {
			st := &steps[k]
			if !joined[st.build] && joined[st.probe] && (next == nil || st.runsBefore(next)) {
				next = st
			}
		}
		joined[next.build] = true
		if !next.semi {
			lastProbe[voff[next.probe]+next.probeKeyPos] = len(order)
		}
		order = append(order, next)
	}
	if opts.Stats != nil {
		// Each step's estimate: the stream's rows past its filters,
		// sampled again now that it carries the key filters (without
		// their counters), times every multiplier up to the step.
		opts.Stats.Stream = jt.Leaves[stream].Scan.Table
		est := estimateLeaf(bss[stream].src, vpreds[stream], opts.VectorSize)
		for _, st := range order {
			est *= st.mult
			st.stat.EstRows = int64(est + 0.5)
			opts.Stats.Joins = append(opts.Stats.Joins, st.stat)
		}
	}

	// Intermediate layout: cur lists the chain's columns as virtual
	// columns. It starts as the stream leaf's columns; each step keeps
	// those still live after it, in order, then appends its build's
	// payload.
	cur := make([]int, voff[stream+1]-voff[stream])
	for j := range cur {
		cur[j] = voff[stream] + j
	}
	// probe stacks the in-memory steps' hash-join probes on op, each
	// counting its output rows into the step's observation; a semi step
	// only counts.
	probe := func(op vector.Operator, steps []builtStep) vector.Operator {
		for _, c := range steps {
			if c.jb != nil {
				op = &vector.HashJoinOp{Probe: op, ProbeKey: c.probeKey, Shared: c.jb, Keep: c.keep}
			}
			if c.stat != nil {
				op = &countOp{child: op, ctr: &c.stat.Actual}
			}
		}
		return op
	}
	var chain []builtStep
	var mkSerial func() vector.Operator

	for s, st := range order {
		st, stat := st, st.stat // per step: the grace closure keeps them
		probeKey := slices.Index(cur, voff[st.probe]+st.probeKeyPos)
		keep := make([]int, 0, len(cur)) // the positions in cur live after this step; never nil, which keeps all
		for pos, v := range cur {
			if live.has(v) || lastProbe[v] > s {
				keep = append(keep, pos)
			}
		}
		if st.semi {
			// The stream passes unchanged, carrying what it carried.
			chain = append(chain, builtStep{stat: stat})
			if stat != nil {
				stat.Semi, stat.Cols = true, len(keep)
			}
			continue
		}
		payload := payloadOf(st.build)
		if !st.grace {
			chain = append(chain, builtStep{jb: st.jb, probeKey: probeKey, keep: keep, stat: stat})
		} else {
			// Grace-hash step: both sides partition to disk by key hash
			// (each side's key filters applied first), keeping the columns
			// the join reads, partition pairs join one at a time, and the
			// chain continues serially on top.
			if stat != nil {
				stat.Grace = true
			}
			if mkSerial == nil {
				mkSerial = func() vector.Operator { return probe(mkLeafOp(stream), chain) }
			}
			// The build leaf ran once already: its filters count this run.
			for _, c := range counters(vcounts[st.build]) {
				atomic.StoreInt64(c, 0)
			}
			bCols, bAt := columnsRead(append([]int{st.buildKeyPos}, payload...))
			pCols, pAt := columnsRead(append([]int{probeKey}, keep...))
			// What the whole in-memory build would charge: key and payload
			// cells plus the key table.
			rows := bss[st.build].src.ScanRows()
			stateBytes := int64(rows*(8+8*len(payload)) + radix.TableBytes(rows))
			bits := graceBits(stateBytes, graceHeadroom(opts.Gov))
			bParts, bRows, err := partitionOp(ctx, opts, mkLeafOp(st.build), bCols, []int{st.buildKeyPos}, bits, "jb")
			if err != nil {
				return nil, err
			}
			pParts, _, err := partitionOp(ctx, opts, mkSerial(), pCols, []int{probeKey}, bits, "jp")
			if err != nil {
				return nil, err
			}
			if stat != nil {
				stat.BuildRows = bRows
			}
			mkSerial = func() vector.Operator {
				var op vector.Operator = &graceJoinOp{
					ctx: ctx, bParts: bParts, pParts: pParts,
					buildKey: bAt[0], probeKey: pAt[0],
					payload: bAt[1:], keep: pAt[1:], res: opts.Gov,
				}
				if stat != nil {
					op = &countOp{child: op, ctr: &stat.Actual}
				}
				return op
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		next := make([]int, 0, len(keep)+len(payload))
		for _, pos := range keep {
			next = append(next, cur[pos])
		}
		for _, j := range payload {
			next = append(next, voff[st.build]+j)
		}
		if stat != nil {
			stat.Cols = len(next)
		}
		cur = next
	}

	remap := make([]int, voff[n])
	for v := range remap {
		remap[v] = slices.Index(cur, v) // -1: no node above reads it
	}
	// A serial() replay counts again what the stream pipeline counted:
	// every in-memory step and the stream's filters, or, after a degraded
	// step, just the last grace join (the others read spilled partitions).
	var recount []*int64
	if opts.Stats != nil {
		if mkSerial != nil {
			recount = append(recount, &order[len(order)-1].stat.Actual)
		} else {
			recount = counters(vcounts[stream])
			for _, st := range order {
				recount = append(recount, &st.stat.Actual)
			}
		}
	}
	return &pipeline{
		ctx: ctx, opts: opts, src: bss[stream].src,
		par: func(scan vector.Operator) vector.Operator {
			return probe(filtered(scan, vpreds[stream], vcounts[stream]), chain)
		},
		mkSerial: mkSerial,
		remap:    remap, width: len(cur),
		scan:   scan0 + stream,
		leaves: bss, voff: voff,
		recount: recount,
		tables:  chain,
	}, nil
}

// columnsRead sorts and dedups cols, the columns a consumer reads,
// returning them and the position each of cols takes among them.
func columnsRead(cols []int) (set, at []int) {
	set = slices.Clone(cols)
	slices.Sort(set)
	set = slices.Compact(set)
	at = make([]int, len(cols))
	for i, c := range cols {
		at[i] = slices.Index(set, c)
	}
	return set, at
}

// counters lists the row counters of a leaf's key filters.
func counters(counts []vector.PredCount) []*int64 {
	var out []*int64
	for _, c := range counts {
		for _, p := range []*int64{c.In, c.Kept} {
			if p != nil {
				out = append(out, p)
			}
		}
	}
	return out
}

// remapExpr rebuilds an expression tree with its ColRef leaves
// translated through remap. It NEVER mutates the input: plan trees are
// cached and shared, so the virtual-position originals must survive.
func remapExpr(e vector.Expr, remap []int) vector.Expr {
	switch x := e.(type) {
	case vector.ColRef:
		return vector.ColRef{Idx: remap[x.Idx]}
	case vector.Bin:
		out := x
		if x.L != nil {
			out.L = remapExpr(x.L, remap)
		}
		if x.R != nil {
			out.R = remapExpr(x.R, remap)
		}
		return out
	}
	return e
}

// --- the stages above the leaves ---

// project narrows the stream to the output columns: a Project on every
// worker's fragment, or on top of a serial stream, and none at all when
// the outputs are the stream's columns in order.
func (pl *pipeline) project(outs []int) {
	identity := len(outs) == pl.width
	for i, o := range outs {
		identity = identity && pl.pos(o) == i
	}
	if !identity {
		exprs := make([]vector.Expr, len(outs))
		for i, o := range outs {
			exprs[i] = vector.ColRef{Idx: pl.pos(o)}
		}
		pl.then(func(in vector.Operator) vector.Operator { return &vector.Project{Child: in, Exprs: exprs} })
	}
	pl.remap, pl.width, pl.leaves = nil, len(outs), nil
}

// sortInput names what a sort orders, for \plan's observation.
func sortInput(n Node) string {
	switch n.(type) {
	case *GroupAggNode:
		return "groups"
	case *JoinTreeNode:
		return "join output"
	}
	scan, _, _ := pipe(n)
	return scan.Table
}

// sort orders the stream: per-worker sorted runs (one run over a serial
// stream) k-way merged, whose merge becomes the stream. Every ORDER BY
// — over a table, a join or the groups — runs on this one governed
// kernel: each SortRun encodes over-grant runs to spill files
// (releasing their memory) and MergeRuns streams them back through the
// same heap as the in-memory ones. With a nil sink (no scope, or the
// reject policy) a denied charge fails the query instead.
func (pl *pipeline) sort(sn *SortNode, input string) {
	opts := pl.opts
	key, ties := pl.pos(sn.Key), sn.Ties
	if pl.remap != nil {
		ties = make([]int, len(sn.Ties))
		for i, t := range sn.Ties {
			ties[i] = pl.remap[t]
		}
	}
	// A table's rows tie-break on the global row id (stable, exactly the
	// MAL order), the column the RowIDs scan appends after the leaf's; a
	// join's rows and the groups have no meaningful order, so they carry
	// value ties instead.
	rowID := -1
	if len(ties) == 0 {
		rowID = pl.width
		pl.width++ // the row ids ride along until the projection
	}
	runs := &vector.RunSet{}
	if opts.Stats != nil {
		opts.Stats.Sort = &SortStat{Input: input, SortStats: &runs.Stats}
	}
	workers := opts.workers()
	if pl.mkSerial == nil && !radix.ShouldParallelSort(pl.src.ScanRows(), sn.Limit, workers) {
		// One run: the sort cost model says the merge machinery is pure
		// overhead here (tiny or single-worker input).
		workers = 1
	}
	sink := opts.sink()
	sorted, _ := pl.run(workers, rowID >= 0, func(in vector.Operator) vector.Operator {
		return &vector.SortRun{Child: in, Key: key, RowID: rowID, Ties: ties, Desc: sn.Desc, Limit: sn.Limit,
			Res: opts.Gov, Spill: sink, Runs: runs, Size: opts.VectorSize}
	})
	merge := &vector.MergeRuns{Child: sorted, Key: key, RowID: rowID, Ties: ties, Desc: sn.Desc, Limit: sn.Limit,
		Size: opts.VectorSize, Ext: runs}
	pl.mkSerial = func() vector.Operator { return merge }
}

// aggSetup resolves a GroupAggNode's accumulators and optional Pre
// expression projection against the pipeline's intermediate layout.
func aggSetup(g *GroupAggNode, pl *pipeline) (specs []vector.AggSpec, wrap func(vector.Operator) vector.Operator, keyIdx []int) {
	pre := g.Pre
	if pre != nil && pl.remap != nil {
		pre = make([]vector.Expr, len(g.Pre))
		for i, e := range g.Pre {
			pre[i] = remapExpr(e, pl.remap)
		}
	}
	specs = make([]vector.AggSpec, len(g.Accs))
	for i, a := range g.Accs {
		col := a.Col
		if col >= 0 && pre == nil {
			col = pl.pos(col)
		}
		specs[i] = vector.AggSpec{Kind: a.Kind, Col: col}
	}
	keyIdx = make([]int, len(g.Keys))
	for i, k := range g.Keys {
		if pre != nil {
			keyIdx[i] = k // keys lead the Pre projection already
		} else {
			keyIdx[i] = pl.pos(k)
		}
	}
	wrap = func(op vector.Operator) vector.Operator {
		if pre != nil {
			return &vector.Project{Child: op, Exprs: pre}
		}
		return op
	}
	return specs, wrap, keyIdx
}

// group aggregates the stream per group of its keys — a partial
// aggregate on every worker, merged by key — and the shaped groups
// become the stream. A global aggregate is the zero-key case: one
// group, which the zero-key Agg emits even over no rows. The groups
// are drained here, so a grouping table that outgrows the grant
// re-plans to grace hash before any row is returned.
func (pl *pipeline) group(g *GroupAggNode) error {
	opts := pl.opts
	specs, wrap, keyIdx := aggSetup(g, pl)
	// A global aggregate's state is one row: it charges nothing, so it
	// never re-plans.
	res := opts.Gov
	if len(keyIdx) == 0 {
		res = nil
	}
	groups := pl.groupsBound(g)
	op, parts := pl.run(opts.workers(), false, func(in vector.Operator) vector.Operator {
		return &vector.Agg{Child: wrap(in), Keys: keyIdx, Aggs: specs, Res: res, Groups: groups}
	})
	if parts {
		// Merge the workers' partials by key (sums and counts add, min/max
		// re-fold nil-aware). One serial pass needs no second table: its
		// Agg already holds every group's totals. The workers' groups
		// obey the same bound.
		merge := vector.MergeGroups(op, len(keyIdx), specs, res)
		merge.Groups = groups
		op = merge
	}
	merged, err := drainOne(op)
	var out vector.Operator
	switch {
	case errors.Is(err, memgov.ErrExceeded) && opts.canSpill():
		// The grouping table outgrew the grant mid-build: re-plan to
		// grace-hash partitioning (the failed attempt already handed its
		// memory back on the way out).
		mk := func() vector.Operator { return wrap(pl.serial()) }
		out, err = graceGrouped(pl.ctx, opts, mk, pl.release, pl.src.ScanRows(), keyIdx, g, specs)
	case err == nil:
		out = &batchOp{b: vector.Batch{N: merged.N, Cols: shapeGrouped(merged, g)}, size: opts.VectorSize}
	}
	if err != nil {
		return err
	}
	pl.mkSerial, pl.remap, pl.width, pl.tables, pl.leaves = func() vector.Operator { return out }, nil, len(g.Outs), nil, nil
	return nil
}

// groupsBound bounds the groups g can form over the stream, so the
// first grouping table is sized from the input rather than a constant:
// the rows a single table's scan visits (a join may repeat a row), and,
// when every key is a base column of a leaf with no rows past its zone
// maps, the product of the keys' zone-map spans, each plus one for
// NULL. 0 when neither is known; never above 1<<20, which no first
// table reaches.
func (pl *pipeline) groupsBound(g *GroupAggNode) int {
	const ceiling = 1 << 20
	if pl.leaves == nil || len(g.Keys) == 0 {
		return 0
	}
	bound := ceiling
	if pl.voff == nil {
		bound = min(bound, max(1, pl.src.ScanRows()))
	}
	span := 1
	for i, k := range g.Keys {
		if g.Pre != nil {
			ref, ok := g.Pre[i].(vector.ColRef) // keys lead the Pre projection
			if !ok {
				return bound
			}
			k = ref.Idx
		}
		leaf, col := 0, k
		for pl.voff != nil && k >= pl.voff[leaf+1] {
			leaf++
		}
		if pl.voff != nil {
			col = k - pl.voff[leaf]
		}
		bs := pl.leaves[leaf]
		zm := bs.zones[col]
		if zm == nil || bs.src.Cols[col].Kind != vector.KindInt || bs.zoned != bs.src.Len() {
			return bound
		}
		lo, hi, ok := zm.IntBounds()
		n := 1 // NULL
		if ok {
			n += 1 + int(min(uint64(hi)-uint64(lo), ceiling))
		}
		span = min(span*n, ceiling)
	}
	return min(bound, span)
}

// shapeGrouped shapes a merged [keys..., accs...] aggregate batch into
// the node's output columns with SQL NULL semantics (nil sentinels
// render as NULL): sum/avg over zero non-nil inputs is NULL, as is
// min/max over none.
func shapeGrouped(merged *vector.Batch, g *GroupAggNode) []vector.Col {
	nk := len(g.Keys)
	n := merged.N
	accCol := func(i int) *vector.Col { return &merged.Cols[i+nk] }
	out := make([]vector.Col, len(g.Outs))
	for i, o := range g.Outs {
		switch {
		case o.Key:
			out[i] = merged.Cols[o.KeyIdx]
		case o.Fn == sqlfe.AggCount:
			out[i] = *accCol(o.Acc)
		case o.Fn == sqlfe.AggSum && !o.Flt:
			sums := accCol(o.Acc).Ints
			cnts := accCol(o.CntAcc).Ints
			vals := make([]int64, n)
			for gi := 0; gi < n; gi++ {
				if cnts[gi] == 0 {
					vals[gi] = bat.NilInt // all-NULL group
				} else {
					vals[gi] = sums[gi]
				}
			}
			out[i] = vector.Col{Kind: vector.KindInt, Ints: vals}
		case o.Fn == sqlfe.AggSum:
			sums := accCol(o.Acc).Floats
			cnts := accCol(o.CntAcc).Ints
			vals := make([]float64, n)
			for gi := 0; gi < n; gi++ {
				if cnts[gi] == 0 {
					vals[gi] = math.NaN()
				} else {
					vals[gi] = sums[gi]
				}
			}
			out[i] = vector.Col{Kind: vector.KindFloat, Floats: vals}
		case o.Fn == sqlfe.AggAvg:
			cnts := accCol(o.CntAcc).Ints
			vals := make([]float64, n)
			sc := accCol(o.Acc)
			for gi := 0; gi < n; gi++ {
				if cnts[gi] == 0 {
					vals[gi] = math.NaN()
					continue
				}
				s := 0.0
				if sc.Kind == vector.KindFloat {
					s = sc.Floats[gi]
				} else {
					s = float64(sc.Ints[gi])
				}
				vals[gi] = s / float64(cnts[gi])
			}
			out[i] = vector.Col{Kind: vector.KindFloat, Floats: vals}
		default: // min/max: the accumulators already carry nil sentinels
			out[i] = *accCol(o.Acc)
		}
	}
	return out
}

// --- small shared pieces ---

// batchOp streams one materialized batch (the shaped groups) in
// vectors of at most size rows, as a scan would, so a top-N over the
// groups prunes behind its cutoff from the second vector on.
type batchOp struct {
	b, out   vector.Batch
	size, at int
}

func (o *batchOp) Open() error {
	o.at = 0
	if o.size <= 0 {
		o.size = vector.DefaultSize
	}
	return nil
}

func (o *batchOp) Next() (*vector.Batch, error) {
	lo, hi := o.at, min(o.at+o.size, o.b.N)
	if lo >= hi {
		return nil, nil
	}
	o.at = hi
	if hi-lo == o.b.N {
		return &o.b, nil
	}
	if o.out.Cols == nil {
		o.out.Cols = make([]vector.Col, len(o.b.Cols))
	}
	for i, c := range o.b.Cols {
		if c.Kind == vector.KindFloat {
			o.out.Cols[i] = vector.Col{Kind: c.Kind, Floats: c.Floats[lo:hi]}
		} else {
			o.out.Cols[i] = vector.Col{Kind: c.Kind, Ints: c.Ints[lo:hi]}
		}
	}
	o.out.N = hi - lo
	return &o.out, nil
}

func (o *batchOp) Close() error { return nil }

// drainOne runs an operator tree expected to produce exactly one batch.
func drainOne(op vector.Operator) (*vector.Batch, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	// The final Agg fully drains its child inside this one Next call
	// (worker errors surface here), then emits its single batch.
	out, err := op.Next()
	if err != nil {
		return nil, err
	}
	if out == nil {
		return nil, fmt.Errorf("physical: aggregate pipeline produced no batch")
	}
	return out, nil
}
