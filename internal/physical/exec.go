package physical

import (
	"context"
	"errors"
	"fmt"
	"math"
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

// Execute instantiates the plan over a snapshot. A non-nil error is a
// real binding/execution error that would fail on either engine. The
// *Fallback result is always nil — no snapshot disqualifies a lowered
// plan since scans filter tombstones — and stays in the signature for
// callers outside this module (bench/probes.go).
func (p *Plan) Execute(ctx context.Context, snap *sqlfe.Snapshot, args []any, opts Options) (*Result, *Fallback, error) {
	var res *Result
	var err error
	switch root := p.Root.(type) {
	case *ProjectNode:
		if sn, ok := root.Child.(*SortNode); ok {
			res, err = p.execSort(ctx, snap, args, opts, root, sn)
		} else {
			res, err = p.execPlain(ctx, snap, args, opts, root)
		}
	case *GroupAggNode:
		if len(root.Keys) == 0 {
			res, err = p.execGlobalAgg(ctx, snap, args, opts, root)
		} else {
			res, err = p.execGrouped(ctx, snap, args, opts, root)
		}
	default:
		err = fmt.Errorf("physical: unexecutable plan root %T", p.Root)
	}
	return res, nil, err
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
// column, the NoNil property driving nil-aware primitive selection and
// the zone map of its leading rows.
type boundScan struct {
	src   *vector.Source
	noNil []bool
	zones []*sqlfe.ZoneMap
	zoned int // leading positions the zone maps cover
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
	zones := make([]*sqlfe.ZoneMap, len(s.Cols))
	for i, ci := range s.Cols {
		b := t.ColumnBAT(ci)
		noNil[i] = b.Props().NoNil
		zones[i] = t.ZoneMap(ci)
		names[i] = t.ColNames[ci]
		switch s.Types[i] {
		case sqlfe.TInt:
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
	return &boundScan{src: src, noNil: noNil, zones: zones, zoned: t.ZonedRows()}, nil
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
// Every bound predicate is also tested against the zone map of its
// column: keep[z] ends up false for each zone of the table's main part
// that some conjunct proves holds no qualifying row (nil when no
// predicate had a zone map to consult). The predicates themselves all
// stay in out — the Filter still evaluates them — so keep can only
// remove work.
func bindPreds(preds []Pred, bs *boundScan, args []any) (out []vector.Pred, keep []bool, empty bool, err error) {
	out = make([]vector.Pred, 0, len(preds))
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
			return nil, nil, false, fmt.Errorf("physical: unsupported operator %q", p.Op)
		}
		vp := vector.Pred{ColIdx: p.Col, Op: op}
		if p.Op != "isnull" && p.Op != "isnotnull" {
			lit := p.Lit
			if p.Param > 0 {
				if lit, err = sqlfe.CoerceArg(args[p.Param-1], p.Type, p.Param); err != nil {
					return nil, nil, false, err
				}
			}
			if p.Type == sqlfe.TInt {
				vp.IntVal = lit.I
			} else {
				vp.FltVal = lit.F // the binder widened an INT literal already
			}
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
	return out, keep, empty, nil
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

// bindLeaf binds one scan+preds leaf and narrows its source to the row
// ranges the zone maps cannot rule out. A predicate contradiction (IS
// NULL over a provably nil-free column) or an empty survivor set swaps
// in a zero-row source, so the pipeline emits its empty/identity result
// without scanning. Every leaf — single-table or join input — binds
// here, so this is the only place that decides what a scan skips.
func bindLeaf(scan *ScanNode, preds []Pred, snap *sqlfe.Snapshot, args []any, stats *ExecStats) (*boundScan, []vector.Pred, error) {
	bs, err := bind(scan, snap)
	if err != nil {
		return nil, nil, err
	}
	vpreds, keep, empty, err := bindPreds(preds, bs, args)
	if err != nil {
		return nil, nil, err
	}
	total := bs.src.Len()
	zones := (bs.zoned + sqlfe.ZoneRows - 1) / sqlfe.ZoneRows
	st := ScanStat{Table: scan.Table, ZonesKept: zones, Zones: zones, TableRows: total, Deleted: bs.src.Deleted()}
	var ranges []vector.RowRange
	if keep != nil {
		ranges, st.ZonesKept = zoneRanges(keep, bs.zoned, total)
	}
	switch {
	case empty:
		bs.src, st.ZonesKept = emptyLike(bs.src), 0
	case st.ZonesKept == zones: // nothing pruned, or nothing to consult
	case len(ranges) == 0:
		bs.src = emptyLike(bs.src)
	default:
		if bs.src, err = bs.src.Restrict(ranges); err != nil {
			return nil, nil, err
		}
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

// pipeline is a plan child (leaf or join tree) bound to a snapshot.
// Normally src streams through an Exchange and par builds each worker's
// fragment on top of its morsel scan. When a join build degraded to
// grace-hash partitioning mid-instantiation, mkSerial is set instead:
// the whole stream now issues from spill partitions, and mkSerial
// constructs a fresh single-threaded chain (replayable: spill files and
// shared join tables persist). run and serial are the only readers of
// that difference.
//
// remap translates the plan's VIRTUAL column positions (FROM-order
// concatenation of the leaves) to the chain's intermediate layout
// (stream leaf's columns, then each build's payload in execution
// order). For a single-table child it is the identity.
type pipeline struct {
	ctx      context.Context
	opts     Options
	src      *vector.Source
	par      func(vector.Operator) vector.Operator
	mkSerial func() vector.Operator
	remap    []int
	width    int
	// recount lists the observation counters a serial() replay counts
	// again; serial zeroes them, so \plan reports the run that produced
	// the result.
	recount []*int64
}

// run returns the stream frag computes over the whole pipeline, and
// whether that stream is the outputs of several fragments, which an
// aggregate must still merge. Normally it is an Exchange running
// frag∘par on up to workers workers, whose morsel scans append global
// row positions when rowIDs is set. After a degraded join step it is
// frag over the one serial chain, whose output is already whole (a join
// output carries no row ids: its sorts break ties by value).
func (pl *pipeline) run(workers int, rowIDs bool, frag func(vector.Operator) vector.Operator) (vector.Operator, bool) {
	if pl.mkSerial != nil {
		return frag(pl.mkSerial()), false
	}
	return &vector.Exchange{
		Source:     pl.src,
		Workers:    workers,
		MorselSize: pl.opts.MorselSize,
		VectorSize: pl.opts.VectorSize,
		Plan:       func(scan vector.Operator) vector.Operator { return frag(pl.par(scan)) },
		Ctx:        pl.ctx,
		RowIDs:     rowIDs,
	}, true
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

// pipelineFor instantiates the plan child feeding a projection, sort,
// or aggregation.
func (p *Plan) pipelineFor(ctx context.Context, snap *sqlfe.Snapshot, args []any, opts Options, n Node) (*pipeline, error) {
	if jt, ok := n.(*JoinTreeNode); ok {
		return p.joinPipeline(ctx, snap, args, opts, jt)
	}
	scan, preds, err := pipe(n)
	if err != nil {
		return nil, err
	}
	bs, vpreds, err := bindLeaf(scan, preds, snap, args, opts.Stats)
	if err != nil {
		return nil, err
	}
	width := len(bs.src.Cols)
	remap := make([]int, width)
	for i := range remap {
		remap[i] = i
	}
	return &pipeline{
		ctx: ctx, opts: opts, src: bs.src,
		par:   func(scan vector.Operator) vector.Operator { return filtered(scan, vpreds) },
		remap: remap, width: width,
	}, nil
}

// filtered puts a Filter over op when there are predicates.
func filtered(op vector.Operator, preds []vector.Pred) vector.Operator {
	if len(preds) > 0 {
		return &vector.Filter{Child: op, Preds: preds}
	}
	return op
}

// --- join ordering: statistics-free greedy over strided samples ---

// estimateLeaf estimates a leaf's post-filter cardinality by running
// its predicates over a strided sample of at most 1024 rows — the
// engine keeps no table statistics, so selectivities are measured at
// plan-instantiation time from the data itself (add-half smoothing
// keeps an all-rejected sample from estimating an impossible zero).
func estimateLeaf(bs *boundScan, preds []vector.Pred, vectorSize int) float64 {
	n := bs.src.Len()
	if n == 0 {
		return 0
	}
	if len(preds) == 0 {
		return float64(n)
	}
	const maxSample = 1024
	step := 1
	if n > maxSample {
		step = n / maxSample
	}
	cols := make([]vector.Col, len(bs.src.Cols))
	for i := range cols {
		cols[i].Kind = bs.src.Cols[i].Kind
	}
	sn := 0
	for pos := 0; pos < n; pos += step {
		for i := range cols {
			c := &bs.src.Cols[i]
			switch c.Kind {
			case vector.KindInt:
				cols[i].Ints = append(cols[i].Ints, c.Ints[pos])
			case vector.KindFloat:
				cols[i].Floats = append(cols[i].Floats, c.Floats[pos])
			}
		}
		sn++
	}
	src, err := vector.NewSourceWithLen(bs.src.Names, cols, sn)
	if err != nil {
		return float64(n)
	}
	var op vector.Operator = vector.NewScan(src, vectorSize)
	op = &vector.Filter{Child: op, Preds: preds}
	if err := op.Open(); err != nil {
		return float64(n)
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
	sel := (float64(q) + 0.5) / (float64(sn) + 1)
	if q == sn {
		sel = 1
	}
	// The zone maps already proved every row outside the scan ranges
	// fails a predicate: a narrowed leaf is at most that small.
	return math.Min(sel*float64(n), float64(bs.src.ScanRows()))
}

// joinStep is one ordered step of the left-deep chain: fold leaf
// `build` into the joined set by probing with the `probe` leaf's key.
type joinStep struct {
	edge        JoinEdge
	build       int // leaf hashed into a table at this step
	probe       int // already-joined leaf owning the probe key
	probeKeyPos int // key position within the probe leaf's columns
	buildKeyPos int
	est         float64 // estimated output rows of this step
}

// orderJoins picks the stream leaf and the join order. Greedy mode
// streams the leaf with the largest estimate, so the fact table is never
// hashed, and repeatedly folds in the adjacent leaf minimizing the next
// intermediate's estimate |S ⋈ L| ≈ |S|·|L| / max(d_S-key, d_L-key).
// Naive mode executes the textual order (stream = first FROM table,
// edges in JOIN order) — the baseline greedy is measured against.
func orderJoins(jt *JoinTreeNode, ests []float64, dist func(leaf, pos int) float64, naive bool) (int, []joinStep) {
	edges := jt.Edges
	steps := make([]joinStep, 0, len(edges))

	if naive {
		cur := ests[0]
		for _, e := range edges {
			dA := dist(e.A, e.AKey)
			dB := dist(e.B, e.BKey)
			cur = cur * ests[e.B] / math.Max(1, math.Max(dA, dB))
			steps = append(steps, joinStep{edge: e, build: e.B, probe: e.A,
				probeKeyPos: e.AKey, buildKeyPos: e.BKey, est: cur})
		}
		return 0, steps
	}

	stream := 0
	for i, est := range ests {
		if est > ests[stream] {
			stream = i
		}
	}
	inS := make([]bool, len(jt.Leaves))
	inS[stream] = true
	used := make([]bool, len(edges))
	cur := ests[stream]
	for len(steps) < len(edges) {
		best, bestEst := -1, math.Inf(1)
		var bestStep joinStep
		for ei, e := range edges {
			if used[ei] {
				continue
			}
			var sLeaf, nLeaf, sKey, nKey int
			switch {
			case inS[e.A] && !inS[e.B]:
				sLeaf, nLeaf, sKey, nKey = e.A, e.B, e.AKey, e.BKey
			case inS[e.B] && !inS[e.A]:
				sLeaf, nLeaf, sKey, nKey = e.B, e.A, e.BKey, e.AKey
			default:
				continue // not adjacent to the joined set yet
			}
			dS := math.Min(dist(sLeaf, sKey), math.Max(ests[sLeaf], 1))
			dN := math.Min(dist(nLeaf, nKey), math.Max(ests[nLeaf], 1))
			est := cur * ests[nLeaf] / math.Max(1, math.Max(dS, dN))
			if est < bestEst {
				best, bestEst = ei, est
				bestStep = joinStep{edge: e, build: nLeaf, probe: sLeaf,
					probeKeyPos: sKey, buildKeyPos: nKey, est: est}
			}
		}
		if best < 0 {
			break // disconnected — cannot happen for a tree, guarded by caller
		}
		used[best] = true
		inS[bestStep.build] = true
		steps = append(steps, bestStep)
		cur = bestEst
	}
	return stream, steps
}

// joinPipeline instantiates an N-way join tree: estimates, orders,
// builds the non-stream leaves into shared hash tables, and returns the
// pipeline the post-stages compose over.
//
// Builds run children-first (reverse chain order: the join tree rooted
// at the stream, leaves first), and each in-memory build publishes a key
// filter into the Filter of the leaf owning its probe key, after that
// leaf's own predicates. So a build leaf is pruned by the leaves hanging
// off it before it is hashed, and the stream arrives at its first probe
// pruned by every dimension: a bottom-up semi-join reduction.
//
// Builds charge the governor. An over-grant build degrades its step to
// grace-hash partitioning, and so does every later step in chain order,
// whose in-memory tables are handed back: the chain from that step on
// runs serially over disk partitions.
func (p *Plan) joinPipeline(ctx context.Context, snap *sqlfe.Snapshot, args []any, opts Options, jt *JoinTreeNode) (*pipeline, error) {
	n := len(jt.Leaves)
	bss := make([]*boundScan, n)
	vpreds := make([][]vector.Pred, n)
	anyEmpty := false
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

	ests := make([]float64, n)
	for i := range bss {
		ests[i] = estimateLeaf(bss[i], vpreds[i], opts.VectorSize)
	}
	distCache := map[[2]int]float64{}
	dist := func(leaf, pos int) float64 {
		k := [2]int{leaf, pos}
		if d, ok := distCache[k]; ok {
			return d
		}
		d := float64(vector.EstimateGroups(bss[leaf].src.Cols[pos].Ints))
		if d < 1 {
			d = 1
		}
		distCache[k] = d
		return d
	}
	stream, steps := orderJoins(jt, ests, dist, opts.NaiveJoinOrder)
	if len(steps) != n-1 {
		return nil, fmt.Errorf("physical: join graph is not a tree (%d steps for %d leaves)", len(steps), n)
	}
	stats := make([]*JoinStat, len(steps)) // nil entries when not observed
	if opts.Stats != nil {
		opts.Stats.Stream = jt.Leaves[stream].Scan.Table
		opts.Stats.Joins = make([]JoinStat, len(steps))
		for k, st := range steps {
			opts.Stats.Joins[k] = JoinStat{
				Build:   jt.Leaves[st.build].Scan.Table,
				EstRows: int64(st.est + 0.5),
			}
			stats[k] = &opts.Stats.Joins[k]
		}
	}

	mkLeafOp := func(li int) vector.Operator {
		return filtered(vector.NewScan(bss[li].src, opts.VectorSize), vpreds[li])
	}
	payloadOf := func(li int) []int {
		payload := make([]int, len(bss[li].src.Cols))
		for i := range payload {
			payload[i] = i
		}
		return payload
	}

	// Children-first builds. first is the first step in chain order whose
	// build degraded (len(steps) when none did).
	jbs := make([]*vector.JoinBuild, len(steps))
	first := len(steps)
	for k := len(steps) - 1; k >= 0; k-- {
		st, stat := steps[k], stats[k]
		jb, err := vector.BuildJoinTableGov(mkLeafOp(st.build), st.buildKeyPos, payloadOf(st.build), opts.Gov)
		switch {
		case err == nil:
			jbs[k] = jb
			preds, bitmap := jb.KeyFilter(st.probeKeyPos, opts.Gov)
			if stat != nil {
				stat.BuildRows = int64(jb.Rows())
				stat.FilterOn, stat.Filter = jt.Leaves[st.probe].Scan.Table, "range"
				if bitmap {
					stat.Filter = "bitmap"
				}
				preds[0].In, preds[len(preds)-1].Kept = &stat.FilterIn, &stat.FilterKept
			}
			vpreds[st.probe] = append(vpreds[st.probe], preds...)
		case errors.Is(err, memgov.ErrExceeded) && opts.canSpill():
			// The build outgrew the grant (its partial charge is already
			// handed back). The steps after it will join on its serial
			// chain: hand back their tables, keep their filters.
			for j := k + 1; j < first; j++ {
				jbs[j].ReleaseMem()
				jbs[j] = nil
			}
			first = k
		default:
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	// Intermediate layout: the stream leaf's columns first, then each
	// build's payload (all its pipeline columns) in execution order.
	ipos := make([]int, n)
	width := len(bss[stream].src.Cols)
	type builtStep struct {
		jb       *vector.JoinBuild
		probeKey int
		stat     *JoinStat
	}
	// probe stacks the in-memory steps' hash-join probes on op, each
	// counting its output rows into the step's observation.
	probe := func(op vector.Operator, steps []builtStep) vector.Operator {
		for _, c := range steps {
			op = &vector.HashJoinOp{Probe: op, ProbeKey: c.probeKey, Shared: c.jb}
			if c.stat != nil {
				op = &countOp{child: op, ctr: &c.stat.Actual}
			}
		}
		return op
	}
	var chain []builtStep
	var mkSerial func() vector.Operator

	for k := range steps {
		st, stat := steps[k], stats[k] // per step: the grace closure keeps them
		probeKey := ipos[st.probe] + st.probeKeyPos
		if k < first {
			chain = append(chain, builtStep{jb: jbs[k], probeKey: probeKey, stat: stat})
		} else {
			// Grace-hash step: both sides partition to disk by key hash
			// (each side's key filters applied first), partition pairs
			// join one at a time, and the chain continues serially on top.
			if stat != nil {
				stat.Grace = true
			}
			if mkSerial == nil {
				mkSerial = func() vector.Operator { return probe(mkLeafOp(stream), chain) }
			}
			// The build leaf ran once already: its filters count this run.
			for _, c := range counters(vpreds[st.build]) {
				atomic.StoreInt64(c, 0)
			}
			ncolsB := len(bss[st.build].src.Cols)
			stateBytes := int64(bss[st.build].src.ScanRows()) * int64(8+8*ncolsB+48)
			bits := graceBits(stateBytes, graceHeadroom(opts.Gov))
			bParts, bRows, err := partitionOp(ctx, opts, mkLeafOp(st.build), ncolsB, []int{st.buildKeyPos}, bits, "jb")
			if err != nil {
				return nil, err
			}
			pParts, _, err := partitionOp(ctx, opts, mkSerial(), width, []int{probeKey}, bits, "jp")
			if err != nil {
				return nil, err
			}
			if stat != nil {
				stat.BuildRows = bRows
			}
			exprs := make([]vector.Expr, width+ncolsB)
			for i := range exprs {
				exprs[i] = vector.ColRef{Idx: i}
			}
			payload := payloadOf(st.build)
			mkSerial = func() vector.Operator {
				var op vector.Operator = &graceJoinOp{
					ctx: ctx, bParts: bParts, pParts: pParts,
					buildKey: st.buildKeyPos, probeKey: probeKey,
					payload: payload, exprs: exprs, res: opts.Gov,
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
		ipos[st.build] = width
		width += len(bss[st.build].src.Cols)
	}

	remap := make([]int, 0, width)
	for li := 0; li < n; li++ {
		for j := 0; j < len(bss[li].src.Cols); j++ {
			remap = append(remap, ipos[li]+j)
		}
	}
	// A serial() replay counts again what the stream pipeline counted:
	// every in-memory step and the stream's filters, or, after a degraded
	// step, just the last grace join (the others read spilled partitions).
	var recount []*int64
	if opts.Stats != nil {
		if mkSerial != nil {
			recount = append(recount, &stats[len(steps)-1].Actual)
		} else {
			recount = counters(vpreds[stream])
			for _, stat := range stats {
				recount = append(recount, &stat.Actual)
			}
		}
	}
	return &pipeline{
		ctx: ctx, opts: opts, src: bss[stream].src,
		par:      func(scan vector.Operator) vector.Operator { return probe(filtered(scan, vpreds[stream]), chain) },
		mkSerial: mkSerial,
		remap:    remap, width: width,
		recount: recount,
	}, nil
}

// counters lists the row counters key filters carry in preds.
func counters(preds []vector.Pred) []*int64 {
	var out []*int64
	for _, p := range preds {
		for _, c := range []*int64{p.In, p.Kept} {
			if c != nil {
				out = append(out, c)
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

// --- plain projection ---

func (p *Plan) execPlain(ctx context.Context, snap *sqlfe.Snapshot, args []any, opts Options, proj *ProjectNode) (*Result, error) {
	pl, err := p.pipelineFor(ctx, snap, args, opts, proj.Child)
	if err != nil {
		return nil, err
	}
	exprs := make([]vector.Expr, len(proj.Outs))
	identity := len(proj.Outs) == pl.width
	for i, o := range proj.Outs {
		ri := pl.remap[o]
		if ri != i {
			identity = false
		}
		exprs[i] = vector.ColRef{Idx: ri}
	}
	op, _ := pl.run(opts.workers(), false, func(in vector.Operator) vector.Operator {
		if identity {
			return in
		}
		return &vector.Project{Child: in, Exprs: exprs}
	})
	if err := op.Open(); err != nil {
		return nil, err
	}
	return &Result{Op: op, Limit: p.Limit}, nil
}

// --- ORDER BY: per-worker sorted runs + k-way merge ---

func (p *Plan) execSort(ctx context.Context, snap *sqlfe.Snapshot, args []any, opts Options, proj *ProjectNode, sn *SortNode) (*Result, error) {
	pl, err := p.pipelineFor(ctx, snap, args, opts, sn.Child)
	if err != nil {
		return nil, err
	}
	key := pl.remap[sn.Key]
	var ties []int
	for _, t := range sn.Ties {
		ties = append(ties, pl.remap[t])
	}
	exprs := make([]vector.Expr, len(proj.Outs))
	for i, o := range proj.Outs {
		exprs[i] = vector.ColRef{Idx: pl.remap[o]}
	}
	// Single-table sorts tie-break on the global row id (stable, exactly
	// the MAL order); join outputs have no meaningful row order, so they
	// carry value ties (the output columns) and no row-id column.
	rowID := -1
	useRowIDs := len(ties) == 0
	runs := &vector.RunSet{}
	sink := opts.sink()
	if opts.Stats != nil {
		opts.Stats.Sort = &SortStat{Input: "join output", SortStats: &runs.Stats}
		if scan, _, err := pipe(sn.Child); err == nil {
			opts.Stats.Sort.Input = scan.Table
		}
	}
	if useRowIDs {
		// The RowIDs scan appends the global-position tiebreak column
		// after the (single) leaf's columns.
		rowID = pl.width
	}
	workers := opts.workers()
	if !radix.ShouldParallelSort(pl.src.ScanRows(), sn.Limit, workers) {
		// One run: the sort cost model says the merge machinery is pure
		// overhead here (tiny or single-worker input).
		workers = 1
	}
	// Sort degrades out of core incrementally: each worker's SortRun
	// encodes over-grant runs to spill files (releasing their memory),
	// and MergeRuns streams those external runs back through the same
	// k-way heap as the in-memory ones. With a nil sink (no scope, or
	// the reject policy) a denied charge fails the query instead.
	sorted, _ := pl.run(workers, useRowIDs, func(in vector.Operator) vector.Operator {
		return &vector.SortRun{Child: in, Key: key, RowID: rowID, Ties: ties, Desc: sn.Desc, Limit: sn.Limit,
			Res: opts.Gov, Spill: sink, Runs: runs, Size: opts.VectorSize}
	})
	merge := &vector.MergeRuns{
		Child: sorted,
		Key:   key,
		RowID: rowID,
		Ties:  ties,
		Desc:  sn.Desc,
		Limit: sn.Limit,
		Size:  opts.VectorSize,
		Ext:   runs,
	}
	out := &vector.Project{Child: merge, Exprs: exprs}
	if err := out.Open(); err != nil {
		return nil, err
	}
	return &Result{Op: out, Limit: p.Limit}, nil
}

// --- aggregate plumbing shared by the global and grouped forms ---

// aggSetup resolves a GroupAggNode's accumulators and optional Pre
// expression projection against the pipeline's intermediate layout.
func aggSetup(g *GroupAggNode, pl *pipeline) (specs []vector.AggSpec, wrap func(vector.Operator) vector.Operator, keyIdx []int) {
	var pre []vector.Expr
	if g.Pre != nil {
		pre = make([]vector.Expr, len(g.Pre))
		for i, e := range g.Pre {
			pre[i] = remapExpr(e, pl.remap)
		}
	}
	specs = make([]vector.AggSpec, len(g.Accs))
	for i, a := range g.Accs {
		col := a.Col
		if col >= 0 && pre == nil {
			col = pl.remap[col]
		}
		specs[i] = vector.AggSpec{Kind: a.Kind, Col: col}
	}
	keyIdx = make([]int, len(g.Keys))
	for i, k := range g.Keys {
		if pre != nil {
			keyIdx[i] = k // keys lead the Pre projection already
		} else {
			keyIdx[i] = pl.remap[k]
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

// --- global aggregates ---

func (p *Plan) execGlobalAgg(ctx context.Context, snap *sqlfe.Snapshot, args []any, opts Options, g *GroupAggNode) (*Result, error) {
	pl, err := p.pipelineFor(ctx, snap, args, opts, g.Child)
	if err != nil {
		return nil, err
	}
	specs, wrap, _ := aggSetup(g, pl)
	op, parts := pl.run(opts.workers(), false, func(in vector.Operator) vector.Operator {
		return &vector.Agg{Child: wrap(in), Aggs: specs}
	})
	if parts {
		// Re-aggregate the workers' partials (sums and counts add, min/max
		// re-fold nil-aware). One serial pass needs none: its accumulators
		// over the whole stream are the totals.
		op = vector.MergeGroups(op, 0, specs, nil)
	}
	row, err := drainOne(op)
	if err != nil {
		return nil, err
	}
	// Shape the single result row with SQL NULL semantics — sum/avg over
	// zero non-nil inputs is NULL, as is min/max over none. The row is
	// emitted as a one-row batch carrying the engine's nil sentinels,
	// which the cursor renders as NULL.
	cols := make([]vector.Col, len(g.Outs))
	for i, o := range g.Outs {
		cnt := int64(0)
		if o.CntAcc >= 0 {
			cnt = row.Cols[o.CntAcc].Ints[0]
		}
		switch o.Fn {
		case sqlfe.AggCount:
			cols[i] = vector.Col{Kind: vector.KindInt, Ints: []int64{row.Cols[o.Acc].Ints[0]}}
		case sqlfe.AggSum:
			if o.Flt {
				v := row.Cols[o.Acc].Floats[0]
				if cnt == 0 {
					v = math.NaN()
				}
				cols[i] = vector.Col{Kind: vector.KindFloat, Floats: []float64{v}}
			} else {
				v := row.Cols[o.Acc].Ints[0]
				if cnt == 0 {
					v = bat.NilInt
				}
				cols[i] = vector.Col{Kind: vector.KindInt, Ints: []int64{v}}
			}
		case sqlfe.AggAvg:
			v := math.NaN()
			if cnt != 0 {
				s := 0.0
				if row.Cols[o.Acc].Kind == vector.KindFloat {
					s = row.Cols[o.Acc].Floats[0]
				} else {
					s = float64(row.Cols[o.Acc].Ints[0])
				}
				v = s / float64(cnt)
			}
			cols[i] = vector.Col{Kind: vector.KindFloat, Floats: []float64{v}}
		default: // min/max: the accumulators already carry nil sentinels
			cols[i] = row.Cols[o.Acc]
		}
	}
	out := &batchOp{b: &vector.Batch{N: 1, Cols: cols}}
	if err := out.Open(); err != nil {
		return nil, err
	}
	return &Result{Op: out, Limit: p.Limit}, nil
}

// --- grouped aggregates (any key count, optional ORDER BY) ---

func (p *Plan) execGrouped(ctx context.Context, snap *sqlfe.Snapshot, args []any, opts Options, g *GroupAggNode) (*Result, error) {
	pl, err := p.pipelineFor(ctx, snap, args, opts, g.Child)
	if err != nil {
		return nil, err
	}
	specs, wrap, keyIdx := aggSetup(g, pl)
	op, parts := pl.run(opts.workers(), false, func(in vector.Operator) vector.Operator {
		return &vector.Agg{Child: wrap(in), Keys: keyIdx, Aggs: specs, Res: opts.Gov}
	})
	if parts {
		// Merge the workers' partial groups by key. One serial pass needs
		// no second table: its Agg already holds every group's totals.
		op = vector.MergeGroups(op, len(keyIdx), specs, opts.Gov)
	}
	merged, err := drainOne(op)
	if errors.Is(err, memgov.ErrExceeded) && opts.canSpill() {
		// The grouping table outgrew the grant mid-build: re-plan to
		// grace-hash partitioning (the failed attempt already handed its
		// memory back on the way out).
		chainCols := pl.width
		if g.Pre != nil {
			chainCols = len(g.Pre)
		}
		mk := func() vector.Operator { return wrap(pl.serial()) }
		return p.graceGrouped(ctx, opts, mk, chainCols, pl.src.ScanRows(), keyIdx, g, specs)
	}
	if err != nil {
		return nil, err
	}
	return p.finishGrouped(merged, g, opts.Stats)
}

// finishGrouped shapes a merged [keys..., accs...] batch into the
// select-list columns and applies the grouped ORDER BY, emitting the
// whole result as one batch.
func (p *Plan) finishGrouped(merged *vector.Batch, g *GroupAggNode, stats *ExecStats) (*Result, error) {
	out := &vector.Batch{N: merged.N, Cols: shapeGrouped(merged, g)}
	if g.OrderBy >= 0 && merged.N > 1 && p.Limit != 0 {
		// Sort by the chosen output item; ties break on the full group-key
		// tuple (group rows are unique on it, so the order is total) —
		// the same canonical order the MAL program's stable-sort chain
		// produces. The groups run through the one sort operator, so a
		// LIMIT selects its top groups instead of ordering all of them.
		nk, ns := len(g.Keys), len(out.Cols)
		comb := append(out.Cols[:ns:ns], merged.Cols[:nk]...)
		ties := make([]int, nk)
		for ki := range ties {
			ties[ki] = ns + ki
		}
		src, err := vector.NewSourceWithLen(make([]string, len(comb)), comb, merged.N)
		if err != nil {
			return nil, err
		}
		runs := &vector.RunSet{}
		if stats != nil {
			stats.Sort = &SortStat{Input: "groups", SortStats: &runs.Stats}
		}
		sorted, err := drainOne(&vector.SortRun{Child: vector.NewScan(src, 0), Key: g.OrderBy, RowID: -1,
			Ties: ties, Desc: g.OrderDesc, Limit: p.Limit, Runs: runs})
		if err != nil {
			return nil, err
		}
		runs.Stats.Kept.Add(int64(sorted.N))
		out = &vector.Batch{N: sorted.N, Cols: sorted.Cols[:ns]}
	}
	op := &batchOp{b: out}
	if err := op.Open(); err != nil {
		return nil, err
	}
	return &Result{Op: op, Limit: p.Limit}, nil
}

// shapeGrouped shapes a merged [keys..., accs...] grouped-aggregate
// batch into the select-list columns with SQL NULL semantics (nil
// sentinels render as NULL).
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

// batchOp adapts one materialized batch to the Operator interface so a
// shaped result streams through the same cursor as a pipeline.
type batchOp struct {
	b    *vector.Batch
	done bool
}

func (o *batchOp) Open() error { o.done = false; return nil }

func (o *batchOp) Next() (*vector.Batch, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	return o.b, nil
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
