package vector

// Parallel grouped aggregation. Two plans, picked by the radix cost
// model (radix.ShouldPartitionGroup):
//
//   - Merge-based (ParallelGroupAgg): every Exchange worker builds its
//     own open-addressing grouping table over the morsels it claims and
//     emits ONE batch of (key, partial...) rows; a final Agg over the
//     Exchange unifies worker-local group ids by re-grouping on the key
//     column and re-aggregates the partials (sum of sums, min of mins —
//     MergeKind gives the fold). Wins while the grouping table stays
//     cache-resident: the merge costs workers×groups inserts, trivial
//     against n.
//
//   - Shared-nothing partitioned (PartitionedGroupAggGov): the
//     (position, key) pairs are radix-clustered on the low hash bits
//     first (radix.ParallelClusterCtx — every pass parallel), then
//     each worker owns whole clusters = disjoint key ranges, griding
//     through a cache-resident per-cluster table; the "merge" is
//     concatenation.
//     Wins at high cardinality, where per-worker tables would each be
//     LLC-sized and the merge another full-table build.
//
// Group output order is NOT deterministic across runs (merge order
// follows worker scheduling; partitioned order follows the key hash) —
// SQL grouped output is unordered, and callers needing order sort.

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bat"
	"repro/internal/memgov"
	"repro/internal/radix"
)

// MergeKind maps a partial-aggregate kind to the kind that folds its
// per-worker partials into totals: sums and counts add, min/max re-fold
// nil-aware (a worker whose groups saw only nils emits the nil
// sentinel, which the merge fold skips like any other nil input).
func MergeKind(k AggKind) AggKind {
	switch k {
	case AggSumInt, AggSumIntNil, AggCount, AggCountNNInt, AggCountNNFloat:
		return AggSumInt
	case AggSumFloat, AggSumFloatNil:
		return AggSumFloat
	case AggMinInt:
		return AggMinInt
	case AggMaxInt:
		return AggMaxInt
	case AggMinFloat:
		return AggMinFloat
	case AggMaxFloat:
		return AggMaxFloat
	}
	return k
}

// ParallelGroupAgg is the merge-based plan: per-worker grouped partial
// aggregation over morsels, merged by key into one batch with columns
// [keys..., aggs...]. keyCols names any number of int key columns.
// preds (optional) filter before grouping; ctx (optional) cancels at
// morsel boundaries. Zero workers, morselSize or vectorSize take the
// Exchange defaults.
func ParallelGroupAgg(ctx context.Context, src *Source, keyCols []int, specs []AggSpec, preds []Pred, workers, morselSize, vectorSize int) (*Batch, error) {
	wrap := func(scan Operator) Operator {
		if len(preds) > 0 {
			return &Filter{Child: scan, Preds: preds}
		}
		return scan
	}
	return GroupAggOverPlan(ctx, src, wrap, keyCols, specs, workers, morselSize, vectorSize, nil)
}

// GroupAggOverPlan is the merge-based grouped aggregation over an
// ARBITRARY per-worker pipeline: wrap builds each worker's operator
// chain over its morsel scan (filters, hash-join probes, expression
// projections — whatever feeds the grouping), this function appends the
// per-worker partial Agg and runs the key-merge. keyCols/specs index
// the columns of wrap's OUTPUT batches. This is how grouped aggregation
// composes over N-way join pipelines without re-materializing the join
// result. Every worker's grouping table — and the final merge's — is
// charged against res (nil: ungoverned); a worker whose table outgrows
// the query's grant surfaces memgov.ErrExceeded through the Exchange,
// each worker Agg hands its charge back on Close, and the physical
// layer re-plans to grace-hash partitioning.
func GroupAggOverPlan(ctx context.Context, src *Source, wrap func(Operator) Operator, keyCols []int, specs []AggSpec, workers, morselSize, vectorSize int, res *memgov.Reservation) (*Batch, error) {
	plan := func(scan Operator) Operator {
		return &Agg{Child: wrap(scan), Keys: keyCols, Aggs: specs, Res: res}
	}
	ex := &Exchange{
		Source:     src,
		Workers:    workers,
		MorselSize: morselSize,
		VectorSize: vectorSize,
		Plan:       plan,
		Ctx:        ctx,
	}
	// Worker batches lead with the key column(s), so partial column i
	// sits at i+len(keyCols); the merge re-groups on those leading keys.
	nk := len(keyCols)
	mergeKeys := make([]int, nk)
	for i := range mergeKeys {
		mergeKeys[i] = i
	}
	merge := make([]AggSpec, len(specs))
	for i, s := range specs {
		merge[i] = AggSpec{Kind: MergeKind(s.Kind), Col: i + nk}
	}
	final := &Agg{Child: ex, Keys: mergeKeys, Aggs: merge, Res: res, merge: true}
	if err := final.Open(); err != nil {
		return nil, err
	}
	defer final.Close()
	out, err := final.Next()
	if err != nil {
		return nil, err
	}
	if out == nil {
		return nil, fmt.Errorf("vector: grouped merge produced no batch")
	}
	return out, nil
}

// PartitionedGroupAggGov is the shared-nothing plan: radix-cluster
// (position, key) pairs so workers own disjoint key ranges, aggregate
// each cluster with a cache-resident table, concatenate. The input must
// be unfiltered (the caller falls back to the merge plan under
// predicates); ctx is observed throughout — during the shuffle
// (ParallelClusterCtx checks between passes and clusters) and between
// aggregation clusters — so cancellation latency stays bounded by one
// pass/cluster of work, not the whole plan.
//
// A non-nil res is charged up front for the tuple shuffle — the plan's
// dominant allocation: the (position, key) array plus the clustered
// copy, 16 bytes per row each. The per-cluster tables stay
// cache-resident by construction and are not charged. The whole charge
// is released on return: the shuffle dies with this call.
func PartitionedGroupAggGov(ctx context.Context, src *Source, keyCol int, specs []AggSpec, workers, bits int, res *memgov.Reservation) (*Batch, error) {
	keys := src.Cols[keyCol].Ints
	n := len(keys)
	if res != nil {
		charge := int64(n) * 32
		if err := res.Acquire(charge); err != nil {
			return nil, err
		}
		defer res.Release(charge)
	}
	tuples := make([]radix.Tuple, n)
	for i, k := range keys {
		tuples[i] = radix.Tuple{OID: bat.OID(i), Val: k}
	}
	c, err := radix.ParallelClusterCtx(ctx, tuples, radix.SplitBits(bits, 2), workers)
	if err != nil {
		return nil, err
	}

	nclusters := c.NumClusters()
	parts := make([]*Batch, nclusters)
	errs := make([]error, nclusters)
	next := make(chan int)
	done := make(chan struct{})
	if workers <= 0 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		go func() {
			scratch := clusterScratch{cols: make([]Col, len(src.Cols))}
			for ci := range next {
				parts[ci], errs[ci] = scratch.group(src, c.ClusterSlice(ci), specs)
			}
			done <- struct{}{}
		}()
	}
	var ctxErr error
feed:
	for ci := 0; ci < nclusters; ci++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				ctxErr = err
				break feed
			}
		}
		next <- ci
	}
	close(next)
	for w := 0; w < workers; w++ {
		<-done
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Concatenate: clusters hold disjoint key sets, so group ids are
	// just offsets into the combined output.
	total := 0
	for _, p := range parts {
		if p != nil {
			total += p.N
		}
	}
	cols := make([]Col, len(specs)+1)
	cols[0] = Col{Kind: KindInt, Ints: make([]int64, 0, total)}
	for i, s := range specs {
		if s.Kind.Float() {
			cols[i+1] = Col{Kind: KindFloat, Floats: make([]float64, 0, total)}
		} else {
			cols[i+1] = Col{Kind: KindInt, Ints: make([]int64, 0, total)}
		}
	}
	for _, p := range parts {
		if p == nil {
			continue
		}
		for i := range cols {
			if cols[i].Kind == KindFloat {
				cols[i].Floats = append(cols[i].Floats, p.Cols[i].Floats...)
			} else {
				cols[i].Ints = append(cols[i].Ints, p.Cols[i].Ints...)
			}
		}
	}
	return &Batch{N: total, Cols: cols}, nil
}

// clusterScratch is one worker's gather space, reused from cluster to
// cluster: the cluster-local key column, its group ids, and one value
// column per aggregated source column (indexed like Source.Cols).
type clusterScratch struct {
	keys []int64
	gids []int32
	cols []Col
}

// group aggregates one cluster's tuples: the keys and every aggregated
// column are gathered through the shuffled positions into cluster-local
// columns (cache-resident by construction), which then take the same
// Assign + per-group folds as one Agg batch. Returns a batch
// [key, aggs...] or nil for an empty cluster.
func (sc *clusterScratch) group(src *Source, cl []radix.Tuple, specs []AggSpec) (*Batch, error) {
	n := len(cl)
	if n == 0 {
		return nil, nil
	}
	if cap(sc.keys) < n {
		sc.keys, sc.gids = make([]int64, n), make([]int32, n)
	}
	keys, gids := sc.keys[:n], sc.gids[:n]
	for i := range cl {
		keys[i] = cl[i].Val
	}
	gt := radix.NewGroupTable(1, 256)
	ng := gt.Assign([][]int64{keys}, nil, gids)
	for c := range sc.cols {
		sc.cols[c].Ints, sc.cols[c].Floats = sc.cols[c].Ints[:0], sc.cols[c].Floats[:0]
	}
	cols := make([]Col, len(specs)+1)
	cols[0] = Col{Kind: KindInt, Ints: gt.Key(0)}
	for ai, spec := range specs {
		if spec.Kind != AggCount { // count(*) reads no column: Col is -1
			sc.gather(src, cl, spec.Col)
		}
		ints, flts, err := spec.fold(sc.cols, nil, n, gids, nil, nil, ng)
		if err != nil {
			return nil, err
		}
		if flts != nil {
			cols[ai+1] = Col{Kind: KindFloat, Floats: flts}
		} else {
			cols[ai+1] = Col{Kind: KindInt, Ints: ints}
		}
	}
	return &Batch{N: int(ng), Cols: cols}, nil
}

// gather fills scratch column c with source column c's values at the
// cluster's shuffled positions, once per cluster however many
// aggregates read the column.
func (sc *clusterScratch) gather(src *Source, cl []radix.Tuple, c int) {
	g, n := &sc.cols[c], len(cl)
	if len(g.Ints)+len(g.Floats) > 0 {
		return
	}
	switch from := src.Cols[c]; from.Kind {
	case KindInt:
		if cap(g.Ints) < n {
			g.Ints = make([]int64, n)
		}
		g.Ints = g.Ints[:n]
		for i := range cl {
			g.Ints[i] = from.Ints[cl[i].OID]
		}
	case KindFloat:
		if cap(g.Floats) < n {
			g.Floats = make([]float64, n)
		}
		g.Floats = g.Floats[:n]
		for i := range cl {
			g.Floats[i] = from.Floats[cl[i].OID]
		}
	}
}

// EstimateGroups guesses the distinct-key count of keys from a sample
// of at most 4096 values spread across the whole column: d distinct
// among s sampled. For G uniform groups the expected sample
// distinctness is E[d] = G·(1-e^(-s/G)) — the Poisson/coupon-collector
// curve — so the estimate inverts it as G ≈ -s·ln(1-d/s), which is
// exact at G=s and within a small factor across the band (a naive
// linear d·n/s extrapolation overestimates that band by orders of
// magnitude once the sample is half distinct). A fully-distinct sample
// says only "at least ~n-ish": return n. The plan choice this feeds
// needs the order of magnitude — cache-resident vs LLC-spilling
// grouping table — not precision.
func EstimateGroups(keys []int64) int {
	n := len(keys)
	if n == 0 {
		return 0
	}
	s := n
	if s > 4096 {
		s = 4096
	}
	// Sample positions i*n/s so coverage spans the WHOLE column even
	// when n is not a multiple of s — an integer stride would degrade
	// to a prefix scan and misjudge data clustered by key.
	sample := make([]int64, s)
	for i := range sample {
		sample[i] = keys[i*n/s]
	}
	d := int(radix.NewGroupTable(1, s).Assign([][]int64{sample}, nil, make([]int32, s)))
	if d >= s {
		return n
	}
	est := int(-float64(s) * math.Log(1-float64(d)/float64(s)))
	if est < d {
		est = d
	}
	if est > n {
		est = n
	}
	return est
}
