package vector

// Parallel grouped aggregation, one plan for every key width and input:
// every Exchange worker builds its own open-addressing grouping table
// over the morsels it claims and emits ONE batch of (key, partial...)
// rows; a final Agg over the Exchange (MergeGroups) unifies worker-local
// group ids by re-grouping on the key columns and re-aggregates the
// partials (sum of sums, min of mins — mergeKind gives the fold). The
// merge costs workers×groups inserts, trivial against n while the
// grouping table stays cache-resident; past the LLC a radix-partitioned
// shuffle would beat it, but no workload groups on that many keys.
//
// Group output order is NOT deterministic across runs (merge order
// follows worker scheduling) — SQL grouped output is unordered, and
// callers needing order sort.

import (
	"context"
	"fmt"

	"repro/internal/memgov"
)

// mergeKind maps a partial-aggregate kind to the kind that folds its
// per-worker partials into totals: sums and counts add, min/max re-fold
// nil-aware (a worker whose groups saw only nils emits the nil
// sentinel, which the merge fold skips like any other nil input).
func mergeKind(k AggKind) AggKind {
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

// ParallelGroupAgg is per-worker grouped partial aggregation over
// morsels, merged by key into one batch with columns [keys...,
// aggs...]. keyCols names any number of int key columns. preds
// (optional) filter before grouping; ctx (optional) cancels at morsel
// boundaries. Zero workers, morselSize or vectorSize take the Exchange
// defaults.
func ParallelGroupAgg(ctx context.Context, src *Source, keyCols []int, specs []AggSpec, preds []Pred, workers, morselSize, vectorSize int) (*Batch, error) {
	ex := &Exchange{
		Source:     src,
		Workers:    workers,
		MorselSize: morselSize,
		VectorSize: vectorSize,
		Plan: func(scan Operator) Operator {
			if len(preds) > 0 {
				scan = &Filter{Child: scan, Preds: preds}
			}
			return &Agg{Child: scan, Keys: keyCols, Aggs: specs}
		},
		Ctx: ctx,
	}
	final := MergeGroups(ex, len(keyCols), specs, nil)
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

// MergeGroups returns the final Agg over per-worker partial aggregates:
// child emits [keys..., partials...] batches — nk leading key columns,
// then one partial per spec, in specs order — and the Agg re-groups on
// the keys and folds each partial with mergeKind. With nk == 0 it folds
// global partials into the one result row. Its grouping table is
// charged against res (nil: ungoverned); a worker or merge table that
// outgrows the query's grant surfaces memgov.ErrExceeded, each Agg
// hands its charge back on Close, and the physical layer re-plans to
// grace-hash partitioning.
func MergeGroups(child Operator, nk int, specs []AggSpec, res *memgov.Reservation) *Agg {
	keys := make([]int, nk)
	for i := range keys {
		keys[i] = i
	}
	merge := make([]AggSpec, len(specs))
	for i, s := range specs {
		merge[i] = AggSpec{Kind: mergeKind(s.Kind), Col: i + nk}
	}
	return &Agg{Child: child, Keys: keys, Aggs: merge, Res: res, merge: true}
}
