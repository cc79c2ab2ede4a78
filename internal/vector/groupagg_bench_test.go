package vector

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/radix"
)

// BenchmarkGroupedAgg is the grouped-aggregation sweep: SELECT k,
// sum(v) GROUP BY k over 1M rows at group
// cardinalities 10 → 1M, across four engines:
//
//   - serial-map:    the PR-3-era per-batch map grouping
//   - serial-table:  the open-addressing Agg, one worker's pipeline
//   - parallel:      per-worker partial tables + merge (ParallelGroupAgg)
//   - partitioned:   shared-nothing radix-partitioned (PartitionedGroupAggGov)
//
// On a 1-core host the parallel variants measure their overhead, not
// their scaling; re-run on a multi-core machine for speedups.
func BenchmarkGroupedAgg(b *testing.B) {
	const n = 1 << 20
	workers := runtime.GOMAXPROCS(0)
	for _, card := range []int{10, 1000, 100000, 1 << 20} {
		rng := rand.New(rand.NewSource(3))
		keys := make([]int64, n)
		vals := make([]int64, n)
		for i := range keys {
			keys[i] = rng.Int63n(int64(card))
			vals[i] = rng.Int63n(1000)
		}
		src, err := NewSource([]string{"k", "v"}, []Col{
			{Kind: KindInt, Ints: keys},
			{Kind: KindInt, Ints: vals},
		})
		if err != nil {
			b.Fatal(err)
		}
		specs := []AggSpec{{Kind: AggSumIntNil, Col: 1}}

		b.Run(fmt.Sprintf("serial-map-card%d", card), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if g := mapGroupSum(keys, vals); len(g) == 0 {
					b.Fatal("no groups")
				}
			}
		})
		b.Run(fmt.Sprintf("serial-table-card%d", card), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a := &Agg{Child: NewScan(src, DefaultSize), Keys: []int{0}, Aggs: specs}
				if err := a.Open(); err != nil {
					b.Fatal(err)
				}
				out, err := a.Next()
				if err != nil || out == nil || out.N == 0 {
					b.Fatalf("out=%v err=%v", out, err)
				}
				a.Close()
			}
		})
		b.Run(fmt.Sprintf("parallel-card%d", card), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := ParallelGroupAgg(context.Background(), src, []int{0}, specs, nil, workers, DefaultMorselSize, DefaultSize)
				if err != nil || out.N == 0 {
					b.Fatalf("groups=%d err=%v", out.N, err)
				}
			}
		})
		b.Run(fmt.Sprintf("partitioned-card%d", card), func(b *testing.B) {
			bits := radix.GroupBits(card)
			if bits == 0 {
				bits = 4 // force real partitioning even at low cardinality
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := PartitionedGroupAggGov(context.Background(), src, 0, specs, workers, bits, nil)
				if err != nil || out.N == 0 {
					b.Fatalf("groups=%d err=%v", out.N, err)
				}
			}
		})
	}
}

// mapGroupSum is the PR-3-era map-based grouped sum, kept as the
// benchmark baseline.
func mapGroupSum(keys, vals []int64) map[int64]int64 {
	groups := make(map[int64]int32)
	var sums []int64
	for i, k := range keys {
		g, ok := groups[k]
		if !ok {
			g = int32(len(groups))
			groups[k] = g
			sums = append(sums, 0)
		}
		sums[g] += vals[i]
	}
	out := make(map[int64]int64, len(groups))
	for k, g := range groups {
		out[k] = sums[g]
	}
	return out
}
