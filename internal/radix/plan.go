package radix

import (
	"repro/internal/costmodel"
	"repro/internal/simhw"
)

// Join-algorithm planning via the generic cost model of §4.4: instead of
// a magic row-count threshold, the choice between the flat
// open-addressing join and the both-sides radix-clustered join of
// Figure 2 is made by predicting each plan's memory cost on a
// calibrated hierarchy and taking the cheaper one.
//
// The hierarchy is simhw.Default (the paper-era two-level machine) plus
// an L3: on every post-2008 server the band between "leaves L2" and
// "leaves LLC" is served at a few tens of nanoseconds, and it is exactly
// this band — hash tables of a few MB, i.e. builds of 32K..512K rows —
// where the paper-era model mispredicts by assuming every L2 miss pays
// DRAM latency. Without the L3 level the model clusters from ~50K rows;
// measured on real hardware the flat join wins until the table outgrows
// the LLC (the band rows of `go run ./cmd/experiments E3` are the A/B
// sweep).
// Latencies are EFFECTIVE, not architectural: an out-of-order core keeps
// several hash-probe misses in flight, so the per-probe cost observed in
// the flat-join sweep (~35ns per L3-resident probe, ~80ns past the LLC)
// is well under the pointer-chasing latency. The same sweep calibrates
// the TLB miss charge (hardware page walkers overlap too).
func joinHierarchy() simhw.Hierarchy {
	h := simhw.Default()
	l3 := simhw.Level{Name: "L3", Capacity: 16 << 20, LineSize: 64, Assoc: 16, LatSeqNS: 10, LatRandNS: 28}
	ram := h.Levels[2]
	ram.LatRandNS = 90
	h.Levels = []simhw.Level{h.Levels[0], h.Levels[1], l3, ram}
	h.TLB.MissNS = 10
	return h
}

// tableBytes is the memory footprint of a flat Table over n keys: the
// power-of-two 16-byte slot array at load <= 1/2 plus the int32 chains.
func tableBytes(n int) int {
	slots := 8
	for slots < 2*n {
		slots <<= 1
	}
	return slots*16 + 4*n
}

// flatJoinPattern is the access pattern of the unpartitioned hash join:
// sequential key reads interleaved with random slot accesses over one
// shared table region. Build and probe touch the SAME region, so they
// are modeled as one random traversal of nl+nr accesses — splitting
// them into ⊕-combined phases would charge the table's compulsory
// misses twice, once for the build's writes and again for the probe's
// reads of the lines the build just filled.
func flatJoinPattern(nl, nr int) costmodel.Pattern {
	tb := tableBytes(nl)
	return costmodel.Concurrent{
		costmodel.SeqTraverse{Bytes: (nl + nr) * 8, N: nl + nr},
		costmodel.RandTraverse{Bytes: tb, N: nl + nr},
	}
}

// clusteredJoinPattern is the Figure-2 plan at the given radix bits:
// multi-pass radix-cluster of both sides (16-byte tuples), then a
// cache-resident build+probe per cluster pair.
func clusteredJoinPattern(nl, nr, bits int) costmodel.Pattern {
	passes := SplitBits(bits, 2)
	perCluster := tableBytes(nl >> uint(bits))
	if perCluster < 1 {
		perCluster = 1
	}
	return costmodel.Sequence{
		costmodel.RadixClusterPattern(nl, 16, passes),
		costmodel.RadixClusterPattern(nr, 16, passes),
		costmodel.Concurrent{
			costmodel.SeqTraverse{Bytes: (nl + nr) * 16, N: nl + nr},
			costmodel.RandTraverse{Bytes: perCluster, N: nl + nr},
		},
	}
}

// JoinCost predicts the memory cost (ns) of the flat and clustered
// plans for an nl-build/nr-probe equi-join with the given per-cluster
// cache budget. Exposed for tests and experiments.
func JoinCost(nl, nr, cacheBytes int) (flatNS, clusteredNS float64) {
	h := joinHierarchy()
	flatNS = costmodel.Predict(h, flatJoinPattern(nl, nr)).TimeNS
	// JoinBATs picks its cluster bits from the LARGER side; cost the
	// same plan it would run.
	nmax := nl
	if nr > nmax {
		nmax = nr
	}
	bits := JoinBits(nmax, cacheBytes)
	if bits == 0 {
		return flatNS, flatNS
	}
	clusteredNS = costmodel.Predict(h, clusteredJoinPattern(nl, nr, bits)).TimeNS
	return flatNS, clusteredNS
}

// ShouldCluster reports whether the both-sides radix-clustered join is
// predicted cheaper than the flat join for an nl-build/nr-probe pair —
// the §4.4 cost model replacing the old fixed 2^16 row threshold. The
// flat plan keeps a small edge margin: clustering rewrites both inputs,
// so it must win clearly, not marginally, before the extra code path
// pays.
func ShouldCluster(nl, nr, cacheBytes int) bool {
	flat, clustered := JoinCost(nl, nr, cacheBytes)
	return clustered*1.2 < flat
}

// JoinCacheBytes is the cache size the join cost model tunes cluster
// plans for (the paper-era L2; see internal/simhw.Default); the MAL
// join op hands it to ShouldCluster.
const JoinCacheBytes = 512 << 10

// --- sort planning ---

// sortCacheLine approximates one sorted row in flight: the 8-byte key
// plus the gathered payload touch about one line per comparison-miss.
const sortRowBytes = 16

// serialSortPattern is one stable sort of n rows: ~n·log2(n) key
// comparisons random over the whole key region, then one sequential
// gather of the payload.
func serialSortPattern(n int) costmodel.Pattern {
	return costmodel.Sequence{
		costmodel.RandTraverse{Bytes: n * sortRowBytes, N: n * log2ceil(n)},
		costmodel.SeqTraverse{Bytes: n * sortRowBytes, N: n},
	}
}

// parallelSortPattern is the run-sort + k-way-merge plan: every row is
// sorted inside a runs/workers-sized region (cache-resident once runs
// fit), then the merge reads all runs sequentially with a log2(workers)
// heap comparison per row.
func parallelSortPattern(n, workers int) costmodel.Pattern {
	if workers < 1 {
		workers = 1
	}
	run := n / workers
	if run < 1 {
		run = 1
	}
	return costmodel.Sequence{
		costmodel.RandTraverse{Bytes: run * sortRowBytes, N: n * log2ceil(run)},
		costmodel.Concurrent{
			costmodel.SeqTraverse{Bytes: n * sortRowBytes, N: n},
			costmodel.RandTraverse{Bytes: workers * sortRowBytes, N: n * log2ceil(workers)},
		},
	}
}

// SortCost predicts the memory cost (ns) of one serial stable sort vs
// the per-worker-runs + merge plan over n rows. As with JoinCost only
// MEMORY cost is compared — the CPU-parallel speedup of
// the run phase comes on top for the parallel plan, so the comparison
// is conservative in its favor.
func SortCost(n, workers int) (serialNS, parallelNS float64) {
	h := joinHierarchy()
	serialNS = costmodel.Predict(h, serialSortPattern(n)).TimeNS
	parallelNS = costmodel.Predict(h, parallelSortPattern(n, workers)).TimeNS
	return serialNS, parallelNS
}

// ShouldParallelSort reports whether the run+merge sort plan is
// predicted cheaper than one serial sort. Tiny inputs keep the serial
// plan (the merge heap and the extra materialization pass are pure
// overhead when the whole input is L2-resident); past that the
// cache-resident runs win even before the CPU-parallel speedup.
//
// A limit in [0, n) makes the sort a top-N selection, which SortCost
// does not describe: each run is one sequential traversal of its
// morsels beside a cache-resident 2·limit-row buffer, and the merge
// reads workers×limit rows. The two plans then differ in no memory cost
// the model could trade — only the scan parallelizes — so every worker
// the exchange has a morsel for gets a run.
func ShouldParallelSort(n, limit, workers int) bool {
	if workers <= 1 {
		return false
	}
	if limit >= 0 && limit < n {
		return true
	}
	serial, parallel := SortCost(n, workers)
	return parallel < serial
}

// log2ceil returns ceil(log2(n)), at least 1.
func log2ceil(n int) int {
	b := 1
	for (1 << uint(b)) < n {
		b++
	}
	return b
}
