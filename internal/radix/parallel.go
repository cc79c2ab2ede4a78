package radix

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallel radix-clustering. The multi-pass Cluster of §4.2 is
// embarrassingly parallel almost everywhere: after the first pass the
// clusters are disjoint regions that later passes subdivide
// independently, and the first pass itself decomposes into per-chunk
// histograms + a chunk-major prefix sum + per-chunk scatters (each chunk
// writes through private cursors into disjoint slices of every bucket).
// The output is bit-for-bit identical to the serial Cluster: the
// chunk-major cursor layout preserves input order within each bucket, so
// the clustering stays stable.

// ParallelClusterCtx is Cluster with the work of every pass spread over
// `workers` goroutines. workers == 1 (or a small input) degenerates to
// the serial algorithm; workers <= 0 means GOMAXPROCS. Cancellation is
// bounded: a non-nil ctx is observed between passes, between clusters
// of the later passes, and between chunks of the first pass, so a
// canceled long shuffle stops within one chunk/cluster of work instead
// of running the full multi-pass O(n) scatter to completion. On
// cancellation the returned error is ctx.Err() and the Clustered value
// is meaningless.
func ParallelClusterCtx(ctx context.Context, tuples []Tuple, passBits []int, workers int) (Clustered, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	totalBits := 0
	for _, b := range passBits {
		totalBits += b
	}
	// Below ~64K tuples the goroutine+barrier overhead outweighs the
	// scatter work; one core streams it faster.
	if workers == 1 || len(tuples) < 1<<16 || totalBits == 0 {
		if ctx != nil && ctx.Err() != nil {
			return Clustered{}, ctx.Err()
		}
		return Cluster(tuples, passBits), nil
	}

	cur := tuples
	buf := make([]Tuple, len(tuples))
	bounds := []int{0, len(tuples)}
	bitsDone := 0
	first := true
	for _, bp := range passBits {
		if bp == 0 {
			continue
		}
		if ctx != nil && ctx.Err() != nil {
			return Clustered{}, ctx.Err()
		}
		bitsDone += bp
		shift := uint(totalBits - bitsDone)
		mask := uint64(1<<bp) - 1
		newBounds := make([]int, (len(bounds)-1)*(1<<bp)+1)
		newBounds[len(newBounds)-1] = len(tuples)
		if first {
			// Pass 1: one cluster spanning the whole input. Chunk it,
			// histogram per chunk, prefix-sum bucket-major/chunk-minor,
			// scatter per chunk through private cursors.
			parallelScatter(cur, buf, shift, mask, int(mask)+1, workers, newBounds)
			first = false
		} else {
			// Later passes: each existing cluster subdivides
			// independently — the per-cluster loop of the serial
			// algorithm, handed out by an atomic cursor. A canceled ctx
			// makes the remaining claims no-ops.
			var next atomic.Int64
			var wg sync.WaitGroup
			nclusters := len(bounds) - 1
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						c := int(next.Add(1)) - 1
						if c >= nclusters {
							return
						}
						if ctx != nil && ctx.Err() != nil {
							return
						}
						lo, hi := bounds[c], bounds[c+1]
						scatterRange(cur, buf, lo, hi, shift, mask, newBounds[c*(1<<bp):])
					}
				}()
			}
			wg.Wait()
			if ctx != nil && ctx.Err() != nil {
				return Clustered{}, ctx.Err()
			}
		}
		cur, buf = buf, cur
		bounds = newBounds
	}
	return Clustered{Tuples: cur, Bounds: bounds, Bits: totalBits}, nil
}

// scatterRange subdivides cur[lo:hi] into buf[lo:hi] on (hash>>shift)&mask,
// writing the 1<<bp sub-cluster start offsets into outBounds[:1<<bp].
func scatterRange(cur, buf []Tuple, lo, hi int, shift uint, mask uint64, outBounds []int) {
	nb := int(mask) + 1
	counts := make([]int32, nb)
	for i := lo; i < hi; i++ {
		counts[(Hash(cur[i].Val)>>shift)&mask]++
	}
	cursors := make([]int32, nb)
	var acc int32
	for i, n := range counts {
		cursors[i] = acc
		outBounds[i] = lo + int(acc)
		acc += n
	}
	for i := lo; i < hi; i++ {
		h := (Hash(cur[i].Val) >> shift) & mask
		buf[lo+int(cursors[h])] = cur[i]
		cursors[h]++
	}
}

// parallelScatter is the chunked first pass: nb buckets over the whole
// input. Every chunk counts, a chunk-major prefix sum assigns each
// (bucket, chunk) its disjoint output window, and the chunks scatter
// concurrently. Bucket start offsets land in outBounds[:nb].
func parallelScatter(cur, buf []Tuple, shift uint, mask uint64, nb, workers int, outBounds []int) {
	n := len(cur)
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	counts := make([][]int32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo, hi := w*chunk, (w+1)*chunk
			if hi > n {
				hi = n
			}
			c := make([]int32, nb)
			for i := lo; i < hi; i++ {
				c[(Hash(cur[i].Val)>>shift)&mask]++
			}
			counts[w] = c
		}(w)
	}
	wg.Wait()
	// Bucket-major, chunk-minor prefix sum: bucket b's region starts
	// after all smaller buckets, and within it chunk w writes after
	// chunks < w — preserving input order (stability).
	cursors := make([][]int32, workers)
	for w := range cursors {
		cursors[w] = make([]int32, nb)
	}
	var acc int32
	for b := 0; b < nb; b++ {
		outBounds[b] = int(acc)
		for w := 0; w < workers; w++ {
			cursors[w][b] = acc
			acc += counts[w][b]
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo, hi := w*chunk, (w+1)*chunk
			if hi > n {
				hi = n
			}
			cur2 := cursors[w]
			for i := lo; i < hi; i++ {
				h := (Hash(cur[i].Val) >> shift) & mask
				buf[cur2[h]] = cur[i]
				cur2[h]++
			}
		}(w)
	}
	wg.Wait()
}
