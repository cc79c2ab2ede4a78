package radix

import "testing"

// The cost-model decision must reproduce the measured crossover on the
// calibration host (E3's band rows in cmd/experiments): the flat open-addressing join wins
// while its table is LLC-resident (through ~256K build rows), the
// both-sides radix-clustered join wins once the table outgrows the LLC.
func TestShouldClusterCrossover(t *testing.T) {
	const cache = 512 << 10
	for _, n := range []int{1000, 32_000, 50_000, 128_000, 256_000} {
		if ShouldCluster(n, n, cache) {
			t.Errorf("n=%d: should stay flat (LLC-resident table)", n)
		}
	}
	for _, n := range []int{512_000, 1 << 20, 4 << 20} {
		if !ShouldCluster(n, n, cache) {
			t.Errorf("n=%d: should radix-cluster (table past LLC)", n)
		}
	}
	// Asymmetric joins: the table is built on the SMALL side; a tiny
	// build probed by a large side stays flat (the table is resident
	// no matter how many probes stream through it).
	if ShouldCluster(10_000, 4<<20, cache) {
		t.Error("small build + large probe should stay flat")
	}
}

// The predicted costs are positive, finite, and ordered sensibly.
func TestJoinCostSanity(t *testing.T) {
	f1, c1 := JoinCost(100_000, 100_000, 512<<10)
	f2, _ := JoinCost(1<<20, 1<<20, 512<<10)
	if f1 <= 0 || c1 <= 0 {
		t.Fatalf("non-positive costs: %g %g", f1, c1)
	}
	if f2 <= f1 {
		t.Fatalf("flat cost not increasing with size: %g then %g", f1, f2)
	}
}

// A LIMIT below the input size makes the sort a top-N selection the
// n·log n patterns do not describe: it always takes every worker it is
// offered, whatever SortCost says of a full sort over the same rows. A
// LIMIT the input cannot reach is a full sort and the model decides.
func TestShouldParallelSortTopN(t *testing.T) {
	for _, n := range []int{2, 4096, 1 << 16, 1 << 24} {
		for _, limit := range []int{0, 1, n - 1} {
			if ShouldParallelSort(n, limit, 1) {
				t.Errorf("n=%d limit=%d: one worker cannot run a parallel plan", n, limit)
			}
			if !ShouldParallelSort(n, limit, 4) {
				t.Errorf("n=%d limit=%d: a top-N run should take every worker", n, limit)
			}
		}
		serial, parallel := SortCost(n, 4)
		for _, limit := range []int{-1, n, n + 1} {
			if got := ShouldParallelSort(n, limit, 4); got != (parallel < serial) {
				t.Errorf("n=%d limit=%d: full sort must follow the cost model, got %v", n, limit, got)
			}
		}
	}
}
