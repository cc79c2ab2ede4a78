package radix

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bat"
)

// ParallelClusterCtx must be bit-for-bit identical to the serial Cluster
// (stability included) for any worker count and pass split.
func TestParallelClusterMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 100, 1 << 16, 1<<16 + 371} {
		tuples := make([]Tuple, n)
		for i := range tuples {
			v := rng.Int63n(512)
			if rng.Intn(20) == 0 {
				v = bat.NilInt
			}
			tuples[i] = Tuple{OID: bat.OID(i), Val: v}
		}
		for _, passes := range [][]int{{0}, {3}, {6}, {4, 3}, {3, 2, 2}} {
			want := Cluster(append([]Tuple(nil), tuples...), passes)
			for _, workers := range []int{1, 2, 3, 8} {
				got, err := ParallelClusterCtx(nil, append([]Tuple(nil), tuples...), passes, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Bounds, want.Bounds) {
					t.Fatalf("n=%d passes=%v workers=%d: bounds diverge", n, passes, workers)
				}
				if !reflect.DeepEqual(got.Tuples, want.Tuples) {
					t.Fatalf("n=%d passes=%v workers=%d: tuple order diverges", n, passes, workers)
				}
				if got.Bits != want.Bits {
					t.Fatalf("bits %d != %d", got.Bits, want.Bits)
				}
			}
		}
	}
}

// The grouped-aggregation planner must keep the merge plan for small
// cardinalities (cache-resident tables, trivial merge) and switch to the
// partitioned plan once the grouping table outgrows the LLC.
func TestShouldPartitionGroupCrossover(t *testing.T) {
	const n = 1 << 20
	if ShouldPartitionGroup(n, 100, 4) {
		t.Fatal("100 groups: merge plan expected (table is L1-resident)")
	}
	if ShouldPartitionGroup(n, 1<<14, 4) {
		t.Fatal("16K groups: merge plan expected (table fits the LLC)")
	}
	if !ShouldPartitionGroup(n, 1<<20, 4) {
		t.Fatal("1M groups: partitioned plan expected (table exceeds the LLC)")
	}
}
