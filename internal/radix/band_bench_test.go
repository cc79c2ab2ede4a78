package radix_test

// The 32K..1M "flat-join band" sweep behind the cost-model join
// planner (plan.go): flat batalg.Join vs both-sides radix-clustered
// JoinBATs, A/B at each size. ShouldCluster is calibrated so the MAL
// join picks whichever side of this sweep wins.

import (
	"fmt"
	"testing"

	"repro/internal/bat"
	"repro/internal/batalg"
	"repro/internal/radix"
)

func uniform(n int, max int64, seed uint64) []int64 {
	out := make([]int64, n)
	s := seed
	for i := range out {
		s = s*6364136223846793005 + 1442695040888963407
		out[i] = int64(s>>33) % max
	}
	return out
}

func BenchmarkBandJoin(b *testing.B) {
	for _, n := range []int{32_000, 64_000, 128_000, 256_000, 512_000, 1 << 20} {
		l := bat.FromInts(uniform(n, int64(n), 31))
		r := bat.FromInts(uniform(n, int64(n), 32))
		b.Run(fmt.Sprintf("flat/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				batalg.Join(l, r)
			}
		})
		b.Run(fmt.Sprintf("radix/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				radix.JoinBATs(l, r, 512<<10)
			}
		})
		b.Run(fmt.Sprintf("model_choice/n=%d", n), func(b *testing.B) {
			cluster := radix.ShouldCluster(n, n, 512<<10)
			b.ReportMetric(boolMetric(cluster), "clustered")
			for i := 0; i < b.N; i++ {
				if cluster {
					radix.JoinBATs(l, r, 512<<10)
				} else {
					batalg.Join(l, r)
				}
			}
		})
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
