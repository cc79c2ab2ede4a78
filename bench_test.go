package repro_test

// One benchmark per paper experiment of cmd/experiments (E1–E15). Each
// regenerates the core measurement of the corresponding E-table; run the
// cmd/experiments binary for the full formatted tables.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/batalg"
	"repro/internal/ccindex"
	"repro/internal/compress"
	"repro/internal/coopscan"
	"repro/internal/costmodel"
	"repro/internal/crack"
	"repro/internal/cyclotron"
	"repro/internal/datacell"
	"repro/internal/layout"
	"repro/internal/radix"
	"repro/internal/recycler"
	"repro/internal/simhw"
	"repro/internal/vector"
	"repro/internal/volcano"
	"repro/internal/workload"
)

// --- E1: positional lookup vs B-tree ---

func BenchmarkE1PositionalVsBTree(b *testing.B) {
	n := 1 << 20
	col := bat.FromInts(make([]int64, n))
	bt := ccindex.NewBTree(64)
	for i := 0; i < n; i++ {
		bt.Insert(int64(i), int64(i))
	}
	r := rand.New(rand.NewSource(1))
	probes := make([]int, 4096)
	for i := range probes {
		probes[i] = r.Intn(n)
	}
	b.Run("positional", func(b *testing.B) {
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += col.IntAt(probes[i&4095])
		}
		_ = sink
	})
	b.Run("btree", func(b *testing.B) {
		var sink int64
		for i := 0; i < b.N; i++ {
			v, _ := bt.Get(int64(probes[i&4095]))
			sink += v
		}
		_ = sink
	})
}

// --- E2: Volcano vs BAT algebra ---

func BenchmarkE2VolcanoVsBAT(b *testing.B) {
	n := 1 << 20
	vals := workload.UniformInts(n, 1000, 2)
	rows := make([]volcano.Row, n)
	for i, v := range vals {
		rows[i] = volcano.Row{v}
	}
	tab := &volcano.Table{Columns: []string{"v"}, Rows: rows}
	col := bat.FromInts(vals)
	b.Run("volcano", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			it := &volcano.HashAgg{
				Child: &volcano.SelectOp{
					Child: volcano.NewScan(tab),
					Pred:  volcano.BinOp{Op: volcano.OpLt, L: volcano.Col{Idx: 0}, R: volcano.Const{V: int64(500)}},
				},
				Aggs: []volcano.AggSpec{{Kind: volcano.AggSum, Arg: volcano.Col{Idx: 0}}},
			}
			if _, err := volcano.Drain(it); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cand := batalg.ThetaSelect(col, batalg.CmpLT, 500)
			batalg.Sum(batalg.LeftFetchJoin(cand, col))
		}
	})
}

// --- E3: radix cluster passes and joins ---

func BenchmarkE3ClusterPasses(b *testing.B) {
	n := 1 << 18
	tuples := make([]radix.Tuple, n)
	r := rand.New(rand.NewSource(3))
	for i := range tuples {
		tuples[i] = radix.Tuple{OID: bat.OID(i), Val: r.Int63()}
	}
	for _, passes := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("B=12/P=%d", passes), func(b *testing.B) {
			pb := radix.SplitBits(12, passes)
			for i := 0; i < b.N; i++ {
				radix.Cluster(tuples, pb)
			}
		})
	}
}

func BenchmarkE3RadixJoin(b *testing.B) {
	n := 1 << 20
	lv := workload.UniformInts(n, int64(n), 4)
	rv := workload.UniformInts(n, int64(n), 5)
	l := make([]radix.Tuple, n)
	r := make([]radix.Tuple, n)
	for i := 0; i < n; i++ {
		l[i] = radix.Tuple{OID: bat.OID(i), Val: lv[i]}
		r[i] = radix.Tuple{OID: bat.OID(i), Val: rv[i]}
	}
	b.Run("simple", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			radix.SimpleHashJoin(l, r)
		}
	})
	bits := radix.JoinBits(n, 512<<10)
	b.Run("partitioned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			radix.PartitionedHashJoin(l, r, radix.SplitBits(bits, 2))
		}
	})
}

// --- E4: projection strategies ---

func BenchmarkE4Projection(b *testing.B) {
	n := 1 << 20
	col := bat.FromInts(workload.UniformInts(n, 1<<40, 6))
	r := rand.New(rand.NewSource(7))
	pairs := make([]radix.OIDPair, n)
	for i := range pairs {
		pairs[i] = radix.OIDPair{L: bat.OID(i), R: bat.OID(r.Intn(n))}
	}
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			radix.NaiveFetch(pairs, col)
		}
	})
	b.Run("decluster", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			radix.Decluster(pairs, col, 1024)
		}
	})
}

// --- E5: cost model evaluation speed (the accuracy check lives in
// internal/costmodel's tests) ---

func BenchmarkE5Patterns(b *testing.B) {
	h := simhw.Default()
	pats := []costmodel.Pattern{
		costmodel.SeqTraverse{Bytes: 1 << 24, N: 1 << 21},
		costmodel.RandTraverse{Bytes: 1 << 24, N: 1 << 20},
		costmodel.Scatter{Regions: 1 << 12, Bytes: 1 << 24, N: 1 << 20},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pats {
			costmodel.Predict(h, p)
		}
	}
}

// --- E6: vector size sweep ---

func BenchmarkE6VectorSize(b *testing.B) {
	n := 1 << 20
	vals := workload.UniformInts(n, 1000, 8)
	src, err := vector.NewSource([]string{"v"}, []vector.Col{{Kind: vector.KindInt, Ints: vals}})
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{1, 128, 1024, n} {
		name := fmt.Sprintf("size=%d", size)
		if size == n {
			name = "size=full"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan := &vector.Agg{
					Child: &vector.Filter{
						Child: vector.NewScan(src, size),
						Preds: []vector.Pred{{ColIdx: 0, Op: vector.PredLt, IntVal: 500}},
					},
					Aggs: []vector.AggSpec{{Kind: vector.AggSumInt, Col: 0}},
				}
				if _, err := vector.Drain(plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- join build structures: GC'd Go map vs flat open-addressing table ---

// BenchmarkJoinTable isolates the build+probe cost the hash-join rides
// on: the old map[int64][]int32 (one slice header + backing array per
// distinct key, pointer chase per bucket) against radix.Table
// (three flat arrays, linear probing, no per-key allocations).
func BenchmarkJoinTable(b *testing.B) {
	n := 1 << 20
	keys := workload.UniformInts(n, int64(n), 21)
	probes := workload.UniformInts(n, int64(n), 22)
	b.Run("gomap/build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := make(map[int64][]int32)
			for r, k := range keys {
				m[k] = append(m[k], int32(r))
			}
		}
	})
	b.Run("openaddr/build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			radix.BuildTable(keys)
		}
	})
	m := make(map[int64][]int32)
	for r, k := range keys {
		m[k] = append(m[k], int32(r))
	}
	ht := radix.BuildTable(keys)
	b.Run("gomap/probe", func(b *testing.B) {
		var sink int64
		for i := 0; i < b.N; i++ {
			for _, k := range probes {
				for _, r := range m[k] {
					sink += int64(r)
				}
			}
		}
		_ = sink
	})
	b.Run("openaddr/probe", func(b *testing.B) {
		var sink int64
		for i := 0; i < b.N; i++ {
			for _, k := range probes {
				for r := ht.First(k); r >= 0; r = ht.Next(r) {
					sink += int64(r)
				}
			}
		}
		_ = sink
	})
}

// --- E7: compression ---

func BenchmarkE7Compression(b *testing.B) {
	n := 1 << 18
	uniform := workload.UniformInts(n, 256, 9)
	sorted := workload.SortedInts(n, 3, 10)
	dst := make([]int64, n)
	pfor := compress.CompressPFOR(uniform)
	pford := compress.CompressPFORDelta(sorted)
	pdict := compress.CompressPDICT(workload.ZipfInts(n, 64, 1.5, 11))
	b.Run("pfor", func(b *testing.B) {
		b.SetBytes(int64(n * 8))
		for i := 0; i < b.N; i++ {
			pfor.Decompress(dst)
		}
	})
	b.Run("pfordelta", func(b *testing.B) {
		b.SetBytes(int64(n * 8))
		for i := 0; i < b.N; i++ {
			pford.Decompress(dst)
		}
	})
	b.Run("pdict", func(b *testing.B) {
		b.SetBytes(int64(n * 8))
		for i := 0; i < b.N; i++ {
			pdict.Decompress(dst)
		}
	})
}

// --- E8: cooperative scans ---

func BenchmarkE8CoopScan(b *testing.B) {
	d := coopscan.Disk{NPages: 800, FetchNS: 10000, PageCPUNS: 200}
	b.Run("lru", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			coopscan.RunLRU(d, 8, 200, 123)
		}
	})
	b.Run("cooperative", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			coopscan.RunCooperative(d, 8, 200, 123)
		}
	})
}

// --- E9: cracking ---

func BenchmarkE9Cracking(b *testing.B) {
	n := 1 << 20
	col := bat.FromInts(workload.UniformInts(n, 1<<20, 12))
	queries := workload.CrackQueries(500, 1<<20, 0.001, 0, 13)
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range queries[:20] {
				crack.ScanBaseline(col, q.Lo, q.Hi)
			}
		}
	})
	b.Run("fullsort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			si := crack.NewSorted(col)
			for _, q := range queries {
				si.RangeOIDs(q.Lo, q.Hi)
			}
		}
	})
	b.Run("cracking", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix := crack.New(col)
			for _, q := range queries {
				ix.RangeOIDs(q.Lo, q.Hi)
			}
		}
	})
	b.Run("cracking3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix := crack.New(col)
			ix.CrackInThree = true
			for _, q := range queries {
				ix.RangeOIDs(q.Lo, q.Hi)
			}
		}
	})
}

// --- E10: recycler ---

func BenchmarkE10Recycler(b *testing.B) {
	n := 1 << 18
	col := bat.FromInts(workload.UniformInts(n, 1<<20, 14))
	log := workload.SkyserverLog(200, 1, 1<<20, 0.6, 15)
	run := func(rc *recycler.Cache) {
		for _, q := range log {
			key := recycler.Key(fmt.Sprintf("r(%d,%d)", q.Lo, q.Hi))
			if rc != nil {
				if _, ok := rc.Lookup(key); ok {
					continue
				}
			}
			cand := batalg.RangeSelect(col, q.Lo, q.Hi, true, false)
			if rc != nil {
				rc.Add(key, cand, 1e6, []string{"c"})
			}
		}
	}
	b.Run("norecycle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(nil)
		}
	})
	b.Run("recycle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(recycler.New(64<<20, recycler.PolicyBenefit))
		}
	})
}

// --- E11: index structures ---

func BenchmarkE11Trees(b *testing.B) {
	n := 1 << 20
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i) * 2
	}
	bt := ccindex.NewBTree(16)
	for i, k := range keys {
		bt.Insert(k, int64(i))
	}
	css := ccindex.BuildCSS(keys, 8)
	csb := ccindex.BuildCSB(keys, 8)
	r := rand.New(rand.NewSource(16))
	probes := make([]int64, 4096)
	for i := range probes {
		probes[i] = int64(r.Intn(n)) * 2
	}
	b.Run("binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ccindex.BinarySearch(keys, probes[i&4095])
		}
	})
	b.Run("btree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bt.Get(probes[i&4095])
		}
	})
	b.Run("css", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			css.Search(probes[i&4095])
		}
	})
	b.Run("csb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			csb.Search(probes[i&4095])
		}
	})
}

// --- E12: layouts ---

func BenchmarkE12Layouts(b *testing.B) {
	rows, cols := 1<<20, 8
	fill := func(r, c int) int64 { return int64(r + c) }
	rels := map[string]layout.Relation{
		"nsm": layout.NewNSM(rows, cols, fill),
		"dsm": layout.NewDSM(rows, cols, fill),
		"pax": layout.NewPAX(rows, cols, 512, fill),
	}
	r := rand.New(rand.NewSource(17))
	idx := make([]int, 1<<14)
	for i := range idx {
		idx[i] = r.Intn(rows)
	}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for name, rel := range rels {
		b.Run("scan1col/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rel.ScanSum([]int{3})
			}
		})
		b.Run("gather8col/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rel.GatherSum(idx, all)
			}
		})
	}
}

// --- E13: DataCell ---

func BenchmarkE13DataCell(b *testing.B) {
	nEvents := 1 << 17
	queries := make([]datacell.Query, 32)
	for i := range queries {
		queries[i] = datacell.Query{ID: i, Lo: int64(i * 3), Hi: int64(i*3 + 30), Window: nEvents}
	}
	r := rand.New(rand.NewSource(18))
	events := make([]datacell.Event, nEvents)
	for i := range events {
		events[i] = datacell.Event{TS: int64(i), Key: r.Int63n(100), Val: r.Int63n(1000)}
	}
	b.Run("perevent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := datacell.NewPerEventEngine(queries)
			for _, ev := range events {
				e.Push(ev)
			}
			e.Flush()
		}
	})
	b.Run("basket4096", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, err := datacell.NewEngine(4096, queries)
			if err != nil {
				b.Fatal(err)
			}
			for _, ev := range events {
				e.Push(ev)
			}
			e.Flush()
		}
	})
}

// --- E15: morsel-parallel pipeline scaling ---

// BenchmarkE15ParallelScaling measures the morsel-driven Exchange: TPC-H
// Q6 and a shared-build join probe at 1/2/4/8 workers. rows/sec is the
// headline metric; on a single-core host the >1 worker runs only pay
// the exchange overhead.
func BenchmarkE15ParallelScaling(b *testing.B) {
	n := 1 << 20
	li := workload.GenLineItem(n, 20)
	q6src, err := vector.NewSource([]string{"q", "p", "d"}, []vector.Col{
		{Kind: vector.KindInt, Ints: li.Quantity},
		{Kind: vector.KindFloat, Floats: li.Price},
		{Kind: vector.KindFloat, Floats: li.Discount}})
	if err != nil {
		b.Fatal(err)
	}

	nb := 1 << 18
	build, err := vector.NewSource([]string{"k"},
		[]vector.Col{{Kind: vector.KindInt, Ints: workload.UniformInts(nb, int64(nb), 23)}})
	if err != nil {
		b.Fatal(err)
	}
	probe, err := vector.NewSource([]string{"k"},
		[]vector.Col{{Kind: vector.KindInt, Ints: workload.UniformInts(n, int64(nb), 24)}})
	if err != nil {
		b.Fatal(err)
	}
	jb, err := vector.BuildJoinTable(vector.NewScan(build, 0), 0, nil, false)
	if err != nil {
		b.Fatal(err)
	}

	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("q6/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := vector.ParallelQ6(q6src, w, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
		})
		b.Run(fmt.Sprintf("join/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := vector.ParallelJoinCount(jb, probe, 0, w, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
		})
	}
}

// --- E14: DataCyclotron ---

func BenchmarkE14Cyclotron(b *testing.B) {
	cfg := cyclotron.Config{Nodes: 16, Partitions: 64,
		HopNS: 500, MsgNS: 5000, TransferNS: 4000, ProcessNS: 1000}
	b.Run("ring", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cyclotron.RunCyclotron(cfg, 10000, 1)
		}
	})
	b.Run("reqresp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cyclotron.RunRequestResponse(cfg, 10000, 1)
		}
	})
}
