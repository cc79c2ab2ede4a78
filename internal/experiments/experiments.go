// Package experiments contains the harness that regenerates every paper
// experiment (E1–E15): for each quantitative claim of the paper it runs
// workload generator, system under test, and baseline, and returns the
// table the paper's narrative corresponds to. The cmd/experiments binary
// prints these tables (-list names them).
package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

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

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// String renders the table as aligned text.
func (t Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for i, h := range t.Header {
		fmt.Fprintf(&sb, "%-*s  ", widths[i], h)
	}
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		for i, c := range r {
			fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	if t.Notes != "" {
		fmt.Fprintf(&sb, "-- %s\n", t.Notes)
	}
	return sb.String()
}

// minRun executes f reps times and returns the fastest wall time.
func minRun(reps int, f func()) time.Duration {
	best := time.Duration(1 << 62)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

func ns(d time.Duration, per int) string {
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/float64(per))
}

// E1 measures positional (void-head) lookup vs B+-tree lookup (§3):
// wall-clock on the host CPU and simulated memory cost.
func E1() Table {
	t := Table{ID: "E1", Title: "positional O(1) lookup vs B-tree in slotted pages",
		Header: []string{"n", "positional ns/op", "btree ns/op", "speedup", "sim pos ns", "sim btree ns"}}
	for _, n := range []int{1 << 20, 1 << 22} {
		col := bat.FromInts(make([]int64, n))
		ints := col.Ints()
		for i := range ints {
			ints[i] = int64(i) * 3
		}
		bt := ccindex.NewBTree(64)
		for i := 0; i < n; i++ {
			bt.Insert(int64(i)*3, int64(i))
		}
		r := rand.New(rand.NewSource(1))
		probes := make([]int, 1<<14)
		for i := range probes {
			probes[i] = r.Intn(n)
		}
		var sink int64
		start := time.Now()
		reps := 50
		for rep := 0; rep < reps; rep++ {
			for _, p := range probes {
				sink += col.IntAt(p)
			}
		}
		posT := time.Since(start)
		start = time.Now()
		for rep := 0; rep < reps; rep++ {
			for _, p := range probes {
				v, _ := bt.Get(int64(p) * 3)
				sink += v
			}
		}
		btT := time.Since(start)
		_ = sink
		h := simhw.Default()
		lookups := 1 << 14
		simPos := ccindex.TracePositional(simhw.NewSim(h), n, lookups)
		simBT := ccindex.TraceBTree(simhw.NewSim(h), n, 64, lookups)
		ops := reps * len(probes)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), ns(posT, ops), ns(btT, ops),
			fmt.Sprintf("%.1fx", float64(btT)/float64(posT)),
			fmt.Sprintf("%.0f", simPos.TimeNS/float64(lookups)),
			fmt.Sprintf("%.0f", simBT.TimeNS/float64(lookups)),
		})
	}
	t.Notes = "paper claim: array read beats B-tree descent per lookup"
	return t
}

// E2 measures tuple-at-a-time Volcano vs bulk BAT algebra on
// SELECT sum(v) WHERE lo <= v < hi.
func E2() Table {
	t := Table{ID: "E2", Title: "tuple-at-a-time (Volcano) vs column-at-a-time (BAT algebra)",
		Header: []string{"rows", "volcano ns/row", "BAT ns/row", "speedup"}}
	for _, n := range []int{1 << 18, 1 << 20} {
		vals := workload.UniformInts(n, 1000, 2)
		rows := make([]volcano.Row, n)
		for i, v := range vals {
			rows[i] = volcano.Row{v}
		}
		tab := &volcano.Table{Columns: []string{"v"}, Rows: rows}
		var vres []volcano.Row
		var err error
		volT := minRun(3, func() {
			it := &volcano.HashAgg{
				Child: &volcano.SelectOp{
					Child: volcano.NewScan(tab),
					Pred: volcano.BinOp{Op: volcano.OpAnd,
						L: volcano.BinOp{Op: volcano.OpGe, L: volcano.Col{Idx: 0}, R: volcano.Const{V: int64(100)}},
						R: volcano.BinOp{Op: volcano.OpLt, L: volcano.Col{Idx: 0}, R: volcano.Const{V: int64(900)}},
					},
				},
				Aggs: []volcano.AggSpec{{Kind: volcano.AggSum, Arg: volcano.Col{Idx: 0}}},
			}
			vres, err = volcano.Drain(it)
		})
		if err != nil {
			panic(err)
		}
		b := bat.FromInts(vals)
		var sum int64
		batT := minRun(3, func() {
			cand := batalg.RangeSelect(b, 100, 900, true, false)
			sum = batalg.Sum(batalg.LeftFetchJoin(cand, b))
		})
		if vres[0][0].(int64) != sum {
			panic("engines disagree")
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), ns(volT, n), ns(batT, n),
			fmt.Sprintf("%.0fx", float64(volT)/float64(batT)),
		})
	}
	t.Notes = "paper: interpretation overhead dominates tuple-at-a-time execution"
	return t
}

// E3 sweeps radix bits and passes: simulated misses for the clustering
// phase, plus wall-clock simple vs partitioned hash join (Figure 2).
func E3() Table {
	t := Table{ID: "E3", Title: "radix-cluster / partitioned hash-join (Figure 2)",
		Header: []string{"config", "L1 miss/tuple", "L2 miss/tuple", "TLB miss/tuple", "sim ns/tuple"}}
	h := simhw.Default()
	n := 1 << 18
	for _, cfg := range []struct {
		name string
		bits int
		pass int
	}{
		{"cluster B=6 P=1", 6, 1},
		{"cluster B=12 P=1 (thrash)", 12, 1},
		{"cluster B=12 P=2", 12, 2},
		{"cluster B=18 P=1 (thrash)", 18, 1},
		{"cluster B=18 P=2", 18, 2},
		{"cluster B=18 P=3", 18, 3},
	} {
		st := radix.TraceCluster(simhw.NewSim(h), n, radix.SplitBits(cfg.bits, cfg.pass))
		t.Rows = append(t.Rows, []string{cfg.name,
			fmt.Sprintf("%.2f", float64(st.Levels[0].Misses())/float64(n)),
			fmt.Sprintf("%.2f", float64(st.Levels[1].Misses())/float64(n)),
			fmt.Sprintf("%.2f", float64(st.TLBMisses)/float64(n)),
			fmt.Sprintf("%.0f", st.TimeNS/float64(n)),
		})
	}
	// Join comparison: wall clock at a size exceeding the host LLC.
	nj := 1 << 22
	lv := workload.UniformInts(nj, int64(nj), 3)
	rv := workload.UniformInts(nj, int64(nj), 4)
	l, r := mkTuples(lv), mkTuples(rv)
	start := time.Now()
	radix.SimpleHashJoin(l, r)
	simpleT := time.Since(start)
	bits := radix.JoinBits(nj, 512<<10)
	start = time.Now()
	radix.PartitionedHashJoin(l, r, radix.SplitBits(bits, 2))
	partT := time.Since(start)
	simBits := radix.JoinBits(n, 512<<10)
	simS := radix.TraceSimpleHashJoin(simhw.NewSim(h), n)
	simP := radix.TracePartitionedHashJoin(simhw.NewSim(h), n, radix.SplitBits(simBits, 2))
	t.Rows = append(t.Rows, []string{
		fmt.Sprintf("join simple (wall %.0f ns/t @4M)", float64(simpleT.Nanoseconds())/float64(nj)),
		"-", "-",
		fmt.Sprintf("%.2f", float64(simS.TLBMisses)/float64(n)),
		fmt.Sprintf("%.0f", simS.TimeNS/float64(n))})
	t.Rows = append(t.Rows, []string{
		fmt.Sprintf("join partitioned B=%d P=2 (wall %.0f ns/t @4M)", bits, float64(partT.Nanoseconds())/float64(nj)),
		"-", "-",
		fmt.Sprintf("%.2f", float64(simP.TLBMisses)/float64(n)),
		fmt.Sprintf("%.0f", simP.TimeNS/float64(n))})
	t.Notes = "paper claim: multi-pass clustering avoids TLB/cache thrash; partitioned join ~order of magnitude over simple"
	return t
}

func mkTuples(vals []int64) []radix.Tuple {
	out := make([]radix.Tuple, len(vals))
	for i, v := range vals {
		out[i] = radix.Tuple{OID: bat.OID(i), Val: v}
	}
	return out
}

// E4 compares projection strategies: naive post-projection fetch vs
// radix-decluster, on the simulated paper-era hierarchy plus host wall
// clock as a secondary signal.
func E4() Table {
	t := Table{ID: "E4", Title: "radix-decluster projection vs naive post-projection",
		Header: []string{"strategy", "sim L2 miss/val", "sim TLB miss/val", "sim ns/val", "wall ns/val"}}
	h := simhw.Default()
	n := 1 << 18  // simulated size (512KB-L2-era hierarchy)
	nw := 1 << 22 // wall-clock size
	colv := workload.UniformInts(nw, 1<<40, 5)
	col := bat.FromInts(colv)
	r := rand.New(rand.NewSource(6))
	pairs := make([]radix.OIDPair, nw)
	for i := range pairs {
		pairs[i] = radix.OIDPair{L: bat.OID(i), R: bat.OID(r.Intn(nw))}
	}
	naiveT := minRun(3, func() { radix.NaiveFetch(pairs, col) })
	decT := minRun(3, func() { radix.Decluster(pairs, col, 1024) })
	simN := radix.TraceNaiveFetch(simhw.NewSim(h), n)
	simD := radix.TraceDecluster(simhw.NewSim(h), n, 32)
	mk := func(name string, st simhw.Stats, wall time.Duration) []string {
		return []string{name,
			fmt.Sprintf("%.2f", float64(st.Levels[1].Misses())/float64(n)),
			fmt.Sprintf("%.2f", float64(st.TLBMisses)/float64(n)),
			fmt.Sprintf("%.0f", st.TimeNS/float64(n)),
			ns(wall, nw)}
	}
	t.Rows = append(t.Rows, mk("naive post-projection", simN, naiveT))
	t.Rows = append(t.Rows, mk("radix-decluster", simD, decT))
	t.Notes = "paper: decluster wins once the column exceeds the cache; the host's 260MB LLC absorbs the wall-clock working set, so the paper-era shape appears in the simulated columns"
	return t
}

// E5 validates the cost model against the simulated hierarchy.
func E5() Table {
	t := Table{ID: "E5", Title: "unified memory cost model: predicted vs simulated",
		Header: []string{"pattern", "model ns", "sim ns", "err %"}}
	h := simhw.Small()
	cases := []struct {
		name string
		pat  costmodel.Pattern
		run  func(*simhw.Sim)
	}{
		{"seq 64KB", costmodel.SeqTraverse{Bytes: 64 << 10, N: 8192}, func(s *simhw.Sim) {
			base := s.Alloc(64 << 10)
			for i := 0; i < 64<<10; i += 8 {
				s.Read(base+uint64(i), 8)
			}
		}},
		{"rand 4KB x10k", costmodel.RandTraverse{Bytes: 4 << 10, N: 10000}, func(s *simhw.Sim) {
			base := s.Alloc(4 << 10)
			r := rand.New(rand.NewSource(7))
			for i := 0; i < 10000; i++ {
				s.Read(base+uint64(r.Intn(512)*8), 8)
			}
		}},
		{"rand 256KB x20k", costmodel.RandTraverse{Bytes: 256 << 10, N: 20000}, func(s *simhw.Sim) {
			base := s.Alloc(256 << 10)
			r := rand.New(rand.NewSource(8))
			for i := 0; i < 20000; i++ {
				s.Read(base+uint64(r.Intn(32768)*8), 8)
			}
		}},
		{"scatter H=128", costmodel.Scatter{Regions: 128, Bytes: 1 << 17, N: 8192}, func(s *simhw.Sim) {
			base := s.Alloc(1 << 17)
			per := (1 << 17) / 128
			cur := make([]int, 128)
			r := rand.New(rand.NewSource(9))
			for i := 0; i < 8192; i++ {
				c := r.Intn(128)
				s.Write(base+uint64(c*per+cur[c]%per), 16)
				cur[c] += 16
			}
		}},
	}
	for _, c := range cases {
		sim := simhw.NewSim(h)
		c.run(sim)
		simNS := sim.Stats().TimeNS
		pred := costmodel.Predict(h, c.pat)
		errPct := 100 * (pred.TimeNS - simNS) / simNS
		t.Rows = append(t.Rows, []string{c.name,
			fmt.Sprintf("%.0f", pred.TimeNS), fmt.Sprintf("%.0f", simNS),
			fmt.Sprintf("%+.0f%%", errPct)})
	}
	t.Notes = "TMem = sum over levels of Ms*ls + Mr*lr (paper §4.4)"
	return t
}

// E6 sweeps the X100 vector size on a filtered aggregation.
func E6() Table {
	t := Table{ID: "E6", Title: "X100 vector size sweep (tuple-at-a-time .. full column)",
		Header: []string{"vector size", "ns/tuple", "vs size=1"}}
	n := 1 << 20
	vals := workload.UniformInts(n, 1000, 10)
	src, err := vector.NewSource([]string{"v"}, []vector.Col{{Kind: vector.KindInt, Ints: vals}})
	if err != nil {
		panic(err)
	}
	var base float64
	for _, size := range []int{1, 4, 16, 64, 256, 1024, 4096, 65536, n} {
		start := time.Now()
		plan := &vector.Agg{
			Child: &vector.Filter{
				Child: vector.NewScan(src, size),
				Preds: []vector.Pred{{ColIdx: 0, Op: vector.PredLt, IntVal: 500}},
			},
			Aggs: []vector.AggSpec{{Kind: vector.AggSumInt, Col: 0}},
		}
		if _, err := vector.Drain(plan); err != nil {
			panic(err)
		}
		perTuple := float64(time.Since(start).Nanoseconds()) / float64(n)
		if size == 1 {
			base = perTuple
		}
		label := fmt.Sprintf("%d", size)
		if size == n {
			label = "full column"
		}
		t.Rows = append(t.Rows, []string{label,
			fmt.Sprintf("%.1f", perTuple),
			fmt.Sprintf("%.1fx", base/perTuple)})
	}
	t.Notes = "paper: size 1 ~ RDBMS-slow; 100-1000 up to two orders faster"
	return t
}

// E7 measures compression ratios and decompression speed.
func E7() Table {
	t := Table{ID: "E7", Title: "vectorized light-weight compression (PFOR / PFOR-DELTA / PDICT)",
		Header: []string{"scheme+data", "ratio", "decompress ns/tuple"}}
	n := 1 << 20
	datasets := []struct {
		name string
		vals []int64
	}{
		{"uniform small domain", workload.UniformInts(n, 256, 11)},
		{"clustered w/ outliers", workload.ClusteredInts(n, 1, 256, 12)},
		{"sorted", workload.SortedInts(n, 3, 13)},
		{"zipf", workload.ZipfInts(n, 1<<20, 1.3, 14)},
	}
	dst := make([]int64, n)
	for _, d := range datasets {
		p := compress.CompressPFOR(d.vals)
		start := time.Now()
		for rep := 0; rep < 8; rep++ {
			p.Decompress(dst)
		}
		dt := float64(time.Since(start).Nanoseconds()) / float64(8*n)
		t.Rows = append(t.Rows, []string{"PFOR " + d.name,
			fmt.Sprintf("%.1fx", p.Ratio()), fmt.Sprintf("%.2f", dt)})
	}
	pd := compress.CompressPFORDelta(datasets[2].vals)
	start := time.Now()
	for rep := 0; rep < 8; rep++ {
		pd.Decompress(dst)
	}
	dt := float64(time.Since(start).Nanoseconds()) / float64(8*n)
	t.Rows = append(t.Rows, []string{"PFOR-DELTA sorted",
		fmt.Sprintf("%.1fx", pd.Ratio()), fmt.Sprintf("%.2f", dt)})
	// Ablation: unpatched FOR vs PFOR on outlier-ridden data.
	outliers := workload.UniformInts(n, 64, 16)
	r := rand.New(rand.NewSource(17))
	for i := 0; i < n/100; i++ {
		outliers[r.Intn(n)] = r.Int63n(1 << 50)
	}
	forC := compress.CompressFOR(outliers)
	pforC := compress.CompressPFOR(outliers)
	t.Rows = append(t.Rows, []string{"FOR 1% outliers (ablation: no patching)",
		fmt.Sprintf("%.1fx", forC.Ratio()), "-"})
	t.Rows = append(t.Rows, []string{"PFOR 1% outliers (patched)",
		fmt.Sprintf("%.1fx", pforC.Ratio()), "-"})
	dict := compress.CompressPDICT(workload.ZipfInts(n, 64, 1.5, 15))
	start = time.Now()
	for rep := 0; rep < 8; rep++ {
		dict.Decompress(dst)
	}
	dt = float64(time.Since(start).Nanoseconds()) / float64(8*n)
	t.Rows = append(t.Rows, []string{"PDICT zipf-64",
		fmt.Sprintf("%.1fx", dict.Ratio()), fmt.Sprintf("%.2f", dt)})
	t.Notes = "paper claim: decompression < 5 CPU cycles (~1-2ns) per tuple in C; Go pays interpretation of getBits"
	return t
}

// E8 runs the cooperative-scan simulation.
func E8() Table {
	t := Table{ID: "E8", Title: "cooperative scans vs LRU buffer pool (simulated I/O)",
		Header: []string{"queries", "LRU fetches", "coop fetches", "LRU ms", "coop ms", "speedup"}}
	d := coopscan.Disk{NPages: 800, FetchNS: 10000, PageCPUNS: 200}
	for _, q := range []int{2, 4, 8, 16} {
		lru := coopscan.RunLRU(d, q, 200, 123)
		coop := coopscan.RunCooperative(d, q, 200, 123)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", q),
			fmt.Sprintf("%d", lru.Fetches), fmt.Sprintf("%d", coop.Fetches),
			fmt.Sprintf("%.2f", lru.TotalNS/1e6), fmt.Sprintf("%.2f", coop.TotalNS/1e6),
			fmt.Sprintf("%.1fx", lru.TotalNS/coop.TotalNS)})
	}
	t.Notes = "paper: cooperating queries create synergy rather than competition for I/O"
	return t
}

// E9 runs the cracking query sequence against scan and full-sort baselines.
func E9() Table {
	t := Table{ID: "E9", Title: "database cracking vs scan vs upfront full sort",
		Header: []string{"strategy", "q1 ms", "q10 cum ms", "q1000 cum ms", "total ms"}}
	n := 1 << 20
	vals := workload.UniformInts(n, 1<<20, 20)
	col := bat.FromInts(vals)
	queries := workload.CrackQueries(1000, 1<<20, 0.001, 0, 21)

	run := func(answer func(lo, hi int64) int) []string {
		marks := map[int]float64{}
		start := time.Now()
		for i, q := range queries {
			answer(q.Lo, q.Hi)
			switch i {
			case 0:
				marks[1] = float64(time.Since(start).Nanoseconds()) / 1e6
			case 9:
				marks[10] = float64(time.Since(start).Nanoseconds()) / 1e6
			case 999:
				marks[1000] = float64(time.Since(start).Nanoseconds()) / 1e6
			}
		}
		total := float64(time.Since(start).Nanoseconds()) / 1e6
		return []string{
			fmt.Sprintf("%.2f", marks[1]), fmt.Sprintf("%.2f", marks[10]),
			fmt.Sprintf("%.2f", marks[1000]), fmt.Sprintf("%.2f", total)}
	}

	row := run(func(lo, hi int64) int { return len(crack.ScanBaseline(col, lo, hi)) })
	t.Rows = append(t.Rows, append([]string{"full scan"}, row...))

	start := time.Now()
	si := crack.NewSorted(col)
	sortMS := float64(time.Since(start).Nanoseconds()) / 1e6
	row = run(func(lo, hi int64) int { return len(si.RangeOIDs(lo, hi)) })
	// Fold the upfront sort into q1/cumulative marks.
	for i := 0; i < 4; i++ {
		var v float64
		fmt.Sscanf(row[i], "%f", &v)
		row[i] = fmt.Sprintf("%.2f", v+sortMS)
	}
	t.Rows = append(t.Rows, append([]string{"full sort upfront"}, row...))

	ix := crack.New(col)
	row = run(func(lo, hi int64) int { return len(ix.RangeOIDs(lo, hi)) })
	t.Rows = append(t.Rows, append([]string{"cracking"}, row...))

	ix3 := crack.New(col)
	ix3.CrackInThree = true
	row = run(func(lo, hi int64) int { return len(ix3.RangeOIDs(lo, hi)) })
	t.Rows = append(t.Rows, append([]string{"cracking (crack-in-three)"}, row...))

	t.Notes = "paper: cracking competitive with upfront sorting, without knobs"
	return t
}

// E10 replays a Skyserver-shaped log with and without the recycler.
func E10() Table {
	t := Table{ID: "E10", Title: "recycling intermediates on a Skyserver-shaped query log",
		Header: []string{"policy", "queries", "hit rate", "time ms", "vs no recycler"}}
	n := 1 << 19
	nq := 400
	cols := make([]*bat.BAT, 3)
	for i := range cols {
		cols[i] = bat.FromInts(workload.UniformInts(n, 1<<20, int64(30+i)))
	}
	log := workload.SkyserverLog(nq, 3, 1<<20, 0.6, 33)

	runLog := func(rc *recycler.Cache) time.Duration {
		start := time.Now()
		for _, q := range log {
			key := recycler.Key(fmt.Sprintf("range(c%d,%d,%d)", q.Col, q.Lo, q.Hi))
			if rc != nil {
				if _, ok := rc.Lookup(key); ok {
					continue
				}
			}
			qs := time.Now()
			cand := batalg.RangeSelect(cols[q.Col], q.Lo, q.Hi, true, false)
			batalg.Sum(batalg.LeftFetchJoin(cand, cols[q.Col]))
			if rc != nil {
				rc.Add(key, cand, float64(time.Since(qs).Nanoseconds()),
					[]string{fmt.Sprintf("c%d", q.Col)})
			}
		}
		return time.Since(start)
	}

	noT := runLog(nil)
	t.Rows = append(t.Rows, []string{"no recycler", fmt.Sprintf("%d", nq), "-",
		fmt.Sprintf("%.1f", float64(noT.Nanoseconds())/1e6), "1.0x"})
	for _, pol := range []struct {
		name string
		p    recycler.Policy
	}{{"LRU", recycler.PolicyLRU}, {"benefit-weighted", recycler.PolicyBenefit}} {
		rc := recycler.New(64<<20, pol.p)
		d := runLog(rc)
		st := rc.Stats()
		t.Rows = append(t.Rows, []string{"recycler " + pol.name, fmt.Sprintf("%d", nq),
			fmt.Sprintf("%.0f%%", 100*float64(st.Hits)/float64(st.Lookups)),
			fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1e6),
			fmt.Sprintf("%.1fx", float64(noT)/float64(d))})
	}
	t.Notes = "paper: cache of materialized intermediates avoids double work (Skyserver log)"
	return t
}

// E11 compares lookup structures on simulated misses and wall clock.
func E11() Table {
	t := Table{ID: "E11", Title: "cache-conscious trees: binary search vs B+-tree vs CSS",
		Header: []string{"structure", "sim L2 miss/lookup", "sim ns/lookup", "wall ns/lookup"}}
	h := simhw.Default()
	n, lookups := 1<<20, 1<<14
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
	r := rand.New(rand.NewSource(40))
	probes := make([]int64, lookups)
	for i := range probes {
		probes[i] = int64(r.Intn(n)) * 2
	}
	wall := func(f func(int64)) float64 {
		start := time.Now()
		for rep := 0; rep < 8; rep++ {
			for _, p := range probes {
				f(p)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(8*lookups)
	}
	bsW := wall(func(k int64) { ccindex.BinarySearch(keys, k) })
	btW := wall(func(k int64) { bt.Get(k) })
	cssW := wall(func(k int64) { css.Search(k) })
	csbW := wall(func(k int64) { csb.Search(k) })
	simBS := ccindex.TraceBinarySearch(simhw.NewSim(h), n, lookups)
	simBT := ccindex.TraceBTree(simhw.NewSim(h), n, 16, lookups)
	simCSS := ccindex.TraceCSS(simhw.NewSim(h), n, 8, lookups)
	mk := func(name string, st simhw.Stats, w float64) []string {
		return []string{name,
			fmt.Sprintf("%.2f", float64(st.Levels[1].Misses())/float64(lookups)),
			fmt.Sprintf("%.0f", st.TimeNS/float64(lookups)),
			fmt.Sprintf("%.0f", w)}
	}
	t.Rows = append(t.Rows, mk("binary search", simBS, bsW))
	t.Rows = append(t.Rows, mk("B+-tree (fanout 16)", simBT, btW))
	t.Rows = append(t.Rows, mk("CSS-tree (line-sized nodes)", simCSS, cssW))
	t.Rows = append(t.Rows, []string{"CSB+-tree", "-", "-", fmt.Sprintf("%.0f", csbW)})
	t.Notes = "paper §7: pointer elimination + line-sized nodes cut misses per lookup"
	return t
}

// E12 compares NSM/DSM/PAX on scan and gather shapes.
func E12() Table {
	t := Table{ID: "E12", Title: "NSM vs DSM vs PAX: scan vs random row access",
		Header: []string{"layout+shape", "sim L2 misses", "sim ns/row", "wall ns/row"}}
	h := simhw.Default()
	rows, cols := 1<<18, 8
	rels := map[layout.Layout]layout.Relation{
		layout.LNSM: layout.NewNSM(rows, cols, func(r, c int) int64 { return int64(r + c) }),
		layout.LDSM: layout.NewDSM(rows, cols, func(r, c int) int64 { return int64(r + c) }),
		layout.LPAX: layout.NewPAX(rows, cols, 512, func(r, c int) int64 { return int64(r + c) }),
	}
	r := rand.New(rand.NewSource(50))
	idx := make([]int, 1<<14)
	for i := range idx {
		idx[i] = r.Intn(rows)
	}
	allCols := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, l := range []layout.Layout{layout.LNSM, layout.LDSM, layout.LPAX} {
		st := layout.TraceScan(simhw.NewSim(h), l, rows, cols, 1)
		start := time.Now()
		rels[l].ScanSum([]int{3})
		w := float64(time.Since(start).Nanoseconds()) / float64(rows)
		t.Rows = append(t.Rows, []string{l.String() + " scan 1/8 cols",
			fmt.Sprintf("%d", st.Levels[1].Misses()),
			fmt.Sprintf("%.1f", st.TimeNS/float64(rows)),
			fmt.Sprintf("%.1f", w)})
	}
	for _, l := range []layout.Layout{layout.LNSM, layout.LDSM, layout.LPAX} {
		st := layout.TraceGather(simhw.NewSim(h), l, rows, cols, cols, len(idx))
		start := time.Now()
		rels[l].GatherSum(idx, allCols)
		w := float64(time.Since(start).Nanoseconds()) / float64(len(idx))
		t.Rows = append(t.Rows, []string{l.String() + " gather 8/8 cols",
			fmt.Sprintf("%d", st.Levels[1].Misses()),
			fmt.Sprintf("%.1f", st.TimeNS/float64(len(idx))),
			fmt.Sprintf("%.1f", w)})
	}
	t.Notes = "paper §5/[46]: sequential favors DSM/PAX; random row access favors NSM"
	return t
}

// E13 compares per-event vs basket stream processing.
func E13() Table {
	t := Table{ID: "E13", Title: "DataCell: per-event vs basket (bulk) stream processing",
		Header: []string{"engine", "events/ms", "vs per-event"}}
	nEvents := 1 << 18
	queries := make([]datacell.Query, 32)
	for i := range queries {
		queries[i] = datacell.Query{ID: i, Lo: int64(i * 10), Hi: int64(i*10 + 30), Window: nEvents}
	}
	r := rand.New(rand.NewSource(60))
	events := make([]datacell.Event, nEvents)
	for i := range events {
		events[i] = datacell.Event{TS: int64(i), Key: r.Int63n(100), Val: r.Int63n(1000)}
	}
	start := time.Now()
	pe := datacell.NewPerEventEngine(queries)
	for _, ev := range events {
		pe.Push(ev)
	}
	pe.Flush()
	peT := time.Since(start)
	peRate := float64(nEvents) / (float64(peT.Nanoseconds()) / 1e6)
	t.Rows = append(t.Rows, []string{"per-event", fmt.Sprintf("%.0f", peRate), "1.0x"})
	for _, basket := range []int{64, 1024, 16384} {
		start = time.Now()
		be, err := datacell.NewEngine(basket, queries)
		if err != nil {
			panic(err)
		}
		for _, ev := range events {
			be.Push(ev)
		}
		be.Flush()
		bT := time.Since(start)
		rate := float64(nEvents) / (float64(bT.Nanoseconds()) / 1e6)
		t.Rows = append(t.Rows, []string{fmt.Sprintf("basket %d", basket),
			fmt.Sprintf("%.0f", rate), fmt.Sprintf("%.1fx", rate/peRate)})
	}
	t.Notes = "paper §6.2: incremental bulk-event processing on the relational engine"
	return t
}

// E14 compares the DataCyclotron ring against request/response.
func E14() Table {
	t := Table{ID: "E14", Title: "DataCyclotron: floating hot-set vs request/response (simulated)",
		Header: []string{"nodes", "skew", "ring q/ms", "req-resp q/ms", "ratio"}}
	for _, nodes := range []int{8, 16, 32, 64} {
		for _, skew := range []float64{0, 2} {
			cfg := cyclotron.Config{Nodes: nodes, Partitions: nodes * 4,
				HopNS: 500, MsgNS: 5000, TransferNS: 4000, ProcessNS: 1000}
			cy := cyclotron.RunCyclotron(cfg, 20000, skew)
			rr := cyclotron.RunRequestResponse(cfg, 20000, skew)
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", nodes), fmt.Sprintf("%.0f", skew),
				fmt.Sprintf("%.0f", cy.Throughput), fmt.Sprintf("%.0f", rr.Throughput),
				fmt.Sprintf("%.1fx", cy.Throughput/rr.Throughput)})
		}
	}
	t.Notes = "paper §6.2: RDMA ring bypasses the TCP/IP stack; throughput rises with cluster size"
	return t
}

// E15 measures morsel-driven parallel scaling of the vectorized engine:
// TPC-H Q6 and a shared-build hash-join probe across worker counts.
// Speedups track the host's core count — on a single-core machine the
// extra workers only pay the exchange overhead.
func E15() Table {
	t := Table{ID: "E15", Title: "morsel-parallel pipelines: Q6 + join probe scaling",
		Header: []string{"workers", "q6 ms", "q6 speedup", "join ms", "join speedup"}}
	n := 1 << 20
	li := workload.GenLineItem(n, 20)
	q6src, err := vector.NewSource([]string{"q", "p", "d"}, []vector.Col{
		{Kind: vector.KindInt, Ints: li.Quantity},
		{Kind: vector.KindFloat, Floats: li.Price},
		{Kind: vector.KindFloat, Floats: li.Discount}})
	if err != nil {
		panic(err)
	}
	nb := 1 << 18
	build, err := vector.NewSource([]string{"k"},
		[]vector.Col{{Kind: vector.KindInt, Ints: workload.UniformInts(nb, int64(nb), 23)}})
	if err != nil {
		panic(err)
	}
	probe, err := vector.NewSource([]string{"k"},
		[]vector.Col{{Kind: vector.KindInt, Ints: workload.UniformInts(n, int64(nb), 24)}})
	if err != nil {
		panic(err)
	}
	jb, err := vector.BuildJoinTable(vector.NewScan(build, 0), 0, nil, false)
	if err != nil {
		panic(err)
	}
	var q6Base, joinBase time.Duration
	for _, w := range []int{1, 2, 4, 8} {
		q6T := minRun(3, func() {
			if _, err := vector.ParallelQ6(q6src, w, 0); err != nil {
				panic(err)
			}
		})
		joinT := minRun(3, func() {
			if _, err := vector.ParallelJoinCount(jb, probe, 0, w, 0); err != nil {
				panic(err)
			}
		})
		if w == 1 {
			q6Base, joinBase = q6T, joinT
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", w),
			fmt.Sprintf("%.1f", float64(q6T.Microseconds())/1000),
			fmt.Sprintf("%.2fx", float64(q6Base)/float64(q6T)),
			fmt.Sprintf("%.1f", float64(joinT.Microseconds())/1000),
			fmt.Sprintf("%.2fx", float64(joinBase)/float64(joinT))})
	}
	t.Notes = fmt.Sprintf("morsel-driven exchange over %d-row source; GOMAXPROCS=%d on this host", n, runtime.GOMAXPROCS(0))
	return t
}

// All returns every experiment constructor keyed by id.
func All() map[string]func() Table {
	return map[string]func() Table{
		"E1": E1, "E2": E2, "E3": E3, "E4": E4, "E5": E5, "E6": E6, "E7": E7,
		"E8": E8, "E9": E9, "E10": E10, "E11": E11, "E12": E12, "E13": E13, "E14": E14,
		"E15": E15,
	}
}

// Order lists experiment ids in presentation order.
func Order() []string {
	return []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15"}
}
