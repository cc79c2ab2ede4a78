package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/engine"
)

// The embedded workloads call repro/engine in this process, from one caller
// goroutine; the engine's own worker count stays at its default.

// variant is one set of arguments of a template with its expected answer.
type variant struct {
	args []any
	exp  *expected
}

// template is one statement of a workload.
type template struct {
	name     string // span and metric name
	sql      string
	vector   bool // must run on the vectorized pipeline; false: must fall back to MAL
	variants []variant
}

type embedded struct {
	name string
	// build generates the tables and the statements with their expected
	// answers; it is harness work and is not timed.
	build func(seed int64, scale float64) ([]*table, []*template)
	// rounds: an op is one pass over every template, each a prepared
	// statement run with its next variant. Otherwise an op is one template,
	// run once, unprepared, through Conn.Query.
	rounds bool
	// budget > 0 opens the measured handle with that per-query memory budget
	// and a spill directory, and requires every template to spill.
	budget int64
	// layers adds the workload's own per-layer probes to a traced run.
	layers func(cfg *config, r *embRun, m metrics) error
}

// embRun is one loaded, checkpointed and reopened database ready to measure.
type embRun struct {
	spec   *embedded
	cfg    *config
	dir    string
	tables []*table
	tpls   []*template
	db     *engine.DB
	conn   *engine.Conn
	stmts  []*engine.Stmt // per template, when spec.rounds
	res    result
	ptrs   []any

	checkpoint time.Duration // the Close that wrote the checkpoint
	reopen     time.Duration // Open of the checkpointed directory
	setup      time.Duration

	sb      *spanBuf          // nil unless tracing
	traced  *loopStats        // the traced phase, for the layer probes
	tplLat  [][]time.Duration // per template, when spec.rounds
	rejects int               // ops refused with ErrOverBudget
	// spillSyncs counts the Sync calls on spill files so far; nil without a budget.
	spillSyncs func() int
}

// openOpts are the options of the measured handle. Under a budget the spill
// files go to an in-memory filesystem: on the sandbox's disk (ext4 mounted
// with discard, shared with other tenants) creating, syncing and deleting
// 42 files a round took 10 to 37 ms from one minute to the next, three
// quarters of the op, so the workload measured the host's disk and not the
// spill path. The handle only reads, so its log, which shares the
// filesystem, stays empty.
func (r *embRun) openOpts(budgeted bool) []engine.Option {
	opts := []engine.Option{engine.WithDir(r.dir)}
	if budgeted && r.spec.budget > 0 {
		var fs engine.Option
		fs, r.spillSyncs = memSpillFS()
		opts = append(opts, engine.WithMemBudget(r.spec.budget), engine.WithSpill(r.dir+"-spill"), fs)
	}
	return opts
}

// setUp loads the tables into a fresh directory, closes the handle (which
// checkpoints), reopens the directory and runs one op. The measured handle
// therefore never is the one that loaded: loaded rows sit in insert deltas
// until a checkpoint is reopened, and a scan of deltas costs 30x a scan of
// main columns.
func (s *embedded) setUp(cfg *config, dir string, tables []*table, tpls []*template) (*embRun, error) {
	ctx := context.Background()
	r := &embRun{spec: s, cfg: cfg, dir: dir, tables: tables, tpls: tpls}
	start := time.Now()
	var err error
	if r.db, err = engine.Open(engine.WithDir(dir)); err != nil {
		return nil, err
	}
	for _, t := range tables {
		if err := load(func(sql string) error { _, err := r.db.Exec(ctx, sql); return err }, t); err != nil {
			return nil, errors.Join(err, r.close())
		}
	}
	t0 := time.Now()
	if err := r.db.Close(); err != nil {
		return nil, errors.Join(fmt.Errorf("checkpoint: %w", err), r.close())
	}
	r.checkpoint = time.Since(t0)
	if err := r.open(true); err != nil {
		return nil, errors.Join(err, r.close())
	}
	if _, err := r.op(0); err != nil {
		return nil, errors.Join(fmt.Errorf("first op: %w", err), r.close())
	}
	r.setup = time.Since(start)
	return r, nil
}

func (r *embRun) open(budgeted bool) error {
	t0 := time.Now()
	db, err := engine.Open(r.openOpts(budgeted)...)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	r.reopen = time.Since(t0)
	r.db, r.conn, r.stmts = db, db.Conn(), nil
	if r.spec.rounds {
		for _, t := range r.tpls {
			st, err := r.conn.Prepare(t.sql)
			if err != nil {
				return errors.Join(fmt.Errorf("prepare %s: %w", t.name, err), db.Close())
			}
			r.stmts = append(r.stmts, st)
		}
		r.tplLat = make([][]time.Duration, len(r.tpls))
	}
	return nil
}

func (r *embRun) close() error {
	err := r.db.Close()
	if rerr := os.RemoveAll(r.dir); err == nil {
		err = rerr
	}
	if rerr := os.RemoveAll(r.dir + "-spill"); err == nil {
		err = rerr
	}
	return err
}

type rowSource interface {
	Columns() []string
	Next() bool
	Scan(dest ...any) error
	Err() error
	Close() error
}

// drain reads every row of rows into res and closes it.
func drain(rows rowSource, res *result, ptrs *[]any) error {
	res.ncols = len(rows.Columns())
	res.cells = res.cells[:0]
	if cap(*ptrs) < res.ncols {
		*ptrs = make([]any, res.ncols)
	}
	p := (*ptrs)[:res.ncols]
	for rows.Next() {
		n := len(res.cells)
		for i := 0; i < res.ncols; i++ {
			res.cells = append(res.cells, nil)
		}
		for i := range p {
			p[i] = &res.cells[n+i]
		}
		if err := rows.Scan(p...); err != nil {
			rows.Close()
			return err
		}
	}
	if err := rows.Err(); err != nil {
		rows.Close()
		return err
	}
	return rows.Close()
}

// runTemplate times one execution of template ti (query plus drain) and then
// checks the answer outside the timed part.
func (r *embRun) runTemplate(op, ti, vi, parent int) (time.Duration, error) {
	ctx := context.Background()
	t := r.tpls[ti]
	v := &t.variants[vi%len(t.variants)]
	id := r.sb.begin(op, "tpl."+t.name, parent)
	start := time.Now()
	q := r.sb.begin(op, "engine.query", id)
	var rows *engine.Rows
	var err error
	if r.spec.rounds {
		rows, err = r.stmts[ti].Query(ctx, v.args...)
	} else {
		rows, err = r.conn.Query(ctx, t.sql, v.args...)
	}
	r.sb.end(q)
	if err == nil {
		d := r.sb.begin(op, "engine.drain", id)
		err = drain(rows, &r.res, &r.ptrs)
		r.sb.end(d)
	}
	lat := time.Since(start)
	r.sb.end(id)
	if err != nil {
		if errors.Is(err, engine.ErrOverBudget) {
			r.rejects++
		}
		return lat, fmt.Errorf("%s: %w", t.name, err)
	}
	if err := v.exp.check(&r.res); err != nil {
		return lat, fmt.Errorf("%s %v: wrong answer: %w", t.name, v.args, err)
	}
	return lat, nil
}

// op runs op i: a round or a single statement. Its latency is the sum of the
// timed parts, so verification never counts.
func (r *embRun) op(i int) (time.Duration, error) {
	if !r.spec.rounds {
		return r.runTemplate(i, i%len(r.tpls), 0, -1)
	}
	id := r.sb.begin(i, "op", -1)
	var total time.Duration
	var first error
	for ti := range r.tpls {
		lat, err := r.runTemplate(i, ti, i, id)
		total += lat
		r.tplLat[ti] = append(r.tplLat[ti], lat)
		if err != nil && first == nil {
			first = err
		}
	}
	r.sb.end(id)
	return total, first
}

// assertRouting aborts the run when a template would measure the wrong path:
// Conn.Plan must name the vectorized pipeline for every template but the ones
// declared as MAL fall-backs, and under a budget every template must spill.
func (r *embRun) assertRouting() error {
	seen := map[string]bool{}
	for ti, t := range r.tpls {
		if seen[t.name] {
			continue // 12 000 ad-hoc texts of four shapes: one of each is enough
		}
		seen[t.name] = true
		plan, err := r.conn.Plan(t.sql)
		if err != nil {
			return fmt.Errorf("plan %s: %w", t.name, err)
		}
		if vec := strings.HasPrefix(plan, "vectorized pipeline"); vec != t.vector {
			return fmt.Errorf("routing: %s: vectorized=%v, want %v: %s", t.name, vec, t.vector, strings.SplitN(plan, "\n", 2)[0])
		}
		if r.spec.budget > 0 {
			before := r.db.SpillStats().Spills
			if _, err := r.runTemplate(0, ti, 0, -1); err != nil {
				return err
			}
			if r.db.SpillStats().Spills == before {
				return fmt.Errorf("routing: %s did not spill under the budget", t.name)
			}
		}
	}
	return nil
}

func (r *embRun) measure(d time.Duration, atLeast int) (*loopStats, error) {
	for i := range r.tplLat {
		r.tplLat[i] = r.tplLat[i][:0]
	}
	return drive(1, d, atLeast, os.Getpid(), func(_, i int) (time.Duration, error) { return r.op(i) })
}

func (s *embedded) run(cfg *config) (rep *report, err error) {
	tables, tpls := s.build(cfg.seed, cfg.scale)
	if cfg.perturb {
		tpls[0].variants[0].exp.perturb()
	}
	// Set up several times and report the median; the last one is measured.
	// A traced run reports no set-up time and sets up once.
	var setups []float64
	var r *embRun
	for k := 0; ; k++ {
		r, err = s.setUp(cfg, cfg.scratch(s.name, k), tables, tpls)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.setup.Seconds())
		if cfg.trace || cfg.enoughSetups(setups) {
			break
		}
		if err := r.close(); err != nil {
			return nil, err
		}
	}
	defer func() {
		if cerr := r.close(); err == nil && cerr != nil {
			rep, err = nil, cerr
		}
	}()
	if err := r.assertRouting(); err != nil {
		return nil, err
	}
	setup := time.Duration(median(setups) * float64(time.Second))
	if !cfg.trace {
		st, err := r.measure(cfg.duration(1), cfg.minOps())
		if err != nil {
			return nil, err
		}
		return newReport(s.name, st, st.endToEnd(setup)), nil
	}
	return s.traced(cfg, r)
}

// traced is the second, traced run: a short untraced phase for the overhead
// ratio, the traced phase with counters read at its boundaries, then the
// probes below the engine. End-to-end metrics never come from here.
func (s *embedded) traced(cfg *config, r *embRun) (*report, error) {
	m := newLayerMetrics()
	plain, err := r.measure(cfg.duration(0.25), 0)
	if err != nil {
		return nil, err
	}

	r.sb = newSpanBuf(time.Now(), 0)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	pc0, wal0, sp0 := r.db.PlanCacheStats(), r.db.WALStats(), r.db.SpillStats()
	r.rejects = 0
	syncs := 0
	if r.spillSyncs != nil {
		syncs = r.spillSyncs()
	}
	st, err := r.measure(cfg.duration(0.5), 0)
	if err != nil {
		return nil, err
	}
	r.traced = st
	runtime.ReadMemStats(&ms1)
	pc1, wal1, sp1 := r.db.PlanCacheStats(), r.db.WALStats(), r.db.SpillStats()

	ops := float64(st.attempted)
	m.set("trace.overhead_ratio", (float64(plain.attempted)/plain.wall.Seconds())/(ops/st.wall.Seconds()), "x")
	m.set("engine.alloc_kb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/ops, "KB")
	if look := float64(pc1.Hits - pc0.Hits + pc1.Misses - pc0.Misses); look > 0 {
		m.set("engine.plan_cache_hit_ratio", float64(pc1.Hits-pc0.Hits)/look, "ratio")
	}
	m.set("engine.checkpoint_s", r.checkpoint.Seconds(), "s")
	m.set("engine.recover_s", r.reopen.Seconds(), "s")
	m.set("engine.recovered_ok", 1, "bool") // the reopened data answered every checked op
	var user int64
	for _, t := range r.tables {
		user += t.userBytes()
	}
	if size, err := dirSize(r.dir); err == nil {
		m.set("engine.checkpoint_bytes_per_user_byte", float64(size)/float64(user), "ratio")
	}
	if tx := float64(wal1.Txs - wal0.Txs); tx > 0 {
		m.set("wal.fsyncs_per_tx", float64(wal1.Fsyncs-wal0.Fsyncs)/tx, "count")
		m.set("wal.records_per_tx", float64(wal1.Records-wal0.Records)/tx, "count")
	}
	m.set("spill.files_per_op", float64(sp1.Spills-sp0.Spills)/ops, "count")
	m.set("spill.bytes_per_op", float64(sp1.BytesWritten-sp0.BytesWritten)/ops, "B")
	m.set("spill.live_files_after", float64(sp1.LiveFiles), "count")
	if r.spillSyncs != nil {
		m.set("spill.syncs_per_op", float64(r.spillSyncs()-syncs)/ops, "count")
	}
	m.set("memgov.rejects", float64(r.rejects), "count")
	for ti, t := range r.tpls {
		if s.rounds {
			m.set("engine.tpl."+t.name+".p50_ms", ms(p50(r.tplLat[ti])), "ms")
		}
	}
	if s.layers != nil {
		if err := s.layers(cfg, r, m); err != nil {
			return nil, err
		}
	}
	printSelfTimes(cfg, selfTimes([]*spanBuf{r.sb}))
	if err := writeSpans(cfg.tracePath(s.name), []*spanBuf{r.sb}); err != nil {
		return nil, err
	}
	return newReport(s.name, st, m), nil
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		fi, err := e.Info()
		if err == nil {
			n += fi.Size()
		}
		return err
	})
	return n, err
}

// --- the workloads ---

const nVariants = 16

func args(v ...int64) []any {
	a := make([]any, len(v))
	for i, x := range v {
		a[i] = x
	}
	return a
}

// variants builds nVariants argument sets from gen and their answers from ora.
func variants(n int, gen func() []int64, ora func(a []int64) *expected) []variant {
	vs := make([]variant, n)
	for i := range vs {
		a := gen()
		vs[i] = variant{args: args(a...), exp: ora(a)}
	}
	return vs
}

func buildOlapScan(seed int64, scale float64) ([]*table, []*template) {
	fact, fs := genFact(seed, scaled(1<<16, scale)), genFactSmall(seed, scaled(1<<13, scale), 1)
	r := rand.New(rand.NewSource(seed*7919 + 11))
	// The start of a day range moves with the seed; its width, and so the
	// work, does not.
	dayRange := func(width int) func() []int64 {
		return func() []int64 { lo := int64(r.Intn(nDays - width + 1)); return []int64{lo, lo + int64(width)} }
	}
	q6 := fmt.Sprintf("SELECT sum(price * disc), count(*) FROM fact WHERE day >= ? AND day < ? AND qty < %d", q6Qty)
	q6ora := func(a []int64) *expected { return oracleQ6(fact, a[0], a[1]) }
	qtyLow := func() []int64 { return []int64{int64(1 + r.Intn(5))} }
	return []*table{fact, fs}, []*template{
		{name: "q6_wide", sql: q6, vector: true, variants: variants(nVariants, dayRange(nDays/5), q6ora)},
		{name: "q6_narrow", sql: q6, vector: true, variants: variants(nVariants, dayRange(8), q6ora)},
		{name: "q1_group", vector: true,
			sql: "SELECT d3, count(*), sum(qty), sum(price), avg(disc) FROM fact WHERE day < ? GROUP BY d3",
			variants: variants(nVariants, func() []int64 { return []int64{int64(nDays - r.Intn(100))} },
				func(a []int64) *expected { return oracleQ1(fact, a[0]) })},
		{name: "group_10k", vector: true,
			sql:      "SELECT d2, count(*), sum(qty) FROM fact WHERE qty >= ? GROUP BY d2",
			variants: variants(nVariants, qtyLow, func(a []int64) *expected { return oracleGroup10k(fact, a[0]) })},
		// A tenth of the rows reaches the sort, whatever the seed.
		{name: "topn", vector: true,
			sql: fmt.Sprintf("SELECT id, price FROM fact WHERE d1 >= ? AND d1 < ? ORDER BY price DESC LIMIT %d", topN),
			variants: variants(nVariants, func() []int64 { lo := int64(r.Intn(nDim1 - nDim1/10 + 1)); return []int64{lo, lo + nDim1/10} },
				func(a []int64) *expected { return oracleTopN(fact, a[0], a[1]) })},
		{name: "text_group", vector: false,
			sql:      "SELECT flag, count(*), sum(qty) FROM fact_small WHERE qty >= ? GROUP BY flag",
			variants: variants(nVariants, qtyLow, func(a []int64) *expected { return oracleTextGroup(fs, a[0]) })},
	}
}

func buildOlapJoin(seed int64, scale float64) ([]*table, []*template) {
	fact := genFact(seed, scaled(1<<16, scale)) // the same table as olap_scan's
	dim1, dim2, region, dim3 := genDims(seed)
	r := rand.New(rand.NewSource(seed*7919 + 12))
	const from = "FROM fact JOIN dim1 ON fact.d1 = dim1.k1 "
	return []*table{fact, dim1, dim2, region, dim3}, []*template{
		{name: "star3", vector: true,
			sql: "SELECT dim1.cat, count(*), sum(fact.qty) " + from + "JOIN dim3 ON fact.d3 = dim3.k3 " +
				"WHERE dim3.band < ? AND dim1.w1 < ? GROUP BY dim1.cat",
			variants: variants(nVariants, func() []int64 { return []int64{int64(4 + r.Intn(3)), int64(45 + r.Intn(10))} },
				func(a []int64) *expected { return oracleStar3(fact, dim1, dim3, a[0], a[1]) })},
		{name: "star4_top", vector: true,
			sql: "SELECT dim2.reg, sum(fact.qty) AS s, count(*) " + from + "JOIN dim2 ON fact.d2 = dim2.k2 JOIN dim3 ON fact.d3 = dim3.k3 " +
				fmt.Sprintf("WHERE dim1.w1 < ? AND dim3.band >= ? GROUP BY dim2.reg ORDER BY s DESC LIMIT %d", starTop),
			variants: variants(nVariants, func() []int64 { return []int64{int64(45 + r.Intn(10)), int64(2 + r.Intn(3))} },
				func(a []int64) *expected { return oracleStar4Top(fact, dim1, dim2, dim3, a[0], a[1]) })},
		{name: "snow_chain", vector: true,
			sql: "SELECT region.zone, count(*), sum(fact.price) FROM fact JOIN dim2 ON fact.d2 = dim2.k2 JOIN region ON dim2.reg = region.r " +
				"WHERE region.zone < ? AND fact.qty >= ? GROUP BY region.zone",
			variants: variants(nVariants, func() []int64 { return []int64{int64(3 + r.Intn(2)), int64(1 + r.Intn(5))} },
				func(a []int64) *expected { return oracleSnowChain(fact, dim2, region, a[0], a[1]) })},
	}
}

func buildOOCore(seed int64, scale float64) ([]*table, []*template) {
	// The grace-hash operators reserve some 60 KiB whatever the input, so the
	// budget cannot shrink with the scale, and neither can the tables if they
	// are to spill under it.
	n := scaled(1<<12, max(scale, 1))
	fs, big := genFactSmall(seed, n, n), genDimBig(seed, n)
	// Three variants each: the answers are tens of thousands of rows.
	seq := func() func() []int64 {
		q := int64(0)
		return func() []int64 { q++; return []int64{q} }
	}
	return []*table{fs, big}, []*template{
		{name: "sort_all", vector: true,
			sql:      "SELECT id, d2, price FROM fact_small WHERE qty >= ? ORDER BY d2",
			variants: variants(3, seq(), func(a []int64) *expected { return oracleSortAll(fs, a[0]) })},
		{name: "group_pairs", vector: true,
			sql:      "SELECT d2, d1, count(*), sum(qty) FROM fact_small WHERE qty >= ? GROUP BY d2, d1",
			variants: variants(3, seq(), func(a []int64) *expected { return oracleGroupPairs(fs, a[0]) })},
		{name: "join_big", vector: true,
			sql:      "SELECT fact_small.id, dim_big.v FROM fact_small JOIN dim_big ON fact_small.bk = dim_big.kb WHERE fact_small.qty >= ?",
			variants: variants(3, seq(), func(a []int64) *expected { return oracleJoinBig(fs, big, a[0]) })},
	}
}

const adhocTexts = 12000

// buildAdhoc makes adhocTexts distinct SQL texts of four shapes with their
// literals inlined: 47 times the 256 entries of the plan cache, so every
// statement is parsed, compiled and lowered, and none is a cache hit.
func buildAdhoc(seed int64, scale float64) ([]*table, []*template) {
	small := genSmall(seed, scaled(4096, scale))
	n, texts := int64(small.n), scaled(adhocTexts, scale)
	r := rand.New(rand.NewSource(seed*7919 + 13))
	tpls := make([]*template, 0, texts)
	seen := map[string]bool{}
	for len(tpls) < texts {
		t := &template{vector: true}
		var exp *expected
		switch len(tpls) % 4 {
		case 0:
			lo := r.Int63n(n / 2)
			hi := lo + 1 + r.Int63n(n/2)
			t.name, t.sql = "range", fmt.Sprintf("SELECT count(*), sum(b) FROM small WHERE k >= %d AND k < %d", lo, hi)
			exp = oracleAdhocRange(small, lo, hi)
		case 1:
			x := 1 + r.Int63n(999)
			y := r.Int63n(n) // a second literal, so that 3 000 texts of this shape can differ
			t.name, t.sql = "group", fmt.Sprintf("SELECT a, count(*) FROM small WHERE b < %d AND k <> %d GROUP BY a", x, -1-y)
			exp = oracleAdhocGroup(small, x)
		case 2:
			av, x := r.Int63n(64), r.Int63n(900)
			t.name, t.sql = "top", fmt.Sprintf("SELECT k, b FROM small WHERE a = %d AND b >= %d ORDER BY b DESC LIMIT %d", av, x, adhocTop)
			exp = oracleAdhocTop(small, av, x)
		default:
			lo := r.Int63n(500)
			hi := lo + 1 + r.Int63n(500)
			t.name, t.sql = "expr", fmt.Sprintf("SELECT sum(f * 2.5), count(*) FROM small WHERE b >= %d AND b < %d", lo, hi)
			exp = oracleAdhocExpr(small, lo, hi)
		}
		if seen[t.sql] {
			continue
		}
		seen[t.sql] = true
		t.variants = []variant{{exp: exp}}
		tpls = append(tpls, t)
	}
	return []*table{small}, tpls
}

// --- per-layer probes of the embedded workloads ---

func (r *embRun) roundStmts() []replayStmt {
	stmts := make([]replayStmt, len(r.tpls))
	for i, t := range r.tpls {
		stmts[i] = replayStmt{t.name, t.sql, t.variants[0].args}
	}
	return stmts
}

func (r *embRun) tplP50(name string) time.Duration {
	for i, t := range r.tpls {
		if t.name == name {
			return p50(r.tplLat[i])
		}
	}
	return 0
}

func layersOlapScan(cfg *config, r *embRun, m metrics) error {
	var round, text time.Duration
	for i, t := range r.tpls {
		for _, d := range r.tplLat[i] {
			round += d
			if !t.vector {
				text += d
			}
		}
	}
	m.set("mal.fallback_share", float64(text)/float64(round), "ratio")
	if err := replayLayers(r, r.roundStmts(), 5, r.tplP50, m); err != nil {
		return err
	}
	return probeVector(r.tables[0], m)
}

func layersOlapJoin(cfg *config, r *embRun, m metrics) error {
	if err := replayLayers(r, r.roundStmts(), 5, r.tplP50, m); err != nil {
		return err
	}
	return probeRadix(r.tables[0], r.tables[2], m)
}

// layersOOCore reopens the directory without the budget and runs the same
// rounds in memory: the base of spill.slowdown_x.
func layersOOCore(cfg *config, r *embRun, m metrics) error {
	var budgeted time.Duration
	var input int64
	for i := range r.tpls {
		budgeted += p50(r.tplLat[i])
	}
	for _, t := range r.tables {
		input += t.userBytes()
	}
	m.set("spill.bytes_per_input_byte", m["spill.bytes_per_op"].Value/float64(input), "ratio")
	if err := r.db.Close(); err != nil {
		return err
	}
	if err := r.open(false); err != nil {
		return err
	}
	sb := r.sb
	r.sb = nil
	defer func() { r.sb = sb }()
	if _, err := r.measure(cfg.duration(0.125), 0); err != nil {
		return err
	}
	var free time.Duration
	for i := range r.tpls {
		free += p50(r.tplLat[i])
	}
	m.set("spill.slowdown_x", float64(budgeted)/float64(free), "x")
	return nil
}

func layersAdhoc(cfg *config, r *embRun, m metrics) error {
	// Replay every 60th text: 200 at scale 1, 50 of each shape.
	var stmts []replayStmt
	for i := 0; i < len(r.tpls); i += 60 {
		stmts = append(stmts, replayStmt{fmt.Sprintf("%s#%d", r.tpls[i].name, i), r.tpls[i].sql, nil})
	}
	opP50 := p50(r.traced.lat)
	if err := replayLayers(r, stmts, 1, func(string) time.Duration { return opP50 }, m); err != nil {
		return err
	}
	var cold, hit []time.Duration
	for i := 0; i < 100; i++ {
		// A text the plan cache has never held, then the same text again.
		sql := fmt.Sprintf("SELECT count(*), sum(b) FROM small WHERE k >= %d AND k < 100", -1-i)
		for _, d := range []*[]time.Duration{&cold, &hit} {
			t0 := time.Now()
			st, err := r.conn.Prepare(sql)
			if err != nil {
				return err
			}
			*d = append(*d, time.Since(t0))
			st.Close()
		}
	}
	m.set("engine.prepare_cold_us", us(p50(cold)), "us")
	m.set("engine.prepare_hit_us", us(p50(hit)), "us")
	return nil
}
