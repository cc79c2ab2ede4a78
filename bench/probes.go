package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/engine"
	"repro/internal/physical"
	"repro/internal/server/wire"
	"repro/internal/sqlfe"
	"repro/internal/vector"
	"repro/internal/wal"
)

// The probes of a traced run call the layers below repro/engine directly:
// the statements of the workload are replayed stage by stage against the same
// checkpoint, and a few kernels are timed on the generated columns. This file
// is the only one that imports repro/internal.

type replayStmt struct {
	name string
	sql  string
	args []any
}

type replayOut struct {
	parse, snapshot, compile, lower []time.Duration
	execute                         map[string][]time.Duration // Plan.Execute plus drain, per statement name
	fallbacks                       int                        // statements the physical layer handed to MAL
	joinRows                        float64                    // rows out of join steps, per pass over the statements
	estLogErr                       float64                    // mean |log10(estimated/actual)| over join steps
}

// replay runs stmts iters times through sqlfe.Parse, DB.Snapshot,
// CompileSelectBound, physical.Lower and Plan.Execute, with a span around
// each stage.
func replay(sdb *sqlfe.DB, stmts []replayStmt, iters int, sb *spanBuf) (*replayOut, error) {
	ctx := context.Background()
	out := &replayOut{execute: map[string][]time.Duration{}}
	var joinRows int64
	var joinSteps int
	stage := func(op int, name string, d *[]time.Duration, f func()) {
		id := sb.begin(op, name, -1)
		t0 := time.Now()
		f()
		*d = append(*d, time.Since(t0))
		sb.end(id)
	}
	for it := 0; it < iters; it++ {
		for si, s := range stmts {
			op := 1<<30 + it*len(stmts) + si // apart from the op ids of the measured phase
			var st sqlfe.Stmt
			var err error
			stage(op, "sqlfe.parse", &out.parse, func() { st, err = sqlfe.Parse(s.sql) })
			if err != nil {
				return nil, fmt.Errorf("replay %s: %w", s.name, err)
			}
			sel, ok := st.(*sqlfe.Select)
			if !ok {
				return nil, fmt.Errorf("replay %s: not a SELECT", s.name)
			}
			var snap *sqlfe.Snapshot
			stage(op, "sqlfe.snapshot", &out.snapshot, func() { snap = sdb.Snapshot() })
			var names []string
			stage(op, "sqlfe.compile", &out.compile, func() {
				prog, _, cerr := snap.CompileSelectBound(sel)
				if err = cerr; err == nil {
					names = prog.ResultNames
				}
			})
			if err != nil {
				return nil, fmt.Errorf("replay %s: %w", s.name, err)
			}
			var plan *physical.Plan
			stage(op, "physical.lower", &out.lower, func() { plan, _ = physical.Lower(sel, snap) })
			if plan == nil || plan.DataFallback(snap) != nil {
				if it == 0 {
					out.fallbacks++
				}
				continue
			}
			plan.Names = names
			stats := &physical.ExecStats{}
			var d []time.Duration
			stage(op, "physical.execute", &d, func() {
				var res *physical.Result
				var fb *physical.Fallback
				res, fb, err = plan.Execute(ctx, snap, s.args, physical.Options{Stats: stats})
				if err != nil || fb != nil {
					return
				}
				for {
					var b *vector.Batch
					if b, err = res.Op.Next(); b == nil || err != nil {
						break
					}
				}
				if cerr := res.Op.Close(); err == nil {
					err = cerr
				}
			})
			if err != nil {
				return nil, fmt.Errorf("replay %s: %w", s.name, err)
			}
			out.execute[s.name] = append(out.execute[s.name], d[0])
			for _, j := range stats.Joins {
				joinRows += j.Actual
				if j.EstRows > 0 && j.Actual > 0 {
					out.estLogErr += math.Abs(math.Log10(float64(j.EstRows) / float64(j.Actual)))
					joinSteps++
				}
			}
		}
	}
	out.joinRows = float64(joinRows) / float64(iters)
	if joinSteps > 0 {
		out.estLogErr /= float64(joinSteps)
	}
	return out, nil
}

func (o *replayOut) report(m metrics) {
	m.set("sqlfe.parse_us", us(p50(o.parse)), "us")
	m.set("sqlfe.snapshot_us", us(p50(o.snapshot)), "us")
	m.set("sqlfe.compile_us", us(p50(o.compile)), "us")
	m.set("physical.lower_us", us(p50(o.lower)), "us")
	m.set("physical.fallbacks", float64(o.fallbacks), "count")
	m.set("physical.join_intermediate_rows", o.joinRows, "rows")
	m.set("physical.join_est_log_error", o.estLogErr, "log10")
}

// replayLayers replays the workload's statements against the checkpoint the
// run measured and relates Plan.Execute to the engine latency of the same
// statements: engineLat maps a statement name to its p50 in the traced phase.
func replayLayers(r *embRun, stmts []replayStmt, iters int, engineLat func(name string) time.Duration, m metrics) error {
	sdb, err := sqlfe.Load(r.dir)
	if err != nil {
		return fmt.Errorf("replay: load checkpoint: %w", err)
	}
	out, err := replay(sdb, stmts, iters, r.sb)
	if err != nil {
		return err
	}
	out.report(m)
	var exec, eng time.Duration
	for _, s := range stmts {
		if d := out.execute[s.name]; len(d) > 0 {
			exec += p50(d)
			eng += engineLat(s.name)
		}
	}
	if eng > 0 {
		m.set("physical.execute_share", float64(exec)/float64(eng), "ratio")
	}
	return nil
}

func intSource(names []string, cols ...[]int64) (*vector.Source, error) {
	vc := make([]vector.Col, len(cols))
	for i, c := range cols {
		vc[i] = vector.Col{Kind: vector.KindInt, Ints: c}
	}
	return vector.NewSource(names, vc)
}

// bestOf is the fastest of n runs of f: a kernel's cost without the noise.
func bestOf(n int, f func() error) (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		best = min(best, time.Since(t0))
	}
	return best, nil
}

// probeVector times the scan-filter-aggregate and the grouping kernel on the
// fact columns.
func probeVector(fact *table, m metrics) error {
	q6, err := vector.NewSource([]string{"qty", "price", "disc"}, []vector.Col{
		{Kind: vector.KindInt, Ints: fact.col("qty").ints},
		{Kind: vector.KindFloat, Floats: fact.col("price").flts},
		{Kind: vector.KindFloat, Floats: fact.col("disc").flts}})
	if err != nil {
		return err
	}
	d, err := bestOf(5, func() error { _, err := vector.ParallelQ6(q6, 0, 0); return err })
	if err != nil {
		return err
	}
	m.set("vector.q6_ns_per_row", float64(d)/float64(fact.n), "ns")

	grp, err := intSource([]string{"d3", "qty"}, fact.col("d3").ints, fact.col("qty").ints)
	if err != nil {
		return err
	}
	specs := []vector.AggSpec{{Kind: vector.AggCount}, {Kind: vector.AggSumInt, Col: 1}}
	d, err = bestOf(5, func() error {
		_, err := vector.ParallelGroupAgg(context.Background(), grp, []int{0}, specs, nil, 0, 0, 0)
		return err
	})
	if err != nil {
		return err
	}
	m.set("vector.group_agg_ns_per_row", float64(d)/float64(fact.n), "ns")
	return nil
}

// probeRadix times building the join table of dim2 and probing it with the
// fact table's foreign key.
func probeRadix(fact, dim2 *table, m metrics) error {
	build, err := intSource([]string{"k2", "reg"}, dim2.col("k2").ints, dim2.col("reg").ints)
	if err != nil {
		return err
	}
	probe, err := intSource([]string{"d2"}, fact.col("d2").ints)
	if err != nil {
		return err
	}
	var jb *vector.JoinBuild
	d, err := bestOf(5, func() error {
		var err error
		jb, err = vector.BuildJoinTable(vector.NewScan(build, 0), 0, []int{1}, false)
		return err
	})
	if err != nil {
		return err
	}
	m.set("radix.build_ns_per_key", float64(d)/float64(dim2.n), "ns")
	d, err = bestOf(5, func() error { _, err := vector.ParallelJoinCount(jb, probe, 0, 0, 0); return err })
	if err != nil {
		return err
	}
	m.set("radix.probe_ns_per_key", float64(d)/float64(fact.n), "ns")
	return nil
}

// probeWire times encoding and decoding one three-INT result row.
func probeWire(m metrics) error {
	const n = 20000
	row := wire.Row{Vals: []any{int64(123456), int64(617), int64(987654)}}
	var payload []byte
	t0 := time.Now()
	for i := 0; i < n; i++ {
		var err error
		if payload, err = row.Encode(); err != nil {
			return err
		}
	}
	m.set("wire.encode_row_ns", float64(time.Since(t0))/n, "ns")
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if _, err := wire.DecodePayload(wire.TRow, payload); err != nil {
			return err
		}
	}
	m.set("wire.decode_row_ns", float64(time.Since(t0))/n, "ns")
	return nil
}

// probeWALAppend is the sandbox's fsync floor: one writer appending
// single-row transactions with no group-commit window, each waited durable.
func probeWALAppend(dir string, m metrics) error {
	lg, _, err := wal.Open(wal.OSFS{}, filepath.Join(dir, "probe-wal.log"), wal.Params{})
	if err != nil {
		return err
	}
	op := &wal.OpInsert{Table: "ev", Types: []byte{wal.ColInt, wal.ColInt, wal.ColInt}, Rows: [][]any{{int64(1), int64(2), int64(3)}}}
	var lat []time.Duration
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		lsn, err := lg.AppendTx([]wal.Op{op})
		if err == nil {
			err = lg.WaitDurable(lsn)
		}
		if err != nil {
			return errors.Join(err, lg.Close())
		}
		lat = append(lat, time.Since(t0))
	}
	m.set("wal.append_us", us(p50(lat)), "us")
	return lg.Close()
}

// replayRecovered rebuilds, below the engine, the state a crashed server left:
// the checkpoint plus the replayed log, so that the rows written since the
// checkpoint are insert deltas as they were while serving. It returns the
// database and the log, which the caller closes.
func replayRecovered(dir string) (*sqlfe.DB, *wal.Log, error) {
	sdb, err := sqlfe.Load(dir)
	if err != nil {
		return nil, nil, err
	}
	watermark := sdb.AppliedLSN() // the checkpoint already holds these
	lg, txs, err := wal.Open(wal.OSFS{}, filepath.Join(dir, "wal.log"), wal.Params{BaseLSN: watermark})
	if err != nil {
		return nil, nil, err
	}
	for _, tx := range txs {
		if tx.CommitLSN <= watermark {
			continue
		}
		if err := sdb.ApplyTx(tx); err != nil {
			return nil, nil, errors.Join(err, lg.Close())
		}
	}
	return sdb, lg, nil
}

// memSpillFS is an in-memory filesystem for a handle's spill files (and its
// log, which goes through the same seam) and a count of the Sync calls made
// on it so far.
func memSpillFS() (engine.Option, func() int) {
	fs := wal.NewMemFS()
	return engine.WithWALFS(fs), fs.Syncs
}
