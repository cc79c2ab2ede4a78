package physical

// Out-of-core degradation for the memory-hungry operators. When a
// governed query's grouping table or join build outgrows its
// memgov.Reservation and the policy allows spilling, the physical layer
// RE-PLANS mid-query to the classic grace-hash shape: one serial
// partition pass runs the producing chain (a leaf pipeline, or a join
// chain's intermediate stream) and scatters its rows into 1<<bits spill
// files by the radix hash of the key column(s), then each partition —
// now a budget-sized fraction of the input holding a disjoint key range
// — is processed with the ordinary in-memory operator. Sort needs no
// re-plan: vector.SortRun spills its sorted runs incrementally and
// vector.MergeRuns streams them back, so this file only supplies the
// adapters wiring the spill package's concrete files into the vector
// layer's interfaces.

import (
	"context"
	"fmt"

	"repro/internal/memgov"
	"repro/internal/radix"
	"repro/internal/spill"
	"repro/internal/vector"
)

// --- spill-package adapters ---

// sink returns the SpillSink handed to sort runs, or nil when this
// query cannot spill (no scope, or the reject policy).
func (o Options) sink() vector.SpillSink {
	if !o.canSpill() {
		return nil
	}
	sc := o.Spill
	return func(label string) (vector.SpillWriter, error) {
		w, err := sc.Create(label)
		if err != nil {
			return nil, err
		}
		return sinkWriter{w}, nil
	}
}

type sinkWriter struct{ w *spill.Writer }

func (s sinkWriter) WriteBatch(b *vector.Batch) error { return s.w.WriteBatch(b) }

func (s sinkWriter) Finish() (vector.SpillRun, error) {
	f, err := s.w.Finish()
	if err != nil {
		return nil, err
	}
	return sinkRun{f}, nil
}

type sinkRun struct{ f *spill.File }

func (s sinkRun) Open() (vector.SpillReader, error) {
	rd, err := s.f.Open()
	if err != nil {
		return nil, err
	}
	return rd, nil
}

// spillScanOp replays one spill partition file as an Operator.
type spillScanOp struct {
	f  *spill.File
	rd *spill.Reader
}

func (o *spillScanOp) Open() error {
	rd, err := o.f.Open()
	if err != nil {
		return err
	}
	o.rd = rd
	return nil
}

func (o *spillScanOp) Next() (*vector.Batch, error) { return o.rd.Next() }

func (o *spillScanOp) Close() error {
	if o.rd == nil {
		return nil
	}
	err := o.rd.Close()
	o.rd = nil
	return err
}

// --- the partition pass ---

// graceHeadroom is the budget the partition fan-out should target: what
// the governor has LEFT, not its full limit — in a deep join tree an
// already-built in-memory join table keeps its charge while the
// degraded step's partition pairs are consumed next to it. Floored at
// an eighth of the limit so pathological residues don't explode the
// fan-out.
func graceHeadroom(gov *memgov.Reservation) int64 {
	head := gov.Limit() - gov.Used()
	if min := gov.Limit() / 8; head < min {
		head = min
	}
	return head
}

// graceBits picks the partition fan-out: enough partitions that each
// holds a small fraction of the budget — headroom for hash skew and for
// the operator state living NEXT to the partition being consumed —
// clamped to [2, 256] partitions. totalBytes is the caller's estimate
// of the MATERIALIZED operator state (table overhead included), not the
// raw input bytes.
func graceBits(totalBytes, limit int64) int {
	target := limit / 6
	if target < 32<<10 {
		target = 32 << 10
	}
	bits := 1
	for bits < 8 && totalBytes>>uint(bits) > target {
		bits++
	}
	return bits
}

// hashRow hashes row i's key column(s) for partition routing with the
// grouping table's own tuple-hash recipe (radix.Hash, then one
// radix.HashFold per extra key word). The same function runs over both
// join sides, so equal keys always land in the partition pair with the
// same index.
func hashRow(b *vector.Batch, keyCols []int, i int32) uint64 {
	h := radix.Hash(b.Cols[keyCols[0]].Ints[i])
	for _, kc := range keyCols[1:] {
		h = radix.HashFold(h, b.Cols[kc].Ints[i])
	}
	return h
}

func appendRowCell(dst, src *vector.Col, i int32) {
	switch src.Kind {
	case vector.KindInt:
		dst.Ints = append(dst.Ints, src.Ints[i])
	case vector.KindFloat:
		dst.Floats = append(dst.Floats, src.Floats[i])
	case vector.KindBool:
		dst.Bools = append(dst.Bools, src.Bools[i])
	}
}

// partitionOp runs op (any ncols-wide chain — a leaf pipeline, a join
// chain's serial intermediate, a Pre expression projection) to
// completion, scattering its rows into 1<<bits spill partitions by the
// radix hash of the key column(s); the second result is the total rows
// written. Partition files carry every chain column in chain order, so
// downstream key/accumulator positions stay valid unchanged; a
// partition that receives no rows stays nil (no file is ever created
// for it). The bounded per-partition staging buffers are charged to the
// reservation for the duration of the pass — a budget too small even
// for those fails the query with the usual typed error.
func partitionOp(ctx context.Context, opts Options, op vector.Operator, ncols int, keyCols []int, bits int, label string) ([]*spill.File, int64, error) {
	nparts := 1 << bits
	// Stage enough rows per partition to amortize the chunk header, but
	// never let the staging total eat more than half the budget.
	stageRows := 256
	if limit := opts.Gov.Limit(); limit > 0 {
		if most := int(limit / (2 * int64(nparts) * int64(8*ncols))); most < stageRows {
			stageRows = most
		}
		if stageRows < 64 {
			stageRows = 64
		}
	}
	charge := int64(nparts) * int64(stageRows) * int64(8*ncols)
	if err := opts.Gov.Acquire(charge); err != nil {
		return nil, 0, err
	}
	defer opts.Gov.Release(charge)

	writers := make([]*spill.Writer, nparts)
	files := make([]*spill.File, nparts)
	bufs := make([][]vector.Col, nparts)
	lens := make([]int, nparts)
	var rows int64

	if err := op.Open(); err != nil {
		return nil, 0, err
	}
	defer op.Close()

	flush := func(pi int) error {
		if lens[pi] == 0 {
			return nil
		}
		if writers[pi] == nil {
			w, err := opts.Spill.Create(fmt.Sprintf("%s%d", label, pi))
			if err != nil {
				return err
			}
			writers[pi] = w
		}
		if err := writers[pi].WriteBatch(&vector.Batch{N: lens[pi], Cols: bufs[pi]}); err != nil {
			return err
		}
		for c := range bufs[pi] {
			bufs[pi][c].Ints = bufs[pi][c].Ints[:0]
			bufs[pi][c].Floats = bufs[pi][c].Floats[:0]
			bufs[pi][c].Bools = bufs[pi][c].Bools[:0]
		}
		lens[pi] = 0
		return nil
	}

	for {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		b, err := op.Next()
		if err != nil {
			return nil, 0, err
		}
		if b == nil {
			break
		}
		var innerErr error
		b.ForEach(func(i int32) {
			if innerErr != nil {
				return
			}
			pi := radix.PartitionOf(hashRow(b, keyCols, i), bits)
			if bufs[pi] == nil {
				cols := make([]vector.Col, ncols)
				for c := range cols {
					cols[c].Kind = b.Cols[c].Kind
				}
				bufs[pi] = cols
			}
			for c := 0; c < ncols; c++ {
				appendRowCell(&bufs[pi][c], &b.Cols[c], i)
			}
			lens[pi]++
			rows++
			if lens[pi] >= stageRows {
				innerErr = flush(pi)
			}
		})
		if innerErr != nil {
			return nil, 0, innerErr
		}
	}
	for pi := range writers {
		if err := flush(pi); err != nil {
			return nil, 0, err
		}
		if writers[pi] == nil {
			continue
		}
		f, err := writers[pi].Finish()
		if err != nil {
			return nil, 0, err
		}
		files[pi] = f
	}
	return files, rows, nil
}

// --- grace-hash grouped aggregation ---

// graceGrouped is the out-of-core re-plan of execGrouped: run the
// producing chain once (mk constructs it fresh), partition its output
// by group-key hash, then aggregate each partition independently with
// the ordinary in-memory Agg — the partitions hold disjoint key sets,
// so their shaped outputs concatenate into the full result. With a
// grouped ORDER BY the partition results are collected and sorted as
// one batch (an ordered result materializes either way).
func (p *Plan) graceGrouped(ctx context.Context, opts Options, mk func() vector.Operator, ncols, estRows int, keyIdx []int, g *GroupAggNode, specs []vector.AggSpec) (*Result, error) {
	// Worst-case grouping state scales with the input rows (every row
	// its own group): 8 bytes a cell plus table overhead per row.
	stateBytes := int64(estRows) * int64(8*ncols+16)
	bits := graceBits(stateBytes, graceHeadroom(opts.Gov))
	parts, _, err := partitionOp(ctx, opts, mk(), ncols, keyIdx, bits, "grp")
	if err != nil {
		return nil, err
	}
	op := &graceGroupOp{ctx: ctx, parts: parts, g: g, keys: keyIdx, specs: specs, res: opts.Gov}
	if g.OrderBy < 0 {
		if err := op.Open(); err != nil {
			return nil, err
		}
		return &Result{Op: op, Limit: p.Limit}, nil
	}
	op.raw = true
	merged, err := collectMerged(op, len(keyIdx), specs)
	if err != nil {
		return nil, err
	}
	return p.finishGrouped(merged, g, opts.Stats)
}

// collectMerged drains a raw-mode graceGroupOp, concatenating the
// per-partition [keys..., accs...] batches into one.
func collectMerged(op *graceGroupOp, nk int, specs []vector.AggSpec) (*vector.Batch, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out *vector.Batch
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if out == nil {
			// Copy: the next partition's batch reuses the operator's state.
			cols := make([]vector.Col, len(b.Cols))
			for i := range b.Cols {
				cols[i].Kind = b.Cols[i].Kind
				cols[i].Ints = append([]int64{}, b.Cols[i].Ints...)
				cols[i].Floats = append([]float64{}, b.Cols[i].Floats...)
			}
			out = &vector.Batch{N: b.N, Cols: cols}
			continue
		}
		for i := range b.Cols {
			out.Cols[i].Ints = append(out.Cols[i].Ints, b.Cols[i].Ints...)
			out.Cols[i].Floats = append(out.Cols[i].Floats, b.Cols[i].Floats...)
		}
		out.N += b.N
	}
	if out == nil {
		// Every partition was empty: an empty grouped result with the
		// merged layout's kinds.
		cols := make([]vector.Col, 0, nk+len(specs))
		for i := 0; i < nk; i++ {
			cols = append(cols, vector.Col{Kind: vector.KindInt, Ints: []int64{}})
		}
		for _, s := range specs {
			if s.Kind.Float() {
				cols = append(cols, vector.Col{Kind: vector.KindFloat, Floats: []float64{}})
			} else {
				cols = append(cols, vector.Col{Kind: vector.KindInt, Ints: []int64{}})
			}
		}
		out = &vector.Batch{N: 0, Cols: cols}
	}
	return out, nil
}

// graceGroupOp streams one batch per non-empty partition — shaped
// select-list columns normally, the raw merged [keys..., accs...]
// layout in raw mode. At most one partition's grouping state is live
// (and charged) at a time.
type graceGroupOp struct {
	ctx   context.Context
	parts []*spill.File
	g     *GroupAggNode
	keys  []int // key positions in the partition files' chain layout
	specs []vector.AggSpec
	res   *memgov.Reservation
	raw   bool

	pi  int
	out vector.Batch
}

func (o *graceGroupOp) Open() error { o.pi = 0; return nil }

func (o *graceGroupOp) Next() (*vector.Batch, error) {
	for o.pi < len(o.parts) {
		if err := o.ctx.Err(); err != nil {
			return nil, err
		}
		f := o.parts[o.pi]
		o.pi++
		if f == nil {
			continue
		}
		agg := &vector.Agg{Child: &spillScanOp{f: f}, Keys: o.keys, Aggs: o.specs, Res: o.res}
		if err := agg.Open(); err != nil {
			return nil, err
		}
		merged, err := agg.Next()
		if cerr := agg.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		if merged == nil || merged.N == 0 {
			continue
		}
		if o.raw {
			o.out = *merged
		} else {
			o.out = vector.Batch{N: merged.N, Cols: shapeGrouped(merged, o.g)}
		}
		return &o.out, nil
	}
	return nil, nil
}

func (o *graceGroupOp) Close() error { return nil }

// --- grace-hash join (one degraded step of a join chain) ---

// graceJoinOp joins partition pairs one at a time: the probe side's
// partitions hold the chain's intermediate stream, the build side's one
// leaf's qualifying rows, both scattered by the same key hash so
// matching keys share a partition index. At most one partition's build
// table is live (and charged) at a time; each is released as soon as
// its probe side is drained. The operator is REPLAYABLE — Open resets
// to the first partition and the spill files persist — which is what
// lets a downstream grace re-plan re-run the whole serial chain.
type graceJoinOp struct {
	ctx                context.Context
	bParts, pParts     []*spill.File
	buildKey, probeKey int
	payload            []int
	exprs              []vector.Expr
	res                *memgov.Reservation

	pi  int
	cur vector.Operator // open probe pipeline of the current partition
	jb  *vector.JoinBuild
}

func (o *graceJoinOp) Open() error { o.pi = 0; return nil }

func (o *graceJoinOp) Next() (*vector.Batch, error) {
	for {
		if o.cur == nil {
			if err := o.ctx.Err(); err != nil {
				return nil, err
			}
			if o.pi >= len(o.bParts) {
				return nil, nil
			}
			bf, pf := o.bParts[o.pi], o.pParts[o.pi]
			o.pi++
			if bf == nil || pf == nil {
				continue // one side empty: the inner join emits nothing
			}
			// If even one partition's build exceeds the budget the query
			// fails with the typed over-budget error — the fan-out was
			// sized for the estimate, not a guarantee against skew.
			jb, err := vector.BuildJoinTableGov(&spillScanOp{f: bf}, o.buildKey, o.payload, o.res)
			if err != nil {
				return nil, err
			}
			var probe vector.Operator = &spillScanOp{f: pf}
			probe = &vector.HashJoinOp{Probe: probe, ProbeKey: o.probeKey, Shared: jb}
			probe = &vector.Project{Child: probe, Exprs: o.exprs}
			if err := probe.Open(); err != nil {
				jb.ReleaseMem()
				return nil, err
			}
			o.jb, o.cur = jb, probe
		}
		b, err := o.cur.Next()
		if err != nil {
			o.closePartition()
			return nil, err
		}
		if b != nil {
			return b, nil
		}
		if err := o.closePartition(); err != nil {
			return nil, err
		}
	}
}

func (o *graceJoinOp) closePartition() error {
	var err error
	if o.cur != nil {
		err = o.cur.Close()
		o.cur = nil
	}
	if o.jb != nil {
		o.jb.ReleaseMem()
		o.jb = nil
	}
	return err
}

func (o *graceJoinOp) Close() error { return o.closePartition() }
