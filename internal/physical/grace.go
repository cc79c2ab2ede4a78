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
	"slices"

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

// partitionOp runs op (any chain — a leaf pipeline, a join chain's
// serial intermediate, a Pre expression projection) to completion,
// scattering its rows into 1<<bits spill partitions by the radix hash
// of the key column(s); the second result is the rows written to each
// partition.
// Partition files carry the chain columns cols, in that order: the
// ones the consumer reads, whose positions it takes from cols. A
// partition that receives no rows stays nil (no file is ever created
// for it). The bounded per-partition staging buffers are charged to the
// reservation for the duration of the pass — a budget too small even
// for those fails the query with the usual typed error.
func partitionOp(ctx context.Context, opts Options, op vector.Operator, cols, keyCols []int, bits int, label string) ([]*spill.File, []int64, error) {
	ncols := len(cols)
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
		return nil, nil, err
	}
	defer opts.Gov.Release(charge)

	writers := make([]*spill.Writer, nparts)
	files := make([]*spill.File, nparts)
	bufs := make([][]vector.Col, nparts)
	lens := make([]int, nparts)
	rows := make([]int64, nparts)

	if err := op.Open(); err != nil {
		return nil, nil, err
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
			return nil, nil, err
		}
		b, err := op.Next()
		if err != nil {
			return nil, nil, err
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
				buf := make([]vector.Col, ncols)
				for c, bc := range cols {
					buf[c].Kind = b.Cols[bc].Kind
				}
				bufs[pi] = buf
			}
			for c, bc := range cols {
				appendRowCell(&bufs[pi][c], &b.Cols[bc], i)
			}
			lens[pi]++
			rows[pi]++
			if lens[pi] >= stageRows {
				innerErr = flush(pi)
			}
		})
		if innerErr != nil {
			return nil, nil, innerErr
		}
	}
	for pi := range writers {
		if err := flush(pi); err != nil {
			return nil, nil, err
		}
		if writers[pi] == nil {
			continue
		}
		f, err := writers[pi].Finish()
		if err != nil {
			return nil, nil, err
		}
		files[pi] = f
	}
	return files, rows, nil
}

// --- grace-hash grouped aggregation ---

// graceGrouped is the out-of-core re-plan of a grouping: run the
// producing chain once (mk constructs it fresh), partition the columns
// the aggregation reads by group-key hash, hand back what the chain
// held (release), then aggregate each partition alone with the ordinary
// in-memory Agg, its first table sized from the partition's rows, and
// append its shaped groups to one spill file. The partitions hold
// disjoint key sets, so the file is the whole result, and the
// aggregation is over before anything above it runs: a sort over the
// groups never shares the grant with a partition's grouping table, and
// at most one such table is live (and charged) at a time. stat, when
// set, restarts its counts for this run.
func graceGrouped(ctx context.Context, opts Options, mk func() vector.Operator, release func(), estRows int, ax *aggExec, stat *GroupStat) (vector.Operator, error) {
	// The partitions carry the accumulators' arguments and the keys;
	// both index them from here on.
	var read []int
	for _, sp := range ax.specs {
		if sp.Col >= 0 {
			read = append(read, sp.Col)
		}
	}
	cols, at := columnsRead(append(read, ax.keyIdx...))
	pSpecs := slices.Clone(ax.specs)
	for i := range pSpecs {
		if pSpecs[i].Col >= 0 {
			pSpecs[i].Col, at = at[0], at[1:]
		}
	}
	pKeys := at
	// Worst-case grouping state scales with the input rows (every row
	// its own group): 8 bytes a cell plus table overhead per row.
	stateBytes := int64(estRows) * int64(8*len(cols)+16)
	bits := graceBits(stateBytes, graceHeadroom(opts.Gov))
	parts, rows, err := partitionOp(ctx, opts, mk(), cols, ax.keyIdx, bits, "grp")
	if err != nil {
		return nil, err
	}
	release() // the partitions hold the stream now: its join tables are dead
	var agst *vector.AggStats
	if stat != nil {
		stat.Layout, stat.Groups = "hash", 0
		stat.RowsIn.Store(0)
		stat.Partials.Store(0)
		stat.Converted.Store(0)
		agst = &stat.AggStats
	}
	w, err := opts.Spill.Create("groups")
	if err != nil {
		return nil, err
	}
	for pi, f := range parts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if f == nil {
			continue
		}
		merged, err := drainOne(&vector.Agg{Child: &spillScanOp{f: f}, Keys: pKeys, Aggs: pSpecs, Res: opts.Gov, Groups: int(rows[pi]), Stats: agst})
		if err != nil {
			return nil, err
		}
		if stat != nil {
			stat.Groups += merged.N
			stat.Partitions++
		}
		if merged.N > 0 {
			if err := w.WriteBatch(&vector.Batch{N: merged.N, Cols: ax.shape(merged)}); err != nil {
				return nil, err
			}
		}
	}
	f, err := w.Finish()
	if err != nil {
		return nil, err
	}
	return &spillScanOp{f: f}, nil
}

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
	payload, keep      []int // the build columns and the probe columns the join carries
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
			if err == nil {
				err = jb.Index()
			}
			if err != nil {
				return nil, err
			}
			probe := &vector.HashJoinOp{Probe: &spillScanOp{f: pf}, ProbeKey: o.probeKey, Shared: jb, Keep: o.keep}
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
