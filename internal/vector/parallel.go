package vector

// Morsel-driven parallelism for the vectorized engine: a Source is cut
// into row ranges ("morsels"), sized so each worker gets several, and
// handed out by an atomic cursor; each worker runs its own copy of the
// per-batch pipeline (filters, projections, join probes against a
// shared read-only JoinBuild, partial aggregates) over the morsels it
// claims, and an
// Exchange operator funnels the workers' output batches back into the
// single-threaded consumer. This is the NUMA-oblivious core of
// morsel-driven scheduling grafted onto X100-style pipelines: the
// degree of parallelism is fixed at Open, but work distribution is
// dynamic, so skewed morsels do not stall the other workers.
//
// Aggregation parallelizes by re-aggregation: each worker's pipeline
// ends in its own Agg (partial sums/counts over the morsels it saw) and
// the consumer runs a final Agg over the Exchange that sums the partial
// columns. Sums of sums and sums of counts are exact; AggCount at the
// top level would count partial rows and is the caller's mistake.

import (
	"context"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bat"
)

// DefaultMorselSize is the morsel length ceiling in rows, and with it
// the cancellation bound: an Exchange derives its morsel size from the
// rows it will scan and its workers (morselSize) and never exceeds this.
// A cursor given no size, which a serial Scan's is, uses it outright.
const DefaultMorselSize = 1 << 16

// minMorselSize is the derived morsel size's floor: a table of at most
// this many rows is one morsel on one worker, so a query that takes
// tens of microseconds never pays to start a second.
const minMorselSize = 4096

// morselSize derives an Exchange's morsel length from the rows its scan
// visits (after zone pruning) and its worker count: about four morsels
// per worker, rounded up to whole 1024-row zones so pruned ranges are
// not cut into slivers, inside [minMorselSize, DefaultMorselSize].
func morselSize(rows, workers int) int {
	const zone = 1024
	size := (rows/(4*workers) + zone - 1) / zone * zone
	return min(max(size, minMorselSize), DefaultMorselSize)
}

// MorselCursor hands out disjoint [lo,hi) row ranges of a Source to any
// number of concurrent claimants. An optional context cancels it: a
// canceled cursor stops handing out morsels, so every worker winds down
// at its next morsel boundary — in-flight morsels finish, new ones are
// never started. This bounds cancellation latency to one morsel's worth
// of work without any per-tuple (or even per-vector) check in the hot
// loops.
type MorselCursor struct {
	src  *Source
	size int
	ctx  context.Context // nil = never canceled
	pos  atomic.Int64
}

// NewMorselCursor returns a cursor over src with the given morsel size
// (DefaultMorselSize if <= 0).
func NewMorselCursor(src *Source, morselSize int) *MorselCursor {
	if morselSize <= 0 {
		morselSize = DefaultMorselSize
	}
	return &MorselCursor{src: src, size: morselSize}
}

// claim returns the next unclaimed morsel, or ok=false at end of input
// or after cancellation. A morsel never leaves the source's scan ranges
// (Source.Restrict): it is cut inside the first range that still has
// unclaimed rows, and the rows between ranges are never handed out.
func (m *MorselCursor) claim() (lo, hi int, ok bool) {
	if m.ctx != nil && m.ctx.Err() != nil {
		return 0, 0, false
	}
	rs := m.src.ranges
	for {
		cur := int(m.pos.Load())
		i := sort.Search(len(rs), func(i int) bool { return rs[i].Hi > cur })
		if i == len(rs) {
			return 0, 0, false
		}
		lo = max(cur, rs[i].Lo)
		hi = min(lo+m.size, rs[i].Hi)
		if m.pos.CompareAndSwap(int64(cur), int64(hi)) {
			return lo, hi, true
		}
	}
}

// morsels is the number of claims a fresh cursor hands out.
func (m *MorselCursor) morsels() int {
	n := 0
	for _, r := range m.src.ranges {
		n += (r.Hi - r.Lo + m.size - 1) / m.size
	}
	return n
}

// MorselScan is the scan every pipeline reads through (one per worker
// under an Exchange; Scan wraps one that has its cursor to itself): an
// Operator that claims morsels from a cursor and emits zero-copy
// vectors of at most Size rows from within each. A source's tombstoned
// positions are left out of the batch's selection vector (nil when the
// batch holds none), and a batch they fill entirely is skipped. With
// RowIDs set, each batch carries one extra trailing KindInt column of
// GLOBAL source row positions — the stable tiebreak the parallel Sort
// needs to reproduce a serial stable sort's order.
type MorselScan struct {
	Cur    *MorselCursor
	Size   int // vector size (DefaultSize if <= 0)
	RowIDs bool

	pos, hi int
	b       Batch
	cols    []Col // b.Cols, re-pointed at each batch's rows
	rowids  []int64
	sel     []int32
}

// Open implements Operator.
func (s *MorselScan) Open() error {
	if s.Size <= 0 {
		s.Size = DefaultSize
	}
	s.pos, s.hi = 0, 0
	return nil
}

// Next implements Operator.
func (s *MorselScan) Next() (*Batch, error) {
	src := s.Cur.src
	var end int
	var sel []int32
	for {
		if s.pos >= s.hi {
			lo, hi, ok := s.Cur.claim()
			if !ok {
				return nil, nil
			}
			s.pos, s.hi = lo, hi
		}
		end = min(s.pos+s.Size, s.hi)
		if sel = s.live(src.deleted, end); sel == nil || len(sel) > 0 {
			break
		}
		s.pos = end // every row of this vector is tombstoned
	}
	n := len(src.Cols)
	if s.RowIDs {
		n++
	}
	if len(s.cols) != n {
		s.cols = make([]Col, n)
	}
	cols := s.cols
	for i := range src.Cols {
		c := &src.Cols[i]
		cols[i] = Col{Kind: c.Kind}
		switch c.Kind {
		case KindInt:
			cols[i].Ints = c.Ints[s.pos:end]
		case KindFloat:
			cols[i].Floats = c.Floats[s.pos:end]
		case KindBool:
			cols[i].Bools = c.Bools[s.pos:end]
		}
	}
	if s.RowIDs {
		if cap(s.rowids) < end-s.pos {
			s.rowids = make([]int64, s.Size)
		}
		ids := s.rowids[:end-s.pos]
		for i := range ids {
			ids[i] = int64(s.pos + i)
		}
		cols[n-1] = Col{Kind: KindInt, Ints: ids}
	}
	s.b = Batch{N: end - s.pos, Sel: sel, Cols: cols}
	s.pos = end
	return &s.b, nil
}

// live returns the selection vector of the rows [s.pos,end) that are
// not tombstoned, or nil when none is.
func (s *MorselScan) live(deleted []bat.OID, end int) []int32 {
	d, _ := slices.BinarySearch(deleted, bat.OID(s.pos))
	if d == len(deleted) || deleted[d] >= bat.OID(end) {
		return nil
	}
	if s.sel == nil {
		s.sel = make([]int32, 0, s.Size) // non-nil: empty means every row is tombstoned
	}
	sel := s.sel[:0]
	for r := s.pos; r < end; r++ {
		if d < len(deleted) && deleted[d] == bat.OID(r) {
			d++
			continue
		}
		sel = append(sel, int32(r-s.pos))
	}
	s.sel = sel
	return sel
}

// Close implements Operator.
func (s *MorselScan) Close() error { return nil }

// Exchange is the parallelizing operator: it runs up to Workers copies
// of the pipeline fragment built by Plan (never more than there are
// morsels to claim) — each on its own MorselScan over Source — and
// funnels their output batches to the caller. Batches are
// deep-copied before crossing the channel (workers recycle their
// buffers batch-to-batch), so downstream operators own what Next
// returns.
type Exchange struct {
	Source     *Source
	Workers    int // <= 0 means runtime.GOMAXPROCS(0)
	MorselSize int // <= 0 means derived from Source.ScanRows and Workers
	VectorSize int // <= 0 means DefaultSize
	// Plan builds one worker's pipeline fragment on top of its scan. It
	// is called once per started worker and must not share mutable
	// state between the fragments it returns.
	Plan func(scan Operator) Operator
	// Ctx, when non-nil, cancels the exchange: workers observe it at
	// morsel boundaries (see MorselCursor) and Next reports ctx.Err()
	// once the workers have wound down.
	Ctx context.Context
	// RowIDs makes every worker's MorselScan append a trailing column of
	// global source row positions (see MorselScan.RowIDs).
	RowIDs bool

	ch      chan *Batch
	errs    chan error
	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
}

// Open implements Operator: spawns the workers.
func (e *Exchange) Open() error {
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	size := e.MorselSize
	if size <= 0 {
		size = morselSize(e.Source.ScanRows(), workers)
	}
	cursor := NewMorselCursor(e.Source, size)
	cursor.ctx = e.Ctx
	// A worker without a morsel to claim would open a pipeline for
	// nothing; one always runs, so an empty input still yields the
	// fragment's end-of-stream output (an aggregate's identity row).
	workers = max(1, min(workers, cursor.morsels()))
	e.ch = make(chan *Batch, workers)
	e.errs = make(chan error, workers)
	e.stop = make(chan struct{})
	e.stopped = sync.Once{}
	for w := 0; w < workers; w++ {
		e.wg.Add(1)
		go e.worker(cursor)
	}
	go func() {
		e.wg.Wait()
		close(e.ch)
	}()
	return nil
}

func (e *Exchange) worker(cursor *MorselCursor) {
	defer e.wg.Done()
	op := e.Plan(&MorselScan{Cur: cursor, Size: e.VectorSize, RowIDs: e.RowIDs})
	if err := op.Open(); err != nil {
		e.errs <- err
		return
	}
	defer op.Close()
	for {
		b, err := op.Next()
		if err != nil {
			e.errs <- err
			return
		}
		if b == nil {
			// End of stream — or a canceled cursor that stopped handing
			// out morsels. Report the cancellation so the consumer can
			// distinguish a complete result from an aborted one.
			if e.Ctx != nil && e.Ctx.Err() != nil {
				e.errs <- e.Ctx.Err()
			}
			return
		}
		select {
		case e.ch <- cloneBatch(b):
		case <-e.stop:
			return
		}
	}
}

// Next implements Operator: returns the next worker batch, or the first
// worker error once all workers have exited.
func (e *Exchange) Next() (*Batch, error) {
	b, ok := <-e.ch
	if !ok {
		select {
		case err := <-e.errs:
			return nil, err
		default:
			return nil, nil
		}
	}
	return b, nil
}

// Close implements Operator: stops and joins the workers. It is
// idempotent, and a no-op when Open was never called (e.ch is then nil:
// closing the nil e.stop would panic and ranging over a nil channel
// would block forever).
func (e *Exchange) Close() error {
	if e.ch == nil {
		return nil
	}
	e.stopped.Do(func() { close(e.stop) })
	for range e.ch { // drain until the closer goroutine closes it
	}
	select {
	case err := <-e.errs:
		return err
	default:
		return nil
	}
}

// --- canned morsel-parallel plans (benchmarks, experiments, tests) ---

// Q6Preds are the TPC-H Q6 predicates over columns (qty, price, disc).
func q6WorkerPlan(scan Operator) Operator {
	return &Agg{
		Child: &Project{
			Child: &Filter{Child: scan, Preds: []Pred{
				{ColIdx: 0, Op: PredLt, IntVal: 24},
				{ColIdx: 2, Op: PredGeF, FltVal: 0.05},
				{ColIdx: 2, Op: PredLeF, FltVal: 0.07}}},
			Exprs: []Expr{Bin{Op: EMulFloat, L: ColRef{1}, R: Bin{Op: ESubConstFloat, FltConst: 1, L: ColRef{2}}}},
		},
		Aggs: []AggSpec{{Kind: AggSumFloat, Col: 0}}}
}

// ParallelQ6 is the morsel-parallel TPC-H Q6 plan over a (qty, price,
// disc) source: per-worker filter+project+partial-sum fragments under an
// Exchange, re-aggregated by a final sum. Used by experiment E15 and the
// benchmark's kernel probes. A workers or morselSize of 0 takes the
// Exchange defaults (GOMAXPROCS workers, derived morsels).
func ParallelQ6(src *Source, workers, morselSize int) (float64, error) {
	final := &Agg{
		//lint:ignore ctxmorsel canned benchmark/experiment plan over an in-memory source; bounded work with no cancellation surface
		Child: &Exchange{Source: src, Workers: workers, MorselSize: morselSize, Plan: q6WorkerPlan},
		Aggs:  []AggSpec{{Kind: AggSumFloat, Col: 0}},
	}
	rows, err := Drain(final)
	if err != nil {
		return 0, err
	}
	return rows[0][0].(float64), nil
}

// ParallelJoinCount probes a shared read-only JoinBuild from `workers`
// morsel-parallel pipelines and returns the total number of matches:
// each worker counts its own matches, the final Agg sums the counts.
// Zero workers or morselSize take the Exchange defaults.
func ParallelJoinCount(jb *JoinBuild, probe *Source, probeKey, workers, morselSize int) (int64, error) {
	plan := func(scan Operator) Operator {
		return &Agg{
			Child: &HashJoinOp{Probe: scan, ProbeKey: probeKey, Shared: jb},
			Aggs:  []AggSpec{{Kind: AggCount}},
		}
	}
	final := &Agg{
		//lint:ignore ctxmorsel canned benchmark/experiment plan over an in-memory source; bounded work with no cancellation surface
		Child: &Exchange{Source: probe, Workers: workers, MorselSize: morselSize, Plan: plan},
		Aggs:  []AggSpec{{Kind: AggSumInt, Col: 0}},
	}
	rows, err := Drain(final)
	if err != nil {
		return 0, err
	}
	return rows[0][0].(int64), nil
}

// cloneBatch deep-copies a batch so it survives the producing worker's
// buffer recycling. Batches with a selection vector are compacted to
// just the qualifying rows, so the bytes crossing the exchange are
// proportional to the fragment's output, not its input.
func cloneBatch(b *Batch) *Batch {
	if b.Sel == nil {
		nb := &Batch{N: b.N, Cols: make([]Col, len(b.Cols))}
		for i := range b.Cols {
			c := &b.Cols[i]
			nb.Cols[i] = Col{Kind: c.Kind}
			switch c.Kind {
			case KindInt:
				nb.Cols[i].Ints = append([]int64(nil), c.Ints...)
			case KindFloat:
				nb.Cols[i].Floats = append([]float64(nil), c.Floats...)
			case KindBool:
				nb.Cols[i].Bools = append([]bool(nil), c.Bools...)
			}
		}
		return nb
	}
	n := len(b.Sel)
	nb := &Batch{N: n, Cols: make([]Col, len(b.Cols))}
	for i := range b.Cols {
		c := &b.Cols[i]
		nb.Cols[i] = Col{Kind: c.Kind}
		switch c.Kind {
		case KindInt:
			out := make([]int64, n)
			for k, idx := range b.Sel {
				out[k] = c.Ints[idx]
			}
			nb.Cols[i].Ints = out
		case KindFloat:
			out := make([]float64, n)
			for k, idx := range b.Sel {
				out[k] = c.Floats[idx]
			}
			nb.Cols[i].Floats = out
		case KindBool:
			out := make([]bool, n)
			for k, idx := range b.Sel {
				out[k] = c.Bools[idx]
			}
			nb.Cols[i].Bools = out
		}
	}
	return nb
}
