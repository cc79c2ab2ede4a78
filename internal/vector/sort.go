package vector

// ORDER BY for the vectorized engine, in two composable operators:
//
//   - SortRun is the per-worker fragment tail: it drains its child (the
//     morsels this worker claimed, post-filter), materializes the
//     qualifying rows, and emits them as ONE sorted run. Workers sort
//     disjoint cache-resident-ish slices in parallel — the expensive
//     O(n log n) comparisons parallelize, and each run is produced with
//     zero coordination.
//
//   - MergeRuns sits on the consumer side of the Exchange: it collects
//     the workers' runs and k-way merges them through a binary heap,
//     emitting vector-sized batches. k equals the worker count, so the
//     merge is a cheap sequential pass.
//
// Total order is DETERMINISTIC and matches the MAL interpreter's sort
// exactly: ties break on a global row id (the trailing column a
// RowIDs-enabled MorselScan emits), so ascending order equals a stable
// sort by key over the original row order, and descending order is its
// exact reverse — the same contract batalg.Sort/SortDesc implement. Nil
// keys (bat.NilInt for ints, NaN for floats) sort FIRST ascending and
// therefore last descending.
//
// Both operators order rows through ONE kernel: every row becomes a
// sortEnt whose uint64 key orders, unsigned, exactly like the key cell
// (complemented for DESC together with the row id, which reverses the
// whole order), so runs sort as a flat typed slice and the merge heap
// compares two words before it ever touches a column.
//
// LIMIT makes the sort a SELECTION: a run never holds more than twice
// Limit rows (plus one vector). A full buffer is sorted and cut back to
// Limit, and the key of the last row kept becomes the CUTOFF — every
// later batch first passes a tight loop over the key column alone, and
// only rows at or before the cutoff (non-strict: ties still reach the
// full comparator) are copied at all. The workers of one Exchange
// share the best cutoff through their RunSet, so a late worker prunes
// from its first batch; the merge stops once Limit rows are out.
//
// EXTERNAL sort rides the same two operators: a SortRun given a memory
// Reservation charges each buffered batch against it, and when a grant
// is denied under the Spill policy it sorts what it holds, writes it to
// a spill file (sorted and Limit-truncated, so the on-disk run obeys
// the same invariants as an in-memory one), releases the memory, and
// keeps draining. MergeRuns then merges in-memory runs and streaming
// readers over the spilled ones through the one k-way heap — the
// textbook run-and-merge external sort, degraded to incrementally from
// the in-memory plan. A LIMITed run first cuts its buffer back to Limit
// rows when a grant is denied and spills only if even those do not fit.

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/bat"
	"repro/internal/memgov"
)

// SortRun drains Child and emits its rows as one sorted batch (a "run").
// Key and RowID index Child's output columns; RowID is the global-row-id
// tiebreak column (use Exchange.RowIDs to produce it) and may be -1, in
// which case rows tie-break on arrival order. Limit >= 0 bounds the run
// to the first Limit rows of its order.
//
// Ties, when non-empty, lists VALUE tiebreak columns compared (in
// order, nil-first like the key) between the key and the row id. Join
// results need them: both executors of one query sort the join output
// by (key, every output column) — a canonical lexicographic order that
// does not depend on the nondeterministic order either engine produced
// the matches in. Desc reverses the ENTIRE comparator, ties included;
// rows equal on key and all tie columns are identical rows, so the
// order within such a run is immaterial.
//
// With Res set, every buffered batch is charged to the reservation.
// When a charge is denied, the batch is folded in UNCHARGED — progress
// never waits on a sibling worker's release — and the buffer must
// shrink: a LIMITed run is cut back to Limit rows, and if that is not
// enough (or there is no Limit) and Res.CanSpill() with Spill/Runs
// wired, the buffer is sorted and spilled as one run (registered in
// Runs for MergeRuns to pick up) and buffering starts over. Without
// spill wiring the query fails with memgov.ErrExceeded.
type SortRun struct {
	Child Operator
	Key   int
	RowID int   // tiebreak column; -1 = none
	Ties  []int // value tiebreak columns, compared before RowID
	Desc  bool
	Limit int // -1 = unlimited

	Res   *memgov.Reservation // nil = ungoverned
	Spill SpillSink           // nil = spilling unavailable
	Runs  *RunSet             // what the sort's workers and its merge share
	Size  int                 // spill chunk rows (DefaultSize if <= 0)

	ord        sortOrder
	set        *RunSet // Runs, or a private set for a lone run
	buf, spare []Col   // buffered rows; the gather target of the next reorder
	n          int
	ents       []sortEnt
	sel        []int32
	out        Batch
	done       bool
	charged    int64
}

// Open implements Operator.
func (s *SortRun) Open() error {
	s.done = false
	s.buf, s.spare, s.n = nil, nil, 0
	s.sel = []int32{} // never nil: as a selection vector, nil means every row
	s.ord = newSortOrder(s.Key, s.RowID, s.Ties, s.Desc)
	if s.set = s.Runs; s.set == nil {
		s.set = &RunSet{}
	}
	return s.Child.Open()
}

func (s *SortRun) canSpill() bool {
	return s.Res.CanSpill() && s.Spill != nil && s.Runs != nil
}

// Next implements Operator: the single sorted run, then end of stream.
func (s *SortRun) Next() (*Batch, error) {
	if s.done || s.Limit == 0 {
		return nil, nil
	}
	s.done = true
	st := &s.set.Stats
	for {
		b, err := s.Child.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if s.buf == nil {
			if err := s.ord.check(b.Cols); err != nil {
				return nil, err
			}
			s.buf = make([]Col, len(b.Cols))
			for i := range b.Cols {
				s.buf[i].Kind = b.Cols[i].Kind
			}
		}
		st.RowsIn.Add(int64(b.Rows()))
		// A row behind the cutoff loses to Limit rows some worker has
		// already seen, so it cannot be in the answer: drop it on the key
		// column alone, before anything is copied.
		in := Batch{N: b.N, Sel: b.Sel, Cols: b.Cols}
		if cut := s.set.cutoff(); cut != noCutoff {
			s.sel = s.ord.within(&b.Cols[s.Key], b.Sel, b.N, cut, s.sel[:0])
			in.Sel = s.sel
		}
		rows := in.Rows()
		if rows == 0 {
			continue
		}
		st.PastCutoff.Add(int64(rows))
		deny := s.charge(batchBytes(&in))
		appendRows(s.buf, &in)
		s.n += rows
		if s.Limit > 0 && (s.n/2 >= s.Limit || deny != nil && s.n > s.Limit) {
			s.reorder()
			st.Compactions.Add(1)
			if want := batchBytes(&Batch{N: s.n, Cols: s.buf}); want > s.charged {
				deny = s.charge(want - s.charged)
			} else {
				s.Res.Release(s.charged - want)
				s.charged, deny = want, nil
			}
		}
		if deny != nil {
			if !s.canSpill() {
				return nil, deny
			}
			if err := s.spillRun(); err != nil {
				return nil, err
			}
		}
	}
	if s.n == 0 {
		return nil, nil
	}
	s.reorder()
	s.out = Batch{N: s.n, Cols: s.buf}
	return &s.out, nil
}

// charge asks the reservation for add more buffer bytes. A non-nil
// result means the buffer must shrink or spill before the next batch.
func (s *SortRun) charge(add int64) error {
	if s.Res == nil {
		return nil
	}
	if s.canSpill() && s.charged+add > s.Res.Limit()/2 {
		// Soft cap at half the budget: the producer feeding this sort may
		// itself need a grant to make the NEXT batch (a grace join's
		// per-partition build table, for one), and a buffer grown right up
		// to the limit starves it at exactly the moment it re-acquires.
		return memgov.ErrExceeded
	}
	if err := s.Res.Acquire(add); err != nil {
		// The workers share one reservation, so a worker that buffered
		// nothing yet can be denied while the others hold the entire
		// grant: the caller folds the batch in uncharged and shrinks.
		return err
	}
	s.charged += add
	return nil
}

// appendRows copies b's qualifying rows onto cols. The kind dispatch is
// hoisted out of the per-row loop: one typed copy loop per column, as
// in the primitives.
func appendRows(cols []Col, b *Batch) {
	for i := range b.Cols {
		c := &b.Cols[i]
		oc := &cols[i]
		switch c.Kind {
		case KindInt:
			if b.Sel == nil {
				oc.Ints = append(oc.Ints, c.Ints...)
			} else {
				for _, r := range b.Sel {
					oc.Ints = append(oc.Ints, c.Ints[r])
				}
			}
		case KindFloat:
			if b.Sel == nil {
				oc.Floats = append(oc.Floats, c.Floats...)
			} else {
				for _, r := range b.Sel {
					oc.Floats = append(oc.Floats, c.Floats[r])
				}
			}
		case KindBool:
			if b.Sel == nil {
				oc.Bools = append(oc.Bools, c.Bools...)
			} else {
				for _, r := range b.Sel {
					oc.Bools = append(oc.Bools, c.Bools[r])
				}
			}
		}
	}
}

// sorted orders the buffered rows and cuts them to Limit. When a full
// Limit rows remain, the last one's key is a proven cutoff — Limit rows
// at or before it exist — and is published to every worker of the sort.
func (s *SortRun) sorted() []sortEnt {
	s.ents = s.ord.ents(s.buf, s.n, s.ents)
	es := s.ents
	if s.Limit >= 0 && s.Limit <= len(es) {
		es = es[:s.Limit]
		s.set.tighten(es[s.Limit-1].k)
	}
	return es
}

// reorder rewrites the buffer as its sorted, Limit-truncated self.
func (s *SortRun) reorder() {
	es := s.sorted()
	if s.spare == nil {
		s.spare = make([]Col, len(s.buf))
	}
	gatherEnts(s.buf, es, s.spare)
	s.buf, s.spare, s.n = s.spare, s.buf, len(es)
}

// spillRun sorts the buffered rows, writes them (Limit-truncated) to
// one spill file in Size-row chunks, registers the sealed run, and
// hands the buffer and its reservation back.
func (s *SortRun) spillRun() error {
	es := s.sorted()
	w, err := s.Spill("sortrun")
	if err != nil {
		return err
	}
	size := s.Size
	if size <= 0 {
		size = DefaultSize
	}
	chunk := make([]Col, len(s.buf))
	for off := 0; off < len(es); off += size {
		end := min(off+size, len(es))
		gatherEnts(s.buf, es[off:end], chunk)
		if err := w.WriteBatch(&Batch{N: end - off, Cols: chunk}); err != nil {
			return err
		}
	}
	run, err := w.Finish()
	if err != nil {
		return err
	}
	s.Runs.Add(run)
	s.set.Stats.SpilledRuns.Add(1)
	for i := range s.buf {
		s.buf[i] = Col{Kind: s.buf[i].Kind}
	}
	s.spare, s.n = nil, 0
	s.Res.Release(s.charged)
	s.charged = 0
	return nil
}

// gatherEnts gathers the rows es point at from cols into out (same
// arity), reusing out's storage where capacity allows.
func gatherEnts(cols []Col, es []sortEnt, out []Col) {
	n := len(es)
	for i := range cols {
		c := &cols[i]
		oc := &out[i]
		oc.Kind = c.Kind
		switch c.Kind {
		case KindInt:
			if cap(oc.Ints) < n {
				oc.Ints = make([]int64, n)
			}
			oc.Ints = oc.Ints[:n]
			for k := range es {
				oc.Ints[k] = c.Ints[es[k].pos]
			}
		case KindFloat:
			if cap(oc.Floats) < n {
				oc.Floats = make([]float64, n)
			}
			oc.Floats = oc.Floats[:n]
			for k := range es {
				oc.Floats[k] = c.Floats[es[k].pos]
			}
		case KindBool:
			if cap(oc.Bools) < n {
				oc.Bools = make([]bool, n)
			}
			oc.Bools = oc.Bools[:n]
			for k := range es {
				oc.Bools[k] = c.Bools[es[k].pos]
			}
		}
	}
}

// Close implements Operator: hands any still-charged buffer memory
// back to the reservation.
func (s *SortRun) Close() error {
	if s.charged != 0 {
		s.Res.Release(s.charged)
		s.charged = 0
	}
	return s.Child.Close()
}

// --- the sort kernel: normalized keys ---

// sortEnt is one row in sortable form. k orders, as an unsigned word,
// exactly like the key cell under the sort's direction; rid is the row
// id (arrival position when the sort has none), likewise directed. pos
// and run locate the row: its position in the buffered columns, or in
// the current batch of run `run` under MergeRuns.
type sortEnt struct {
	k   uint64
	rid int64
	pos int32
	run int32
}

// cmpEnt orders entries by (key, row id) — the whole comparator of a
// sort without value ties.
func cmpEnt(a, b sortEnt) int {
	if c := cmp.Compare(a.k, b.k); c != 0 {
		return c
	}
	return cmp.Compare(a.rid, b.rid)
}

// normInt maps an int key onto the unsigned order: the sign bit flips,
// so bat.NilInt (the domain minimum) becomes 0 and sorts first.
func normInt(v int64) uint64 { return uint64(v) ^ 1<<63 }

// normFloat maps a float key onto the unsigned order: NaN (the float
// nil) becomes 0 and sorts first, the two zeros are one key, negative
// values flip every bit and the rest only the sign.
func normFloat(f float64) uint64 {
	switch {
	case bat.IsNilFloat(f):
		return 0
	case f == 0:
		return 1 << 63
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// sortOrder is the (key, ties..., rowid) order of one sort: what
// SortRun and MergeRuns build their entries and comparisons from.
type sortOrder struct {
	key, rowID int
	ties       []int
	// mask is 0 ascending and all ones descending. It complements the
	// normalized key AND the row id, so the descending order is the exact
	// REVERSE of the ascending one — reproducing batalg.SortDesc, which
	// reverses a stable ascending sort.
	mask uint64
}

func newSortOrder(key, rowID int, ties []int, desc bool) sortOrder {
	o := sortOrder{key: key, rowID: rowID, ties: ties}
	if desc {
		o.mask = math.MaxUint64
	}
	return o
}

// check rejects key and tie columns the kernel cannot order.
func (o *sortOrder) check(cols []Col) error {
	for _, ci := range append([]int{o.key}, o.ties...) {
		if k := cols[ci].Kind; k != KindInt && k != KindFloat {
			return fmt.Errorf("vector: sort key column %d has unsortable kind", ci)
		}
	}
	return nil
}

// ent is row p of cols as an entry of run `run`.
func (o *sortOrder) ent(cols []Col, p, run int32) sortEnt {
	e := sortEnt{rid: int64(p), pos: p, run: run}
	if kc := &cols[o.key]; kc.Kind == KindInt {
		e.k = normInt(kc.Ints[p]) ^ o.mask
	} else {
		e.k = normFloat(kc.Floats[p]) ^ o.mask
	}
	if o.rowID >= 0 {
		e.rid = cols[o.rowID].Ints[p]
	}
	e.rid ^= int64(o.mask)
	return e
}

// ents returns the first n rows of cols as SORTED entries, in es's
// storage where it fits: one typed loop normalizes the key column, then
// the flat slice sorts without going back to the columns (value ties
// excepted, which compare their cells only between equal keys).
func (o *sortOrder) ents(cols []Col, n int, es []sortEnt) []sortEnt {
	if cap(es) < n {
		es = make([]sortEnt, n)
	}
	es = es[:n]
	if kc := &cols[o.key]; kc.Kind == KindInt {
		for i, v := range kc.Ints[:n] {
			es[i].k = normInt(v) ^ o.mask
		}
	} else {
		for i, v := range kc.Floats[:n] {
			es[i].k = normFloat(v) ^ o.mask
		}
	}
	var rid []int64
	if o.rowID >= 0 {
		rid = cols[o.rowID].Ints
	}
	for i := range es {
		r := int64(i)
		if rid != nil {
			r = rid[i]
		}
		es[i].rid, es[i].pos, es[i].run = r^int64(o.mask), int32(i), 0
	}
	if len(o.ties) == 0 {
		slices.SortFunc(es, cmpEnt)
	} else {
		slices.SortFunc(es, func(a, b sortEnt) int { return o.cmp(cols, cols, a, b) })
	}
	return es
}

// cmp compares entry a over column set ac against b over bc.
func (o *sortOrder) cmp(ac, bc []Col, a, b sortEnt) int {
	if c := cmp.Compare(a.k, b.k); c != 0 {
		return c
	}
	for _, t := range o.ties {
		if c := cmpCell(&ac[t], &bc[t], a.pos, b.pos); c != 0 {
			if o.mask != 0 {
				return -c
			}
			return c
		}
	}
	return cmp.Compare(a.rid, b.rid)
}

// within appends to out the rows of key column c (drawn from sel, or
// 0..n-1) whose directed key is at or before cut. Non-strict: a row
// that ties the cutoff may still win on its tiebreaks.
func (o *sortOrder) within(c *Col, sel []int32, n int, cut uint64, out []int32) []int32 {
	mask := o.mask
	switch {
	case c.Kind == KindInt && sel == nil:
		for i, v := range c.Ints[:n] {
			if normInt(v)^mask <= cut {
				out = append(out, int32(i))
			}
		}
	case c.Kind == KindInt:
		for _, i := range sel {
			if normInt(c.Ints[i])^mask <= cut {
				out = append(out, i)
			}
		}
	case sel == nil:
		for i, v := range c.Floats[:n] {
			if normFloat(v)^mask <= cut {
				out = append(out, int32(i))
			}
		}
	default:
		for _, i := range sel {
			if normFloat(c.Floats[i])^mask <= cut {
				out = append(out, i)
			}
		}
	}
	return out
}

// cmpCell compares row ap of column a against row bp of column b (same
// kind, int or float; float nils — NaN — order first).
func cmpCell(a, b *Col, ap, bp int32) int {
	if a.Kind == KindInt {
		return cmp.Compare(a.Ints[ap], b.Ints[bp])
	}
	x, y := a.Floats[ap], b.Floats[bp]
	switch {
	case bat.IsNilFloat(x) && bat.IsNilFloat(y):
		return 0
	case bat.IsNilFloat(x):
		return -1
	case bat.IsNilFloat(y):
		return 1
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// MergeRuns k-way merges the sorted runs its child produces (one batch
// per run, typically an Exchange over SortRun fragments) into globally
// ordered vector-sized batches. Key/RowID/Desc must match the runs'
// sort order; Limit >= 0 stops the merge after that many rows.
//
// Ext, when set, contributes SPILLED runs to the same heap: each is
// streamed chunk-by-chunk through its SpillReader, so the merge holds
// one vector-sized batch per spilled run, not the run itself — the
// memory floor of the external sort's merge phase is k chunks. Ext is
// read AFTER the child is fully drained; with an Exchange child that
// barrier guarantees every worker has registered its spilled runs.
//
// The output columns are the merge's own buffers, refilled by every
// Next, as HashJoinOp's are: a batch is valid until the next call.
type MergeRuns struct {
	Child Operator
	Key   int
	RowID int
	Ties  []int // value tiebreak columns, matching the runs' order
	Desc  bool
	Limit int     // -1 = unlimited
	Size  int     // output vector size (DefaultSize if <= 0)
	Ext   *RunSet // spilled runs joining the merge; may be nil

	ord     sortOrder
	cur     []*Batch      // current batch per run
	srcs    []SpillReader // streaming source per run; nil = in-memory
	heap    []sortEnt     // next unconsumed row of each run's current batch
	emitted int
	started bool
	out     Batch
}

// Open implements Operator.
func (m *MergeRuns) Open() error {
	m.cur, m.srcs, m.heap = nil, nil, nil
	m.ord = newSortOrder(m.Key, m.RowID, m.Ties, m.Desc)
	m.emitted = 0
	m.started = false
	if m.Size <= 0 {
		m.Size = DefaultSize
	}
	return m.Child.Open()
}

// start drains the child, opens the spilled runs, and seeds the heap.
func (m *MergeRuns) start() error {
	m.started = true
	for {
		b, err := m.Child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if b.Rows() == 0 {
			continue
		}
		if b.Sel != nil {
			return fmt.Errorf("vector: merge input runs must be compacted")
		}
		m.cur = append(m.cur, b)
		m.srcs = append(m.srcs, nil)
	}
	if m.Ext != nil {
		for _, run := range m.Ext.Take() {
			rd, err := run.Open()
			if err != nil {
				return err
			}
			b, err := m.fill(rd)
			if err != nil {
				return errors.Join(err, rd.Close())
			}
			if b == nil {
				if err := rd.Close(); err != nil {
					return err
				}
				continue
			}
			m.cur = append(m.cur, b)
			m.srcs = append(m.srcs, rd)
		}
	}
	if len(m.cur) == 0 {
		return nil
	}
	if err := m.ord.check(m.cur[0].Cols); err != nil {
		return err
	}
	for ri := range m.cur {
		m.push(int32(ri), 0)
	}
	return nil
}

// fill pulls the next non-empty batch from a spill reader.
func (m *MergeRuns) fill(rd SpillReader) (*Batch, error) {
	for {
		b, err := rd.Next()
		if err != nil || b == nil {
			return nil, err
		}
		if b.N > 0 {
			return b, nil
		}
	}
}

// less orders two heap entries. Rows live in different runs, so value
// ties gather through the runs' CURRENT batches, which refilling swaps
// under the heap — but only after every row of the previous batch has
// left it.
func (m *MergeRuns) less(a, b sortEnt) bool {
	return m.ord.cmp(m.cur[a.run].Cols, m.cur[b.run].Cols, a, b) < 0
}

// push enters row pos of run's current batch into the heap.
func (m *MergeRuns) push(run, pos int32) {
	m.heap = append(m.heap, m.ord.ent(m.cur[run].Cols, pos, run))
	i := len(m.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !m.less(m.heap[i], m.heap[p]) {
			break
		}
		m.heap[i], m.heap[p] = m.heap[p], m.heap[i]
		i = p
	}
}

func (m *MergeRuns) pop() sortEnt {
	top := m.heap[0]
	last := len(m.heap) - 1
	m.heap[0] = m.heap[last]
	m.heap = m.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(m.heap) && m.less(m.heap[l], m.heap[small]) {
			small = l
		}
		if r < len(m.heap) && m.less(m.heap[r], m.heap[small]) {
			small = r
		}
		if small == i {
			break
		}
		m.heap[i], m.heap[small] = m.heap[small], m.heap[i]
		i = small
	}
	return top
}

// Next implements Operator: the next vector-sized slice of the merged
// order.
func (m *MergeRuns) Next() (*Batch, error) {
	if !m.started {
		if err := m.start(); err != nil {
			return nil, err
		}
	}
	if len(m.heap) == 0 {
		return nil, nil
	}
	want := m.Size
	if m.Limit >= 0 {
		if left := m.Limit - m.emitted; left < want {
			want = left
		}
	}
	if want <= 0 {
		m.heap = m.heap[:0]
		return nil, nil
	}

	cols := m.out.Cols
	if cols == nil {
		tmpl := m.cur[0].Cols
		cols = make([]Col, len(tmpl))
		for i := range tmpl {
			cols[i].Kind = tmpl[i].Kind
			switch tmpl[i].Kind {
			case KindInt:
				cols[i].Ints = make([]int64, 0, want)
			case KindFloat:
				cols[i].Floats = make([]float64, 0, want)
			case KindBool:
				cols[i].Bools = make([]bool, 0, want)
			}
		}
	}
	for i := range cols {
		cols[i].Ints, cols[i].Floats, cols[i].Bools = cols[i].Ints[:0], cols[i].Floats[:0], cols[i].Bools[:0]
	}
	n := 0
	for n < want && len(m.heap) > 0 {
		cur := m.pop()
		rb := m.cur[cur.run]
		for ci := range rb.Cols {
			c := &rb.Cols[ci]
			oc := &cols[ci]
			switch c.Kind {
			case KindInt:
				oc.Ints = append(oc.Ints, c.Ints[cur.pos])
			case KindFloat:
				oc.Floats = append(oc.Floats, c.Floats[cur.pos])
			case KindBool:
				oc.Bools = append(oc.Bools, c.Bools[cur.pos])
			}
		}
		n++
		if int(cur.pos)+1 < rb.N {
			m.push(cur.run, cur.pos+1)
		} else if rd := m.srcs[cur.run]; rd != nil {
			// This run streams from disk: refill its current batch. Every
			// row of the old batch has been copied out, so the reader may
			// reuse its storage.
			nb, err := m.fill(rd)
			if err != nil {
				return nil, err
			}
			if nb == nil {
				if err := rd.Close(); err != nil {
					return nil, err
				}
				m.srcs[cur.run] = nil
			} else {
				m.cur[cur.run] = nb
				m.push(cur.run, 0)
			}
		}
	}
	m.emitted += n
	if m.Ext != nil {
		m.Ext.Stats.Kept.Add(int64(n))
	}
	m.out = Batch{N: n, Cols: cols}
	return &m.out, nil
}

// Close implements Operator: any spill readers still open (a LIMIT can
// end the merge early) are closed here.
func (m *MergeRuns) Close() error {
	var errs []error
	for i, rd := range m.srcs {
		if rd == nil {
			continue
		}
		if err := rd.Close(); err != nil {
			errs = append(errs, err)
		}
		m.srcs[i] = nil
	}
	if err := m.Child.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
