package vector

// The vector operators spill through these small interfaces rather
// than importing the spill package directly: spill imports vector (it
// encodes Batches), so the dependency must point downward. The
// physical planner bridges a query's spill.Scope into a SpillSink and
// threads it — together with the query's memgov.Reservation — into the
// operators that can exceed their grant (SortRun, Agg, join builds).

import (
	"math"
	"sync"
	"sync/atomic"
)

// SpillWriter receives the chunks of ONE spilled run or partition.
// Implementations must apply the batch's selection vector (writes are
// dense) and must leave the underlying file closed after any error.
type SpillWriter interface {
	WriteBatch(b *Batch) error
	// Finish seals the file (sync + close) and returns the readable run.
	Finish() (SpillRun, error)
}

// SpillRun is a sealed spill file, openable for streaming re-reads.
type SpillRun interface {
	Open() (SpillReader, error)
}

// SpillReader streams a run's batches back in write order. The batch
// returned by Next is valid until the following Next call; Next
// returns (nil, nil) at end of run.
type SpillReader interface {
	Next() (*Batch, error)
	Close() error
}

// SpillSink opens a new spill file under the owning query's scope. A
// nil sink means spilling is unavailable and over-grant operators must
// fail instead.
type SpillSink func(label string) (SpillWriter, error)

// RunSet is what the parallel workers of ONE execution of one sort
// share with each other and with its merge: the runs they spilled (each
// SortRun registers its own, and MergeRuns takes them all once the
// Exchange barrier guarantees every worker is done), the best top-N
// cutoff any of them has proven, and the counters saying what the sort
// did. The zero value is ready; all of it is safe for concurrent use.
type RunSet struct {
	Stats SortStats

	// bound is the COMPLEMENT of the cutoff, so the zero value means "no
	// cutoff yet" and tightening is a monotone max.
	bound atomic.Uint64
	mu    sync.Mutex
	runs  []SpillRun
}

// SortStats counts what one sort did, summed over its workers.
type SortStats struct {
	RowsIn      atomic.Int64 // rows the runs received from their pipelines
	PastCutoff  atomic.Int64 // of those, rows at or before the top-N cutoff, i.e. buffered (all of them without a LIMIT)
	Compactions atomic.Int64 // times a top-N buffer was sorted and cut back to LIMIT rows
	Kept        atomic.Int64 // rows the merge emitted
	SpilledRuns atomic.Int64 // runs written to spill files
}

// noCutoff is the cutoff no row is behind.
const noCutoff = math.MaxUint64

// cutoff returns the smallest directed key at or before which some
// worker holds a full LIMIT rows; a row with a larger key cannot be in
// the answer.
func (rs *RunSet) cutoff() uint64 { return ^rs.bound.Load() }

// tighten publishes k as the cutoff unless a tighter one already stands.
func (rs *RunSet) tighten(k uint64) {
	for {
		cur := rs.bound.Load()
		if ^k <= cur || rs.bound.CompareAndSwap(cur, ^k) {
			return
		}
	}
}

// Add registers one sealed run.
func (rs *RunSet) Add(r SpillRun) {
	rs.mu.Lock()
	rs.runs = append(rs.runs, r)
	rs.mu.Unlock()
}

// Take returns every registered run and empties the set.
func (rs *RunSet) Take() []SpillRun {
	rs.mu.Lock()
	runs := rs.runs
	rs.runs = nil
	rs.mu.Unlock()
	return runs
}

// batchBytes estimates the buffered footprint of b's qualifying rows —
// what a materializing operator charges its reservation before copying
// them in.
func batchBytes(b *Batch) int64 {
	rows := int64(b.Rows())
	var width int64
	for i := range b.Cols {
		if b.Cols[i].Kind == KindBool {
			width++
		} else {
			width += 8
		}
	}
	return rows * width
}
