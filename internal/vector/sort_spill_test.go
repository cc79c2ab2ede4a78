package vector

// External sort against the in-memory sort as oracle, driven through a
// fake in-process SpillWriter/SpillReader so the vector layer is
// testable without the spill package (which imports vector). The real
// file-backed path is covered at the engine level.

import (
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/bat"
	"repro/internal/memgov"
)

type fakeRun struct{ batches []*Batch }

func (f *fakeRun) Open() (SpillReader, error) {
	return &fakeReader{batches: f.batches}, nil
}

type fakeReader struct {
	batches []*Batch
	i       int
}

func (r *fakeReader) Next() (*Batch, error) {
	if r.i >= len(r.batches) {
		return nil, nil
	}
	b := r.batches[r.i]
	r.i++
	return b, nil
}

func (r *fakeReader) Close() error { return nil }

type fakeWriter struct {
	run  *fakeRun
	fail error // non-nil: WriteBatch fails
}

func (w *fakeWriter) WriteBatch(b *Batch) error {
	if w.fail != nil {
		return w.fail
	}
	w.run.batches = append(w.run.batches, cloneBatch(b))
	return nil
}

func (w *fakeWriter) Finish() (SpillRun, error) { return w.run, nil }

// externalSort runs the physical layer's sort stage: parallel SortRun
// fragments under an Exchange with rowid tiebreaks, merged by
// MergeRuns, optionally budgeted and spillable.
func externalSort(t *testing.T, src *Source, key, workers, limit int, desc bool, res *memgov.Reservation, sink SpillSink) ([][]any, error) {
	t.Helper()
	runs := &RunSet{}
	rowID := len(src.Cols)
	ex := &Exchange{
		Source:  src,
		Workers: workers,
		RowIDs:  true,
		//lint:ignore ctxmorsel bounded test plan, no cancellation surface
		Plan: func(scan Operator) Operator {
			return &SortRun{Child: scan, Key: key, RowID: rowID, Desc: desc, Limit: limit,
				Res: res, Spill: sink, Runs: runs, Size: 64}
		},
	}
	m := &MergeRuns{Child: ex, Key: key, RowID: rowID, Desc: desc, Limit: limit, Size: 128, Ext: runs}
	return Drain(m)
}

func sortInput(n int) *Source {
	rng := rand.New(rand.NewSource(7))
	ints := make([]int64, n)
	flts := make([]float64, n)
	for i := range ints {
		switch rng.Intn(10) {
		case 0:
			ints[i] = bat.NilInt
			flts[i] = math.NaN()
		default:
			ints[i] = int64(rng.Intn(n / 4)) // plenty of key ties for the rowid tiebreak
			flts[i] = rng.Float64() * 100
		}
	}
	src, err := NewSource([]string{"k", "v"}, []Col{
		{Kind: KindInt, Ints: ints},
		{Kind: KindFloat, Floats: flts},
	})
	if err != nil {
		panic(err)
	}
	return src
}

func TestExternalSortMatchesInMemory(t *testing.T) {
	src := sortInput(20000)
	for _, workers := range []int{1, 2, 4, 8} {
		for _, desc := range []bool{false, true} {
			for _, limit := range []int{-1, 137, 15000} {
				want, err := externalSort(t, src, 0, workers, limit, desc, nil, nil)
				if err != nil {
					t.Fatalf("in-memory sort: %v", err)
				}
				// ~32KB budget across all workers: every worker of a full sort,
				// or of a top-N whose LIMIT rows outgrow it, must spill. A
				// LIMIT 137 run is bounded at 2*137 rows plus a vector (~8KB):
				// one or two of them fit and never spill.
				res := memgov.New(32<<10, memgov.Spill)
				var spills atomic.Int32 // sink runs on concurrent workers
				sink := SpillSink(func(label string) (SpillWriter, error) {
					spills.Add(1)
					return &fakeWriter{run: &fakeRun{}}, nil
				})
				got, err := externalSort(t, src, 0, workers, limit, desc, res, sink)
				if err != nil {
					t.Fatalf("external sort (w=%d desc=%v limit=%d): %v", workers, desc, limit, err)
				}
				if n := spills.Load(); limit != 137 && n == 0 {
					t.Fatalf("w=%d desc=%v limit=%d: budget never forced a spill", workers, desc, limit)
				} else if limit == 137 && workers <= 2 && n != 0 {
					t.Fatalf("w=%d desc=%v limit=%d: a bounded top-N that fits the budget spilled %d runs", workers, desc, limit, n)
				}
				if len(got) != len(want) {
					t.Fatalf("w=%d desc=%v limit=%d: %d rows, want %d", workers, desc, limit, len(got), len(want))
				}
				for i := range want {
					for c := range want[i] {
						wv, gv := want[i][c], got[i][c]
						if wf, ok := wv.(float64); ok {
							gf := gv.(float64)
							if bat.IsNilFloat(wf) && bat.IsNilFloat(gf) {
								continue
							}
						}
						if wv != gv {
							t.Fatalf("w=%d desc=%v limit=%d row %d col %d: got %v, want %v", workers, desc, limit, i, c, gv, wv)
						}
					}
				}
				if used := res.Used(); used != 0 {
					t.Fatalf("w=%d: %d bytes still reserved after close", workers, used)
				}
			}
		}
	}
}

func TestExternalSortRejectWithoutSpill(t *testing.T) {
	src := sortInput(20000)
	res := memgov.New(32<<10, memgov.Reject)
	_, err := externalSort(t, src, 0, 2, -1, false, res, nil)
	if !errors.Is(err, memgov.ErrExceeded) {
		t.Fatalf("reject policy: got %v, want ErrExceeded", err)
	}
	if used := res.Used(); used != 0 {
		t.Fatalf("%d bytes still reserved after failed sort", used)
	}
}

func TestExternalSortSpillWriteFailure(t *testing.T) {
	src := sortInput(20000)
	res := memgov.New(32<<10, memgov.Spill)
	boom := errors.New("spill write failed")
	sink := SpillSink(func(label string) (SpillWriter, error) {
		return &fakeWriter{run: &fakeRun{}, fail: boom}, nil
	})
	_, err := externalSort(t, src, 0, 2, -1, false, res, sink)
	if !errors.Is(err, boom) {
		t.Fatalf("spill failure must surface: got %v", err)
	}
	if used := res.Used(); used != 0 {
		t.Fatalf("%d bytes still reserved after failed spill", used)
	}
}
