package wal

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

func sampleOps() []Op {
	return []Op{
		&OpCreate{Table: "t", Cols: []string{"x", "f", "s"}, Types: []byte{ColInt, ColFloat, ColText}},
		&OpInsert{
			Table: "t",
			Types: []byte{ColInt, ColFloat, ColText},
			Rows: [][]any{
				{int64(1), 2.5, "hello"},
				{int64(math.MinInt64), math.NaN(), ""}, // the nil sentinels round-trip raw
			},
		},
		&OpDelete{Table: "t", Pos: []uint64{0, 3, 7}},
		&OpVacuum{Table: "t"},
		&OpDrop{Table: "t"},
	}
}

// opsEqual compares ops, treating NaN float values as equal.
func opsEqual(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, okX := a[i].(*OpInsert)
		y, okY := b[i].(*OpInsert)
		if okX && okY {
			if x.Table != y.Table || !reflect.DeepEqual(x.Types, y.Types) || len(x.Rows) != len(y.Rows) {
				return false
			}
			for r := range x.Rows {
				for c := range x.Rows[r] {
					fx, isF := x.Rows[r][c].(float64)
					if isF {
						fy, ok := y.Rows[r][c].(float64)
						if !ok || (fx != fy && !(math.IsNaN(fx) && math.IsNaN(fy))) {
							return false
						}
						continue
					}
					if !reflect.DeepEqual(x.Rows[r][c], y.Rows[r][c]) {
						return false
					}
				}
			}
			continue
		}
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestRoundTrip(t *testing.T) {
	fs := NewMemFS()
	l, txs, err := Open(fs, "wal.log", Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 0 {
		t.Fatalf("fresh log has %d txs", len(txs))
	}
	want := sampleOps()
	lsn, err := l.AppendTx(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendTx([]Op{&OpVacuum{Table: "u"}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	fs.Crash()
	l2, txs, err := Open(fs, "wal.log", Params{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(txs) != 2 {
		t.Fatalf("recovered %d txs, want 2", len(txs))
	}
	if !opsEqual(txs[0].Ops, want) {
		t.Fatalf("tx 0 mismatch:\ngot  %#v\nwant %#v", txs[0], want)
	}
}

func TestEmptyTxRejected(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(fs, "wal.log", Params{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.AppendTx(nil); err == nil {
		t.Fatal("expected error for empty transaction")
	}
}

// TestTornTailTruncated corrupts/cuts the log tail in several ways and
// checks recovery keeps exactly the committed prefix and physically
// truncates the garbage, so the log is appendable again.
func TestTornTailTruncated(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(fs, "wal.log", Params{})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.AppendTx([]Op{&OpVacuum{Table: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if lsn, err = l.AppendTx([]Op{&OpVacuum{Table: "b"}}); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	l.Close()
	clean := fs.Durable("wal.log")
	recs := Dump(clean)
	if len(recs) != 6 { // 2 x (begin, vacuum, commit)
		t.Fatalf("dump found %d records, want 6", len(recs))
	}
	tx1End := recs[2].End

	cases := map[string][]byte{
		"cut-mid-record":   clean[:tx1End+3],
		"cut-mid-header":   clean[:tx1End+1],
		"bitflip-tail":     append(append([]byte(nil), clean[:len(clean)-1]...), clean[len(clean)-1]^0x40),
		"garbage-appended": append(append([]byte(nil), clean...), 0xde, 0xad, 0xbe, 0xef),
	}
	for name, img := range cases {
		t.Run(name, func(t *testing.T) {
			fs := NewMemFS()
			fs.Seed("wal.log", img)
			l, txs, err := Open(fs, "wal.log", Params{})
			if err != nil {
				t.Fatal(err)
			}
			wantTxs := 2
			if name == "cut-mid-record" || name == "cut-mid-header" || name == "bitflip-tail" {
				wantTxs = 1
			}
			if len(txs) != wantTxs {
				t.Fatalf("recovered %d txs, want %d", len(txs), wantTxs)
			}
			// The log must be appendable after truncation: add a tx,
			// close, reopen, and the whole sequence must parse.
			lsn, err := l.AppendTx([]Op{&OpVacuum{Table: "c"}})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.WaitDurable(lsn); err != nil {
				t.Fatal(err)
			}
			l.Close()
			fs.Crash()
			l2, txs2, err := Open(fs, "wal.log", Params{})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if len(txs2) != wantTxs+1 {
				t.Fatalf("after append: recovered %d txs, want %d", len(txs2), wantTxs+1)
			}
			last := txs2[len(txs2)-1]
			if v, ok := last.Ops[0].(*OpVacuum); !ok || v.Table != "c" {
				t.Fatalf("last tx = %#v", last)
			}
		})
	}
}

// TestUncommittedTailDropped writes a committed tx followed by a
// begin+op with no commit; recovery must drop the open transaction.
func TestUncommittedTailDropped(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(fs, "wal.log", Params{})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.AppendTx([]Op{&OpVacuum{Table: "committed"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	l.Close()
	img := fs.Durable("wal.log")

	// Hand-append an uncommitted transaction: begin + one op, no commit.
	p := encodeMarker(RecBegin, lsn+1)
	img = appendRecord(img, p)
	p, err = encodeOp(&OpVacuum{Table: "open"}, lsn+2)
	if err != nil {
		t.Fatal(err)
	}
	img = appendRecord(img, p)

	fs2 := NewMemFS()
	fs2.Seed("wal.log", img)
	l2, txs, err := Open(fs2, "wal.log", Params{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(txs) != 1 {
		t.Fatalf("recovered %d txs, want 1", len(txs))
	}
	if v := txs[0].Ops[0].(*OpVacuum); v.Table != "committed" {
		t.Fatalf("tx 0 = %#v", txs[0])
	}
}

// heldFS is a MemFS whose first Sync blocks until release is closed:
// it keeps one fsync in flight so a test can pile commits up behind it.
type heldFS struct {
	*MemFS
	once    sync.Once
	entered chan struct{} // closed when the held Sync starts
	release chan struct{} // close to let the held Sync finish
}

func newHeldFS() *heldFS {
	return &heldFS{MemFS: NewMemFS(), entered: make(chan struct{}), release: make(chan struct{})}
}

func (h *heldFS) OpenAppend(path string) (File, error) {
	f, err := h.MemFS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &heldFile{File: f, fs: h}, nil
}

type heldFile struct {
	File
	fs *heldFS
}

func (f *heldFile) Sync() error {
	f.fs.once.Do(func() {
		close(f.fs.entered)
		<-f.fs.release
	})
	return f.File.Sync()
}

// TestGroupCommitBatches checks the only batching the log does: commits
// that arrive while an fsync is in flight share the next one. Writer 0's
// fsync is held; writers 1..7 append and wait behind it; releasing it
// must take exactly one more fsync for all seven, and every commit must
// survive a crash.
func TestGroupCommitBatches(t *testing.T) {
	fs := newHeldFS()
	l, _, err := Open(fs, "wal.log", Params{})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	commit := func(w int) error {
		lsn, err := l.AppendTx([]Op{&OpDelete{Table: "t", Pos: []uint64{uint64(w)}}})
		if err != nil {
			return err
		}
		return l.WaitDurable(lsn)
	}
	errs := make(chan error, writers)
	go func() { errs <- commit(0) }()
	<-fs.entered // writer 0's fsync is in flight and held

	for w := 1; w < writers; w++ {
		go func(w int) { errs <- commit(w) }(w)
	}
	// Release the held fsync only once all seven have appended.
	for l.Stats().Txs < writers {
		time.Sleep(time.Millisecond)
	}
	close(fs.release)
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Txs != writers || st.Fsyncs != 2 {
		t.Fatalf("%d fsyncs for %d txs, want 2 for %d", st.Fsyncs, st.Txs, writers)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	l2, txs, err := Open(fs.MemFS, "wal.log", Params{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(txs) != writers {
		t.Fatalf("recovered %d txs, want %d", len(txs), writers)
	}
}

// TestFsyncFailurePoisons checks the fsyncgate rule: after one failed
// fsync the log accepts nothing more, waiters error out, and recovery
// sees only what was durable before the failure.
func TestFsyncFailurePoisons(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(fs, "wal.log", Params{})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.AppendTx([]Op{&OpVacuum{Table: "good"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}

	fs.FailSyncsAfter(0, fmt.Errorf("disk on fire"))
	lsn, err = l.AppendTx([]Op{&OpVacuum{Table: "lost"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("WaitDurable after failed fsync = %v, want ErrPoisoned", err)
	}
	if _, err := l.AppendTx([]Op{&OpVacuum{Table: "refused"}}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("AppendTx on poisoned log = %v, want ErrPoisoned", err)
	}
	if err := l.Err(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Err() = %v", err)
	}
	if err := l.Truncate(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Truncate on poisoned log = %v", err)
	}
	if err := l.Close(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Close = %v, want ErrPoisoned", err)
	}

	fs.Crash()
	fs.FailSyncsAfter(-1, nil) // disk recovered after "reboot"
	_, txs, err := Open(fs, "wal.log", Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 1 || txs[0].Ops[0].(*OpVacuum).Table != "good" {
		t.Fatalf("recovered %#v, want only the pre-failure tx", txs)
	}
}

// TestPoisonKeepsEarlierCommits: flushes run back to back, so a waiter
// whose fsync succeeded may wake only after the next flush has poisoned
// the log. Its commit is durable and recovery replays it, so
// WaitDurable must report success for it, not the poison.
func TestPoisonKeepsEarlierCommits(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(fs, "wal.log", Params{})
	if err != nil {
		t.Fatal(err)
	}
	early, err := l.AppendTx([]Op{&OpVacuum{Table: "early"}})
	if err != nil {
		t.Fatal(err)
	}
	for l.Stats().Fsyncs == 0 { // covered, but its waiter has not looked yet
		time.Sleep(time.Millisecond)
	}
	fs.FailSyncsAfter(0, fmt.Errorf("disk on fire"))
	late, err := l.AppendTx([]Op{&OpVacuum{Table: "late"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(late); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("WaitDurable(late) = %v, want ErrPoisoned", err)
	}
	if err := l.WaitDurable(early); err != nil {
		t.Fatalf("WaitDurable(early) on a log poisoned after its fsync = %v, want nil", err)
	}
	l.Close()
	fs.Crash()
	fs.FailSyncsAfter(-1, nil)
	_, txs, err := Open(fs, "wal.log", Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 1 || txs[0].CommitLSN != early {
		t.Fatalf("recovered %#v, want only the early tx", txs)
	}
}

// TestShortWritePoisons injects a torn write: the flush errors, the log
// poisons, and recovery drops the torn record.
func TestShortWritePoisons(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(fs, "wal.log", Params{})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.AppendTx([]Op{&OpVacuum{Table: "good"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	fs.ShortWriteNext(5)
	lsn, err = l.AppendTx([]Op{&OpVacuum{Table: "torn"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("WaitDurable after short write = %v", err)
	}
	l.Close()
	fs.Crash()
	_, txs, err := Open(fs, "wal.log", Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 1 {
		t.Fatalf("recovered %d txs, want 1", len(txs))
	}
}

// TestTruncateResets checks the checkpoint cut: pending and durable
// records vanish, waiters are released, and LSNs keep counting so a
// reopened log continues cleanly.
func TestTruncateResets(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(fs, "wal.log", Params{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.AppendTx([]Op{&OpDelete{Table: "t", Pos: []uint64{uint64(i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	// All pre-truncate LSNs count as durable (covered by the checkpoint).
	if err := l.WaitDurable(9); err != nil { // 3 txs x 3 records
		t.Fatal(err)
	}
	lsn, err := l.AppendTx([]Op{&OpVacuum{Table: "after"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	l.Close()
	fs.Crash()
	l2, txs, err := Open(fs, "wal.log", Params{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(txs) != 1 {
		t.Fatalf("recovered %d txs, want 1 (post-truncate only)", len(txs))
	}
	if v := txs[0].Ops[0].(*OpVacuum); v.Table != "after" {
		t.Fatalf("tx = %#v", txs[0])
	}
}

// TestDumpOffsets sanity-checks the record iterator the crash-point
// tests sweep over.
func TestDumpOffsets(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(fs, "wal.log", Params{})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.AppendTx(sampleOps())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	l.Close()
	img := fs.Durable("wal.log")
	recs := Dump(img)
	if len(recs) != len(sampleOps())+2 {
		t.Fatalf("dump found %d records", len(recs))
	}
	if recs[0].Type != RecBegin || recs[len(recs)-1].Type != RecCommit {
		t.Fatalf("record types: first %d last %d", recs[0].Type, recs[len(recs)-1].Type)
	}
	if recs[len(recs)-1].End != int64(len(img)) {
		t.Fatalf("last record ends at %d, file is %d bytes", recs[len(recs)-1].End, len(img))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
}

// TestBaseLSNFloorsNumbering: opening an empty (checkpoint-truncated)
// log with a snapshot watermark must resume LSN numbering above it —
// otherwise a record appended after reopen would reuse an LSN the
// snapshot covers and be skipped by the next recovery.
func TestBaseLSNFloorsNumbering(t *testing.T) {
	fs := NewMemFS()
	l, txs, err := Open(fs, "wal.log", Params{BaseLSN: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 0 {
		t.Fatalf("fresh log has %d txs", len(txs))
	}
	lsn, err := l.AppendTx([]Op{&OpVacuum{Table: "t"}})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 43 { // begin=41, op=42, commit=43
		t.Fatalf("first commit LSN = %d, want 43", lsn)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// A log whose records are already above the watermark keeps its own
	// numbering (max of the two).
	l2, txs, err := Open(fs, "wal.log", Params{BaseLSN: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(txs) != 1 || txs[0].CommitLSN != 43 {
		t.Fatalf("recovered txs = %#v, want one with CommitLSN 43", txs)
	}
	if lsn, err = l2.AppendTx([]Op{&OpVacuum{Table: "u"}}); err != nil || lsn != 46 {
		t.Fatalf("post-reopen commit LSN = %d (%v), want 46", lsn, err)
	}
}
