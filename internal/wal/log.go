// Package wal is an append-only write-ahead log with group commit and
// crash recovery. Records are length-prefixed and CRC32-checksummed;
// each committed transaction is begin + ops + commit. Concurrent
// committers enqueue records under the log mutex and then wait, off the
// mutex, for the committer goroutine to cover their LSN with one fsync.
// The committer flushes as soon as work arrives — there is no batch
// window, so a lone commit waits only for its own fsync — and every
// transaction that arrives while an fsync is in flight shares the next
// one: group commit costs no latency. A failed fsync is never retried: it
// poisons the log, every pending and future commit errors until the
// process reopens and recovers from the durable prefix.
package wal

import (
	"errors"
	"fmt"
	"sync"
)

// ErrPoisoned marks a log that has seen a write or fsync failure. No
// further appends are accepted: after a failed fsync the kernel may
// have dropped the dirty pages, so "retry and hope" would acknowledge
// commits that never reached disk. Reopen to recover the durable
// prefix.
var ErrPoisoned = errors.New("wal: log poisoned by write/fsync failure; reopen to recover")

// Params configure Open.
type Params struct {
	// BaseLSN is the checkpoint watermark of the snapshot this log
	// accompanies: the highest LSN whose effects the snapshot already
	// contains. LSN numbering resumes above max(BaseLSN, last record in
	// the file), so a record appended after a checkpoint can never reuse
	// an LSN the snapshot covers — recovery skips LSNs <= watermark, and
	// a collision would silently drop a committed write.
	BaseLSN uint64
}

// Stats count the log's committed work: transactions replayed at Open
// plus everything appended since.
type Stats struct {
	Fsyncs  uint64 // fsyncs issued (successful flushes)
	Txs     uint64 // transactions appended
	Records uint64 // records appended (begin/op/commit)
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use.
type Log struct {
	fs   FS
	path string
	f    File

	// ioMu serializes file IO (flush vs truncate); always taken before mu.
	ioMu sync.Mutex

	mu           sync.Mutex
	cond         *sync.Cond
	pending      []byte // encoded records not yet handed to the file
	nextLSN      uint64
	lastAppended uint64 // highest LSN assigned
	durable      uint64 // highest LSN covered by a successful fsync
	err          error  // poison; permanent
	closed       bool
	stats        Stats

	kick chan struct{} // committer: work arrived
	quit chan struct{}
	dead chan struct{}
}

// Open reads the log at path, recovers the committed transactions
// (returned for the caller to replay), truncates everything past the
// last intact commit record — a torn tail record, checksum garbage, or
// an uncommitted trailing transaction — and starts the group committer.
func Open(fs FS, path string, p Params) (*Log, []Tx, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: read %s: %w", path, err)
	}
	txs, goodEnd, lastLSN := parseLog(data)
	f, err := fs.OpenAppend(path)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	if int64(len(data)) > goodEnd {
		if err := f.Truncate(goodEnd); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: sync after truncate: %w", err)
		}
	}
	if p.BaseLSN > lastLSN {
		lastLSN = p.BaseLSN
	}
	l := &Log{
		fs:      fs,
		path:    path,
		f:       f,
		nextLSN: lastLSN + 1,
		durable: lastLSN,
		kick:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
		dead:    make(chan struct{}),
	}
	// Seed the counters with the recovered prefix, so Stats().Txs means
	// "committed transactions in the log" whether appended or replayed.
	l.stats.Txs = uint64(len(txs))
	for _, tx := range txs {
		l.stats.Records += uint64(len(tx.Ops)) + 2 // begin + ops + commit
	}
	l.cond = sync.NewCond(&l.mu)
	go l.committer()
	return l, txs, nil
}

// AppendTx encodes one transaction (begin + ops + commit) into the
// pending buffer and returns the commit record's LSN. It never blocks
// on IO; pair it with WaitDurable to learn when the commit survives a
// crash. Callers that serialize their state changes must call AppendTx
// under the same lock, so the log order matches the apply order.
func (l *Log) AppendTx(ops []Op) (uint64, error) {
	if len(ops) == 0 {
		return 0, fmt.Errorf("wal: empty transaction")
	}
	// Encode before taking the lock; LSNs are patched in under it.
	payloads := make([][]byte, 0, len(ops)+2)
	payloads = append(payloads, encodeMarker(RecBegin, 0))
	for _, op := range ops {
		p, err := encodeOp(op, 0)
		if err != nil {
			return 0, err
		}
		payloads = append(payloads, p)
	}
	payloads = append(payloads, encodeMarker(RecCommit, 0))

	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return 0, err
	}
	if l.closed {
		l.mu.Unlock()
		return 0, fmt.Errorf("wal: log is closed")
	}
	var commitLSN uint64
	for _, p := range payloads {
		lsn := l.nextLSN
		l.nextLSN++
		patchLSN(p, lsn)
		l.pending = appendRecord(l.pending, p)
		commitLSN = lsn
	}
	l.lastAppended = commitLSN
	l.stats.Txs++
	l.stats.Records += uint64(len(payloads))
	l.mu.Unlock()

	select {
	case l.kick <- struct{}{}:
	default:
	}
	return commitLSN, nil
}

// patchLSN writes the assigned LSN into an encoded payload (type byte,
// then the 8-byte LSN).
func patchLSN(p []byte, lsn uint64) {
	for i := 0; i < 8; i++ {
		p[1+i] = byte(lsn >> (8 * i))
	}
}

// WaitDurable blocks until the record with the given LSN is covered by
// a successful fsync (or included in a checkpoint truncation), the log
// is poisoned, or the log is closed underneath the waiter. A record an
// fsync covered reports success even if the next flush has poisoned the
// log before the waiter woke: recovery replays it, so it is committed.
func (l *Log) WaitDurable(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.durable < lsn && l.err == nil && !l.closed {
		l.cond.Wait()
	}
	if l.durable >= lsn {
		return nil
	}
	if l.err != nil {
		return l.err
	}
	return fmt.Errorf("wal: log closed before LSN %d became durable", lsn)
}

// Err returns the poison error, or nil while the log is healthy.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Stats returns a snapshot of the work counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Truncate empties the log after a checkpoint has made every appended
// record's effect durable elsewhere: pending records are discarded,
// the file is cut to zero, and every waiter is released successfully
// (their commits are covered by the checkpoint). LSN numbering
// continues — recovery verifies sequential LSNs, so a stale record
// image can never splice into the new epoch.
func (l *Log) Truncate() error {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("wal: log is closed")
	}
	l.pending = nil
	target := l.lastAppended
	l.mu.Unlock()

	if err := l.f.Truncate(0); err != nil {
		l.poison(err)
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.poison(err)
		return err
	}
	l.mu.Lock()
	l.durable = target
	l.cond.Broadcast()
	l.mu.Unlock()
	return nil
}

// Close stops the committer (flushing whatever is pending), wakes any
// stuck waiters, and closes the file. It returns the poison error if
// the log died earlier.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.quit)
	<-l.dead

	l.mu.Lock()
	err := l.err
	l.cond.Broadcast()
	l.mu.Unlock()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// committer is the single goroutine that performs file IO. It flushes
// as soon as it is kicked; records appended while that flush's fsync is
// in flight pile up in pending and re-arm the kick, so the next flush
// covers all of them with one fsync.
func (l *Log) committer() {
	defer close(l.dead)
	for {
		select {
		case <-l.quit:
			l.flush() // final drain so Close leaves nothing buffered
			return
		case <-l.kick:
		}
		l.flush()
	}
}

// flush writes and fsyncs everything pending. On any IO error the log
// is poisoned — the failed fsync is never reissued.
func (l *Log) flush() {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	l.mu.Lock()
	if l.err != nil || len(l.pending) == 0 {
		l.mu.Unlock()
		return
	}
	buf := l.pending
	l.pending = nil
	target := l.lastAppended
	l.mu.Unlock()

	if _, err := l.f.Write(buf); err != nil {
		l.poison(err)
		return
	}
	if err := l.f.Sync(); err != nil {
		l.poison(err)
		return
	}
	l.mu.Lock()
	l.durable = target
	l.stats.Fsyncs++
	l.cond.Broadcast()
	l.mu.Unlock()
}

func (l *Log) poison(cause error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = fmt.Errorf("%w: %v", ErrPoisoned, cause)
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}
