// Package engine is the public, embeddable door into the columnar
// engine: the co-designed front-end API the underlying paper (Boncz,
// Manegold, Kersten, VLDB 2009) argues a column store needs. Everything
// below it — the SQL front-end, MAL plans, the BAT algebra, and the
// morsel-parallel vectorized executor — is internal; applications
// import only this package.
//
// The API follows the database/sql shape without depending on it:
//
//	db, _ := engine.Open()
//	defer db.Close()
//	conn := db.Conn()
//	db.Exec(ctx, `CREATE TABLE t (x INT, f FLOAT)`)
//	stmt, _ := conn.Prepare(`SELECT x, f FROM t WHERE x >= ?`)
//	rows, _ := stmt.Query(ctx, 10)
//	for rows.Next() {
//	    var x int64
//	    var f float64
//	    rows.Scan(&x, &f)
//	}
//	rows.Close()
//
// Three properties distinguish it from a convenience wrapper:
//
//   - Prepare compiles once. A SELECT is parsed, bound and lowered to a
//     vectorized plan — or, when the planner cannot lower it, compiled
//     to an optimized MAL program — a single time; ? placeholders become
//     typed bind slots in the plan, re-bound per execution. On MAL the
//     bound values also key the intermediate-result recycler, so
//     repeated executions with equal arguments hit recycled
//     intermediates.
//
//   - Query streams. Rows is a cursor pulling vector-sized batches, not
//     a materialized [][]any: the physical-plan layer lowers
//     scan/filter/project, aggregates, GROUP BY (any number of INT
//     keys), ORDER BY, and INT equi-joins of any number of tables onto
//     the morsel-parallel vectorized pipeline, and peak result-side
//     allocation stays proportional to one vector, not to the result.
//     Queries the planner cannot lower fall back to the MAL interpreter
//     transparently, each with a machine-readable reason in Conn.Plan.
//
//   - Cancellation is bounded. The context passed to Query/Exec is
//     checked at morsel boundaries inside the parallel pipeline, so a
//     long scan aborts within one morsel's worth of work.
package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/memgov"
	"repro/internal/physical"
	"repro/internal/recycler"
	"repro/internal/spill"
	"repro/internal/sqlfe"
	"repro/internal/wal"
)

// ErrOverBudget is the typed error a governed query fails with when its
// working memory would exceed the per-query budget and spilling is
// unavailable (no spill directory, or a partition still too big), and
// the error a MAL-routed SELECT is refused with when the tables it
// reads store more than the budget (see Options.MemBudget). Test with
// errors.Is; the failure is per-query — the database stays healthy.
var ErrOverBudget = memgov.ErrExceeded

// ErrSpillFailed is the typed error a spilling query fails with when
// its spill-file I/O fails (full or faulty disk). Like ErrOverBudget it
// fails only the query: the database is NOT tainted — no durable state
// is involved — and a retry after the condition clears succeeds.
var ErrSpillFailed = spill.ErrIO

// Options configure Open. The zero value is a fresh in-memory database.
type Options struct {
	// Dir, when non-empty, makes the database persistent AND durable:
	// Open loads the last checkpoint from Dir, replays the write-ahead
	// log at Dir/wal.log past it, and every subsequent committed write
	// is fsynced (group-committed) to the log before Exec returns.
	// Close checkpoints and truncates the log.
	Dir string
	// RecyclerBytes enables the intermediate-result recycler (§6.1 of
	// the paper) with the given capacity. 0 disables recycling.
	RecyclerBytes int
	// Workers is the degree of parallelism for vectorized queries
	// (<= 0 means GOMAXPROCS). Each scan's morsel size, and with it
	// the cancellation latency bound, is derived from the rows it reads
	// and the workers: several morsels per worker, at most 64K rows.
	Workers int
	// WALFS substitutes the filesystem the WAL writes through; nil means
	// the OS filesystem. Tests inject fault-simulating filesystems here.
	WALFS wal.FS
	// MemBudget is the per-query working-memory budget in bytes. 0 means
	// unlimited. The vectorized path's materializing operators (sort
	// runs, grouping tables, join builds) charge a per-query ledger
	// against it; a MAL-routed SELECT, which the ledger does not see, is
	// refused up front when the tables it reads store more than the
	// budget. Either way an over-budget query fails with ErrOverBudget —
	// unless SpillDir makes the vectorized one degrade to disk instead.
	// DML is never refused for the size of its table.
	MemBudget int64
	// SpillDir, when non-empty alongside MemBudget, switches the budget
	// policy from reject to spill: over-budget sorts write sorted runs
	// to temp files there and over-budget grouping/join builds re-plan
	// to grace-hash partitioning. Spill files go through WALFS (fault
	// injection covers them); orphans from crashed processes are swept
	// at Open.
	SpillDir string
}

// Engine constants no deployment tunes. The shared plan cache keeps at
// most planCacheEntries compiled SELECTs and planCacheBytes of their
// estimated footprint, so many large plans cannot pin unbounded memory
// under the entry cap. Group commit has no knob: the WAL fsyncs as soon
// as a commit arrives, and commits that arrive during that fsync share
// the next one.
const (
	planCacheEntries = 256
	planCacheBytes   = 8 << 20
)

// Option mutates Options.
type Option func(*Options)

// WithDir makes the database persistent in dir (see Options.Dir).
func WithDir(dir string) Option { return func(o *Options) { o.Dir = dir } }

// WithRecycler enables the intermediate-result recycler with the given
// byte capacity.
func WithRecycler(bytes int) Option { return func(o *Options) { o.RecyclerBytes = bytes } }

// WithWorkers sets the degree of parallelism for vectorized queries.
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithWALFS substitutes the WAL's filesystem (fault injection in tests).
func WithWALFS(fs wal.FS) Option { return func(o *Options) { o.WALFS = fs } }

// WithMemBudget sets the per-query working-memory budget in bytes
// (see Options.MemBudget).
func WithMemBudget(n int64) Option { return func(o *Options) { o.MemBudget = n } }

// WithSpill lets over-budget queries degrade to disk in dir instead of
// failing (see Options.SpillDir).
func WithSpill(dir string) Option { return func(o *Options) { o.SpillDir = dir } }

// DB is an embedded database handle, safe for concurrent use. All
// sessions (Conn) share its storage; reads run against snapshots, so
// writers never block readers mid-query.
type DB struct {
	opts Options
	// sizes pins the morsel and vector lengths in rows (0: derived and
	// vector.DefaultSize). Only tests set it, so that small tables still
	// run as many morsels of small vectors.
	sizes struct{ morsel, vector int }

	mu     sync.Mutex
	sdb    *sqlfe.DB
	wal    *wal.Log // nil for in-memory databases
	closed bool

	plans *planCache // shared prepared-plan cache

	spillMgr *spill.Manager // nil unless WithSpill

	defConn *Conn // lazily created backing for the DB-level helpers
}

// Open creates (or, with WithDir, recovers) a database. Recovery loads
// the last checkpoint, then replays the WAL: every transaction whose
// commit record is intact and checksums clean is reapplied, in order;
// the log is truncated at the first torn or corrupt record. A write
// acknowledged before a crash is recovered; a write never acknowledged
// may be recovered if its commit record happened to reach disk, but
// never partially.
func Open(opts ...Option) (*DB, error) {
	var o Options
	for _, f := range opts {
		f(&o)
	}
	var sdb *sqlfe.DB
	var lg *wal.Log
	if o.Dir != "" {
		has, err := sqlfe.DirHasDB(o.Dir)
		if err != nil {
			// A stat failure that is NOT "no such file" (permissions, IO)
			// must not be read as "fresh database": opening empty and
			// saving on Close would overwrite the real one.
			return nil, fmt.Errorf("engine: open %s: %w", o.Dir, err)
		}
		if has {
			sdb, err = sqlfe.Load(o.Dir)
			if err != nil {
				return nil, fmt.Errorf("engine: load %s: %w", o.Dir, err)
			}
		} else {
			if err := os.MkdirAll(o.Dir, 0o755); err != nil {
				return nil, fmt.Errorf("engine: open %s: %w", o.Dir, err)
			}
			sdb = sqlfe.NewDB()
		}
		fs := o.WALFS
		if fs == nil {
			fs = wal.OSFS{}
		}
		// The snapshot's watermark guards the checkpoint's non-atomic
		// save-then-truncate: a crash (or poisoned truncate) between the
		// two leaves the new snapshot AND the full old WAL, so replay
		// must skip every transaction the snapshot already contains.
		// The same watermark floors the log's LSN numbering (BaseLSN) so
		// post-checkpoint records can never reuse a skipped LSN.
		watermark := sdb.AppliedLSN()
		var txs []wal.Tx
		lg, txs, err = wal.Open(fs, filepath.Join(o.Dir, "wal.log"),
			wal.Params{BaseLSN: watermark})
		if err != nil {
			return nil, fmt.Errorf("engine: open wal: %w", err)
		}
		for _, tx := range txs {
			if tx.CommitLSN <= watermark {
				continue // already in the checkpoint snapshot
			}
			if err := sdb.ApplyTx(tx); err != nil {
				err = fmt.Errorf("engine: wal replay: %w", err)
				if cerr := lg.Close(); cerr != nil {
					err = errors.Join(err, fmt.Errorf("engine: close wal after failed replay: %w", cerr))
				}
				return nil, err
			}
		}
		sdb.WAL = lg
	} else {
		sdb = sqlfe.NewDB()
	}
	if o.RecyclerBytes > 0 {
		sdb.Recycle = recycler.New(o.RecyclerBytes, recycler.PolicyBenefit)
	}
	var mgr *spill.Manager
	if o.SpillDir != "" {
		fs := o.WALFS
		if fs == nil {
			fs = wal.OSFS{}
			if err := os.MkdirAll(o.SpillDir, 0o755); err != nil {
				return nil, failOpen(fmt.Errorf("engine: spill dir %s: %w", o.SpillDir, err), lg)
			}
		}
		// Sweep spill files orphaned by a crashed process: their owning
		// queries are gone, so every surviving spill-* file is garbage.
		if _, err := spill.Sweep(fs, o.SpillDir); err != nil {
			return nil, failOpen(fmt.Errorf("engine: sweep spill dir: %w", err), lg)
		}
		mgr = spill.NewManager(fs, o.SpillDir)
	}
	return &DB{opts: o, sdb: sdb, wal: lg, plans: newPlanCache(planCacheEntries, planCacheBytes), spillMgr: mgr}, nil
}

// failOpen closes a just-opened WAL when Open fails after it, keeping
// the primary error first.
func failOpen(err error, lg *wal.Log) error {
	if lg == nil {
		return err
	}
	if cerr := lg.Close(); cerr != nil {
		err = errors.Join(err, fmt.Errorf("engine: close wal after failed open: %w", cerr))
	}
	return err
}

// Close releases the handle; with WithDir it first checkpoints (vacuum,
// atomic save, WAL truncate) and closes the log. Close is idempotent.
// After a WAL poisoning (failed fsync), Close does NOT checkpoint —
// the on-disk state stays at the last durable point — and returns the
// poisoning error.
func (d *DB) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var first error
	if d.opts.Dir != "" {
		if err := d.sdb.Checkpoint(d.opts.Dir); err != nil {
			first = fmt.Errorf("engine: checkpoint %s: %w", d.opts.Dir, err)
		}
	}
	if d.wal != nil {
		if err := d.wal.Close(); err != nil && first == nil {
			first = fmt.Errorf("engine: close wal: %w", err)
		}
	}
	return first
}

// Checkpoint vacuums every table with tombstones, atomically saves the database to the
// configured directory, and truncates the WAL. It bounds recovery time
// without closing the database.
func (d *DB) Checkpoint() error {
	if d.opts.Dir == "" {
		return fmt.Errorf("engine: Checkpoint needs a persistent database (WithDir)")
	}
	if err := d.checkOpen(); err != nil {
		return err
	}
	return d.sdb.Checkpoint(d.opts.Dir)
}

// Vacuum drops every table's tombstoned positions now, rebuilding its
// columns (and their zone maps, which then cover every row), and
// returns how many tables were rewritten. No vacuum is needed for
// correctness or routing: scans filter tombstones, and a DELETE or
// UPDATE that leaves more than half of a table's positions tombstoned
// vacuums that table itself.
func (d *DB) Vacuum() (int, error) {
	if err := d.checkOpen(); err != nil {
		return 0, err
	}
	return d.sdb.Vacuum()
}

// WALStats reports write-ahead-log counters (zero for in-memory
// databases). Fsyncs < Txs means group commit is batching: commits
// that arrived during an fsync shared the next one.
type WALStats struct {
	Fsyncs  uint64 // physical fsync calls
	Txs     uint64 // committed transactions
	Records uint64 // log records appended
}

// Err reports the database's sticky fatal state: non-nil once the WAL
// has been poisoned by a failed fsync, or once a statement's effects
// were applied in memory but could not be made durable (the database is
// then tainted: its memory holds writes their callers were told
// failed). A poisoned-or-tainted database refuses every subsequent
// statement — writes, reads, and the Close-time checkpoint — so neither
// the on-disk state nor any reader can observe effects beyond the last
// point known durable. Reopen to recover the durable prefix.
func (d *DB) Err() error {
	if err := d.sdb.Fatal(); err != nil {
		return err
	}
	if d.wal == nil {
		return nil
	}
	return d.wal.Err()
}

// WALStats returns the current WAL counters.
func (d *DB) WALStats() WALStats {
	if d.wal == nil {
		return WALStats{}
	}
	s := d.wal.Stats()
	return WALStats{Fsyncs: s.Fsyncs, Txs: s.Txs, Records: s.Records}
}

func (d *DB) checkOpen() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("engine: database is closed")
	}
	// A tainted store (effects applied in memory, durability failed)
	// refuses reads as well as writes: serving them would expose writes
	// their callers were told did not commit.
	if err := d.sdb.Fatal(); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}

// physOpts maps the engine options onto the physical planner's
// execution knobs.
func (d *DB) physOpts() physical.Options {
	return physical.Options{
		Workers:    d.opts.Workers,
		MorselSize: d.sizes.morsel,
		VectorSize: d.sizes.vector,
	}
}

// queryGov mints one query's memory governance: a fresh reservation
// against the configured budget, plus a spill-file scope when the
// database can degrade to disk. Both nil means the query runs
// ungoverned.
func (d *DB) queryGov() (*memgov.Reservation, *spill.Scope) {
	if d.opts.MemBudget <= 0 {
		return nil, nil
	}
	pol := memgov.Reject
	var sc *spill.Scope
	if d.spillMgr != nil {
		pol = memgov.Spill
		sc = d.spillMgr.Scope()
	}
	return memgov.New(d.opts.MemBudget, pol), sc
}

// SpillStats reports spill-file counters (all zero without WithSpill).
// LiveFiles returning to 0 after queries finish is the leak check.
type SpillStats struct {
	Spills       int64 // spill files ever created
	LiveFiles    int64 // spill files currently on disk
	BytesWritten int64 // cumulative bytes written to spill files
}

// SpillStats returns the current spill counters.
func (d *DB) SpillStats() SpillStats {
	if d.spillMgr == nil {
		return SpillStats{}
	}
	s := d.spillMgr.Stats()
	return SpillStats{Spills: s.Spills, LiveFiles: s.LiveFiles, BytesWritten: s.BytesWritten}
}

// Conn opens a new session. Sessions are cheap (no sockets, no
// goroutines): they carry per-session state — prepared statements and
// an optional pinned snapshot — over the shared store.
func (d *DB) Conn() *Conn {
	return &Conn{db: d}
}

// Tables lists the table names, sorted.
func (d *DB) Tables() []string { return d.sdb.Tables() }

// conn returns the DB-level default session.
func (d *DB) conn() *Conn {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.defConn == nil {
		d.defConn = &Conn{db: d}
	}
	return d.defConn
}

// Exec runs one non-returning statement (DDL or DML) on the default
// session. Placeholders bind the args in order.
func (d *DB) Exec(ctx context.Context, sql string, args ...any) (Result, error) {
	return d.conn().Exec(ctx, sql, args...)
}

// Query runs a SELECT on the default session, returning a streaming
// cursor. Placeholders bind the args in order.
func (d *DB) Query(ctx context.Context, sql string, args ...any) (*Rows, error) {
	return d.conn().Query(ctx, sql, args...)
}

// Prepare compiles a statement on the default session for repeated
// execution.
func (d *DB) Prepare(sql string) (*Stmt, error) {
	return d.conn().Prepare(sql)
}
