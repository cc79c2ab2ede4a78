package sqlfe

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/bat"
	"repro/internal/mal"
	"repro/internal/recycler"
	"repro/internal/wal"
)

// DB is a tiny MonetDB-shaped SQL database: tables decomposed into BATs,
// queries compiled to MAL and run by the bulk interpreter, updates
// appended to the columns and tombstoned, reads through snapshots.
type DB struct {
	mu      sync.Mutex
	tables  map[string]*Table
	schema  int64           // bumped on CREATE/DROP; snapshots carry it (SchemaVersion)
	Recycle *recycler.Cache // optional intermediate-result recycling (§6.1)

	// WAL, when set (by the engine, after recovery replay), makes every
	// write statement durable: its physical effects are appended as one
	// transaction under db.mu — so log order equals apply order — and
	// ExecStmt returns only after the group committer's fsync covers
	// the commit record. A poisoned log (failed fsync) makes every
	// subsequent write error until the process reopens and recovers.
	WAL *wal.Log

	// appliedLSN is the highest WAL commit LSN whose effects are in the
	// in-memory state: advanced by logTxLocked and replay, persisted by Save as
	// the snapshot's watermark, so recovery never replays a transaction
	// the checkpoint already contains.
	appliedLSN uint64

	// fatal is the sticky taint: set when a statement's effects were
	// applied in memory but its WAL append or durability wait failed —
	// memory then holds writes the caller was told failed, so EVERY
	// subsequent statement (reads included) errors until the process
	// reopens and recovers from the durable prefix.
	fatal error
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{tables: map[string]*Table{}} }

// Result is a query result in row form.
type Result struct {
	Columns []string
	Rows    [][]any
	// Affected counts rows touched by DML.
	Affected int
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var sb strings.Builder
	widths := make([]int, len(r.Columns))
	cells := make([][]string, len(r.Rows))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := fmt.Sprint(v)
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	for i, c := range r.Columns {
		fmt.Fprintf(&sb, "| %-*s ", widths[i], c)
	}
	sb.WriteString("|\n")
	for i := range r.Columns {
		sb.WriteString("+")
		sb.WriteString(strings.Repeat("-", widths[i]+2))
	}
	sb.WriteString("+\n")
	for _, row := range cells {
		for ci, v := range row {
			fmt.Fprintf(&sb, "| %-*s ", widths[ci], v)
		}
		sb.WriteString("|\n")
	}
	return sb.String()
}

// Exec parses and executes one statement.
func (db *DB) Exec(sql string) (*Result, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecStmt(st)
}

// ExecStmt executes a parsed statement. With a WAL attached, a write
// statement returns only once its commit record is durable (covered by
// a group-commit fsync); a durability failure is returned as an error —
// the statement must then be considered not committed.
func (db *DB) ExecStmt(st Stmt) (*Result, error) {
	res, lsn, err := db.execStmt(st)
	if err != nil {
		return nil, err
	}
	if lsn > 0 {
		if werr := db.WAL.WaitDurable(lsn); werr != nil {
			// The statement's effects are already applied in memory but
			// were never made durable: memory has diverged from what
			// recovery will produce. Taint the database so no later
			// statement (read or write) can observe the divergence.
			db.taint(fmt.Errorf("commit at LSN %d not durable: %w", lsn, werr))
			return nil, fmt.Errorf("sql: commit not durable: %w", werr)
		}
	}
	return res, nil
}

// taint records a fatal in-memory/log divergence (see DB.fatal).
func (db *DB) taint(err error) {
	db.mu.Lock()
	db.taintLocked(err)
	db.mu.Unlock()
}

func (db *DB) taintLocked(err error) {
	if db.fatal == nil {
		db.fatal = err
	}
}

// Fatal returns the sticky taint error, or nil while the in-memory
// state is trustworthy.
func (db *DB) Fatal() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.fatal
}

// execStmt applies the statement under db.mu and, for logged writes,
// returns the WAL commit LSN to wait on (0 when nothing was logged).
func (db *DB) execStmt(st Stmt) (*Result, uint64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.fatal != nil {
		return nil, 0, fmt.Errorf("sql: database tainted by durability failure: %w", db.fatal)
	}
	var (
		res *Result
		ops []wal.Op
		err error
	)
	switch s := st.(type) {
	case *CreateTable:
		res, ops, err = db.execCreate(s)
	case *DropTable:
		res, ops, err = db.execDrop(s)
	case *Insert:
		res, ops, err = db.execInsert(s)
	case *Delete:
		res, ops, err = db.execDeleteLocked(s)
	case *Update:
		res, ops, err = db.execUpdateLocked(s)
	case *Select:
		res, err = db.runSelect(s, db.snapshotLocked())
		return res, 0, err
	default:
		return nil, 0, fmt.Errorf("sql: unhandled statement %T", st)
	}
	if err != nil {
		return nil, 0, err
	}
	lsn, err := db.logTxLocked(ops)
	if err != nil {
		return nil, 0, err
	}
	return res, lsn, nil
}

// walUsable refuses new writes on a tainted database or poisoned log
// BEFORE any state changes, keeping memory and log consistent.
func (db *DB) walUsable() error {
	if db.fatal != nil {
		return fmt.Errorf("sql: database tainted by durability failure: %w", db.fatal)
	}
	if db.WAL == nil {
		return nil
	}
	if err := db.WAL.Err(); err != nil {
		return fmt.Errorf("sql: write refused: %w", err)
	}
	return nil
}

// logTxLocked appends one committed statement's physical effects to the WAL
// (no-op without one) and returns the commit LSN to wait on. Callers
// apply the ops to memory BEFORE logging (under the same db.mu hold),
// so an append failure means memory holds effects the log never will:
// the database is tainted, not just this statement failed.
func (db *DB) logTxLocked(ops []wal.Op) (uint64, error) {
	if db.WAL == nil || len(ops) == 0 {
		return 0, nil
	}
	lsn, err := db.WAL.AppendTx(ops)
	if err != nil {
		db.taintLocked(fmt.Errorf("wal append failed after effects were applied: %w", err))
		return 0, fmt.Errorf("sql: wal append: %w", err)
	}
	db.appliedLSN = lsn
	return lsn, nil
}

// AppliedLSN returns the snapshot watermark: the highest WAL commit LSN
// whose effects are in the in-memory state (persisted by Save, restored
// by Load).
func (db *DB) AppliedLSN() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.appliedLSN
}

// walColTypes maps column types onto the WAL's type bytes.
func walColTypes(types []ColType) []byte {
	out := make([]byte, len(types))
	for i, t := range types {
		switch t {
		case TInt:
			out[i] = wal.ColInt
		case TFloat:
			out[i] = wal.ColFloat
		default:
			out[i] = wal.ColText
		}
	}
	return out
}

// Query is Exec restricted to SELECT.
func (db *DB) Query(sql string) (*Result, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*Select)
	if !ok {
		return nil, fmt.Errorf("sql: Query requires SELECT")
	}
	db.mu.Lock()
	if db.fatal != nil {
		err := db.fatal
		db.mu.Unlock()
		return nil, fmt.Errorf("sql: database tainted by durability failure: %w", err)
	}
	snap := db.snapshotLocked()
	db.mu.Unlock()
	return db.runSelect(sel, snap)
}

// Snapshot returns an isolated consistent view of all tables; it copies
// no row data (Table.snapshot).
func (db *DB) Snapshot() *Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.snapshotLocked()
}

func (db *DB) snapshotLocked() *Snapshot {
	s := &Snapshot{tables: map[string]*Table{}, schema: db.schema}
	for n, t := range db.tables {
		s.tables[n] = t.snapshot()
	}
	return s
}

// QuerySnapshot runs a SELECT against a previously taken snapshot.
func (db *DB) QuerySnapshot(snap *Snapshot, sql string) (*Result, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*Select)
	if !ok {
		return nil, fmt.Errorf("sql: QuerySnapshot requires SELECT")
	}
	return db.runSelect(sel, snap)
}

func (db *DB) execCreate(s *CreateTable) (*Result, []wal.Op, error) {
	if _, dup := db.tables[s.Name]; dup {
		return nil, nil, fmt.Errorf("sql: table %q exists", s.Name)
	}
	for i, c := range s.Cols {
		for j := 0; j < i; j++ {
			if s.Cols[j] == c {
				return nil, nil, fmt.Errorf("sql: duplicate column %q", c)
			}
		}
	}
	if err := db.walUsable(); err != nil {
		return nil, nil, err
	}
	db.tables[s.Name] = newTable(s.Name, s.Cols, s.Types)
	db.schema++
	return &Result{}, []wal.Op{&wal.OpCreate{Table: s.Name, Cols: s.Cols, Types: walColTypes(s.Types)}}, nil
}

func (db *DB) execDrop(s *DropTable) (*Result, []wal.Op, error) {
	if _, ok := db.tables[s.Name]; !ok {
		return nil, nil, fmt.Errorf("sql: unknown table %q", s.Name)
	}
	if err := db.walUsable(); err != nil {
		return nil, nil, err
	}
	db.invalidate(s.Name)
	delete(db.tables, s.Name)
	db.schema++
	return &Result{}, []wal.Op{&wal.OpDrop{Table: s.Name}}, nil
}

func (db *DB) execInsert(s *Insert) (*Result, []wal.Op, error) {
	t, ok := db.tables[s.Table]
	if !ok {
		return nil, nil, fmt.Errorf("sql: unknown table %q", s.Table)
	}
	// Coerce the whole statement before appending anything: a bad
	// literal in row k must not leave rows 0..k-1 half-committed.
	rows := make([][]any, 0, len(s.Rows))
	for _, row := range s.Rows {
		vals, err := t.coerceRow(row)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, vals)
	}
	if err := db.walUsable(); err != nil {
		return nil, nil, err
	}
	for _, vals := range rows {
		t.appendVals(vals)
	}
	db.invalidate(s.Table)
	ops := []wal.Op{&wal.OpInsert{Table: s.Table, Types: walColTypes(t.ColTypes), Rows: rows}}
	return &Result{Affected: len(s.Rows)}, ops, nil
}

// matchPositions evaluates WHERE conjuncts on the current table state and
// returns matching live physical positions. The conjuncts bind as the
// WHERE of a SELECT over the table, so DML and queries share one set of
// name and literal checks.
func (db *DB) matchPositions(t *Table, where []Pred) ([]bat.OID, error) {
	snap := &Snapshot{tables: map[string]*Table{t.Name: t}}
	b, err := snap.Bind(&Select{Items: []SelItem{{Star: true}}, From: t.Name, Where: where, Limit: -1})
	if err != nil {
		return nil, err
	}
	g := &gen{Bound: b, b: mal.NewBuilder()}
	g.candidates()
	g.b.Return([]string{"cand"}, g.cands[0])
	ip := &mal.Interp{Cat: snap}
	out, err := ip.Run(g.b.Program())
	if err != nil {
		return nil, err
	}
	return out[0].B.OIDs(), nil
}

func (db *DB) execDeleteLocked(s *Delete) (*Result, []wal.Op, error) {
	t, ok := db.tables[s.Table]
	if !ok {
		return nil, nil, fmt.Errorf("sql: unknown table %q", s.Table)
	}
	pos, err := db.matchPositions(t, s.Where)
	if err != nil {
		return nil, nil, err
	}
	if len(pos) == 0 {
		return &Result{}, nil, nil
	}
	if err := db.walUsable(); err != nil {
		return nil, nil, err
	}
	t.deletePositions(pos)
	db.invalidate(s.Table)
	ops := []wal.Op{&wal.OpDelete{Table: s.Table, Pos: oidsToU64(pos)}}
	return &Result{Affected: len(pos)}, db.vacuumIfHalfDeadLocked(t, ops), nil
}

// vacuumIfHalfDeadLocked vacuums t when more than half of its positions
// are tombstoned, appending the vacuum to the statement's ops so it
// commits (and replays) in the same WAL transaction. Dead space is
// bounded by the data itself, with no timer and no knob.
func (db *DB) vacuumIfHalfDeadLocked(t *Table, ops []wal.Op) []wal.Op {
	if 2*len(t.del) <= t.TotalPositions() {
		return ops
	}
	db.vacuumTableLocked(t)
	return append(ops, &wal.OpVacuum{Table: t.Name})
}

func oidsToU64(pos []bat.OID) []uint64 {
	out := make([]uint64, len(pos))
	for i, p := range pos {
		out[i] = uint64(p)
	}
	return out
}

func (db *DB) execUpdateLocked(s *Update) (*Result, []wal.Op, error) {
	t, ok := db.tables[s.Table]
	if !ok {
		return nil, nil, fmt.Errorf("sql: unknown table %q", s.Table)
	}
	pos, err := db.matchPositions(t, s.Where)
	if err != nil {
		return nil, nil, err
	}
	if len(pos) == 0 {
		return &Result{}, nil, nil
	}
	// Updates are delete + re-insert with modified values: read the old
	// rows first and coerce every replacement row BEFORE tombstoning the
	// originals — update-as-delete+insert must not lose rows to a bad SET
	// literal.
	newRows := make([][]any, 0, len(pos))
	for _, p := range pos {
		row := make([]Lit, len(t.ColNames))
		for ci := range t.ColNames {
			if lit, isSet := s.Set[t.ColNames[ci]]; isSet {
				row[ci] = lit
				continue
			}
			col := t.cols[ci]
			switch t.ColTypes[ci] {
			case TInt:
				row[ci] = Lit{Kind: TInt, I: col.IntAt(int(p))}
			case TFloat:
				row[ci] = Lit{Kind: TFloat, F: col.FloatAt(int(p))}
			default:
				row[ci] = Lit{Kind: TText, S: col.StrAt(int(p))}
			}
		}
		vals, err := t.coerceRow(row)
		if err != nil {
			return nil, nil, err
		}
		newRows = append(newRows, vals)
	}
	if err := db.walUsable(); err != nil {
		return nil, nil, err
	}
	t.deletePositions(pos)
	for _, vals := range newRows {
		t.appendVals(vals)
	}
	db.invalidate(s.Table)
	// UPDATE is delete + append; its WAL image is the same two physical
	// ops inside ONE transaction.
	ops := []wal.Op{
		&wal.OpDelete{Table: s.Table, Pos: oidsToU64(pos)},
		&wal.OpInsert{Table: s.Table, Types: walColTypes(t.ColTypes), Rows: newRows},
	}
	return &Result{Affected: len(pos)}, db.vacuumIfHalfDeadLocked(t, ops), nil
}

// invalidate drops recycled intermediates depending on a table.
func (db *DB) invalidate(table string) {
	if db.Recycle == nil {
		return
	}
	// Recycler dependencies are recorded as "table.col" / "table.%del".
	if t, ok := db.tables[table]; ok {
		for _, c := range t.ColNames {
			db.Recycle.Invalidate(table + "." + c)
		}
	}
	db.Recycle.Invalidate(table + ".%del")
}

// runSelect compiles, optimizes, executes, and renders a SELECT.
func (db *DB) runSelect(sel *Select, snap *Snapshot) (*Result, error) {
	prog, err := snap.CompileSelect(sel)
	if err != nil {
		return nil, err
	}
	ip := &mal.Interp{Cat: snap, Recycler: db.Recycle}
	vals, err := ip.Run(prog)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: prog.ResultNames}
	// Scalars → one row; BATs → aligned columns.
	allScalar := true
	n := 0
	for _, v := range vals {
		if v.Kind == mal.KBAT {
			allScalar = false
			if v.B.Len() > n {
				n = v.B.Len()
			}
		}
	}
	if allScalar {
		row := make([]any, len(vals))
		for i, v := range vals {
			row[i] = scalarValue(v)
		}
		res.Rows = [][]any{row}
		return res, nil
	}
	for r := 0; r < n; r++ {
		row := make([]any, len(vals))
		for i, v := range vals {
			if v.Kind == mal.KBAT {
				row[i] = cellValue(v.B.Value(r))
			} else {
				row[i] = scalarValue(v)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// cellValue maps the stored nil sentinels to SQL NULL (a Go nil cell):
// bat.NilInt for int columns, NaN (bat.NilFloat) for floats — stored by
// INSERT/UPDATE NULL or produced in flight (int_to_flt over nil,
// div_flt_nil, e.g. avg over an all-nil group) — and bat.NilStr for
// text.
func cellValue(v any) any {
	switch x := v.(type) {
	case int64:
		if x == bat.NilInt {
			return nil
		}
	case float64:
		if math.IsNaN(x) {
			return nil
		}
	case string:
		if bat.IsNilStr(x) {
			return nil
		}
	}
	return v
}

// scalarValue unboxes a scalar result; KNil (e.g. avg over no rows)
// becomes a nil cell.
func scalarValue(v mal.Val) any {
	switch v.Kind {
	case mal.KInt:
		return v.I
	case mal.KFloat:
		return v.F
	case mal.KStr:
		return v.S
	case mal.KBool:
		return v.Bool
	}
	return nil
}

// Tables lists table names, sorted.
func (db *DB) Tables() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Table exposes a table for direct (test/benchmark) access.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %q", name)
	}
	return t, nil
}
