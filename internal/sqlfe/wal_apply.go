package sqlfe

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/batalg"
	"repro/internal/wal"
)

// This file is the bridge between the WAL and the storage layer:
// ApplyTx replays a committed transaction's physical ops during
// recovery, Vacuum drops tombstoned positions from the columns (logged
// as its own op, since it shifts physical positions), and Checkpoint
// turns an atomic Save into the WAL truncation point.

// ApplyTx replays one committed WAL transaction. Replay is physical —
// the ops carry coerced values and physical positions, so the recovered
// state is byte-identical to the pre-crash state, independent of query
// evaluation. Errors mean the log disagrees with the checkpoint (or is
// corrupt in a way the checksums cannot see) and recovery must stop.
// The caller is responsible for skipping transactions the checkpoint
// snapshot already contains (tx.CommitLSN <= the snapshot watermark).
func (db *DB) ApplyTx(tx wal.Tx) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, op := range tx.Ops {
		if err := db.applyOpLocked(op); err != nil {
			return err
		}
	}
	if tx.CommitLSN > db.appliedLSN {
		db.appliedLSN = tx.CommitLSN
	}
	return nil
}

func (db *DB) applyOpLocked(op wal.Op) error {
	switch o := op.(type) {
	case *wal.OpCreate:
		if _, dup := db.tables[o.Table]; dup {
			return fmt.Errorf("sql: wal replay: table %q already exists", o.Table)
		}
		if len(o.Cols) != len(o.Types) {
			return fmt.Errorf("sql: wal replay: create %q has %d cols, %d types", o.Table, len(o.Cols), len(o.Types))
		}
		types, err := colTypesFromWAL(o.Types)
		if err != nil {
			return err
		}
		db.tables[o.Table] = newTable(o.Table, o.Cols, types)
		db.schema++
	case *wal.OpDrop:
		if _, ok := db.tables[o.Table]; !ok {
			return fmt.Errorf("sql: wal replay: drop of unknown table %q", o.Table)
		}
		db.invalidate(o.Table)
		delete(db.tables, o.Table)
		db.schema++
	case *wal.OpInsert:
		t, ok := db.tables[o.Table]
		if !ok {
			return fmt.Errorf("sql: wal replay: insert into unknown table %q", o.Table)
		}
		for _, row := range o.Rows {
			if err := t.appendRaw(row); err != nil {
				return fmt.Errorf("sql: wal replay: %w", err)
			}
		}
		db.invalidate(o.Table)
	case *wal.OpDelete:
		t, ok := db.tables[o.Table]
		if !ok {
			return fmt.Errorf("sql: wal replay: delete from unknown table %q", o.Table)
		}
		total := uint64(t.TotalPositions())
		pos := make([]bat.OID, len(o.Pos))
		for i, p := range o.Pos {
			if p >= total {
				return fmt.Errorf("sql: wal replay: delete position %d out of range (table %q has %d)", p, o.Table, total)
			}
			pos[i] = bat.OID(p)
		}
		t.deletePositions(pos)
		db.invalidate(o.Table)
	case *wal.OpVacuum:
		t, ok := db.tables[o.Table]
		if !ok {
			return fmt.Errorf("sql: wal replay: vacuum of unknown table %q", o.Table)
		}
		db.vacuumTableLocked(t)
	default:
		return fmt.Errorf("sql: wal replay: unknown op %T", op)
	}
	return nil
}

func colTypesFromWAL(types []byte) ([]ColType, error) {
	out := make([]ColType, len(types))
	for i, b := range types {
		switch b {
		case wal.ColInt:
			out[i] = TInt
		case wal.ColFloat:
			out[i] = TFloat
		case wal.ColText:
			out[i] = TText
		default:
			return nil, fmt.Errorf("sql: wal replay: unknown column type byte %d", b)
		}
	}
	return out, nil
}

// Vacuum drops the tombstoned positions of every table that has any,
// rebuilding its columns. Each table's vacuum is WAL-logged as its own
// transaction: vacuuming shifts physical positions, and later delete
// records address the post-vacuum layout. It returns the number of
// tables vacuumed.
func (db *DB) Vacuum() (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	n := 0
	for _, name := range db.tablesSortedLocked() {
		t := db.tables[name]
		if len(t.del) == 0 {
			continue
		}
		if err := db.walUsable(); err != nil {
			return n, err
		}
		db.vacuumTableLocked(t)
		if _, err := db.logTxLocked([]wal.Op{&wal.OpVacuum{Table: name}}); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// vacuumTableLocked rebuilds t's columns with the tombstoned positions
// dropped — the state Save persists, now reached in memory — and their
// zone maps over every row. The old columns are left untouched for live
// snapshots (they share them); the table just points at the new ones.
func (db *DB) vacuumTableLocked(t *Table) {
	live := liveCand(t)
	cols := make([]*bat.BAT, len(t.cols))
	for i, c := range t.cols {
		cols[i] = batalg.LeftFetchJoin(live, c)
	}
	t.setCols(cols)
	t.del = nil
	t.version++
	db.invalidate(t.Name)
}

// Checkpoint vacuums, saves atomically, and truncates the WAL — the
// recovery baseline moves to dir and the log restarts empty. The
// in-memory vacuum first is what keeps WAL positions consistent: the
// saved form has tombstoned positions dropped, so memory must drop
// them too before post-checkpoint deletes are logged against it.
//
// Save and truncate are two separate durable steps; the snapshot's
// wal_lsn watermark (written by saveLocked) is what makes the window
// between them crash-safe: if the process dies — or the truncate fails
// and poisons the log — after the CURRENT rename but before the log is
// cut, recovery finds the new snapshot plus the full old WAL, and skips
// every transaction with CommitLSN <= watermark instead of replaying it
// onto a state that already contains its effects.
func (db *DB) Checkpoint(dir string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.walUsable(); err != nil {
		return err
	}
	for _, name := range db.tablesSortedLocked() {
		t := db.tables[name]
		if len(t.del) == 0 {
			continue
		}
		db.vacuumTableLocked(t)
		// Logged even though the log is truncated just below: if the
		// save fails midway, the retained WAL must still replay onto
		// the OLD checkpoint, which needs the vacuum in sequence.
		if _, err := db.logTxLocked([]wal.Op{&wal.OpVacuum{Table: name}}); err != nil {
			return err
		}
	}
	if err := db.saveLocked(dir); err != nil {
		return err
	}
	if db.WAL != nil {
		return db.WAL.Truncate()
	}
	return nil
}

// appendRaw appends one row of already-stored-representation values
// (WAL replay), validating value kinds against the column types.
func (t *Table) appendRaw(vals []any) error {
	if len(vals) != len(t.ColNames) {
		return fmt.Errorf("row has %d values for %d columns of %q", len(vals), len(t.ColNames), t.Name)
	}
	for i, v := range vals {
		ok := false
		switch t.ColTypes[i] {
		case TInt:
			_, ok = v.(int64)
		case TFloat:
			_, ok = v.(float64)
		case TText:
			_, ok = v.(string)
		}
		if !ok {
			return fmt.Errorf("column %q of %q: %T does not match %s", t.ColNames[i], t.Name, v, t.ColTypes[i])
		}
	}
	t.appendVals(vals)
	return nil
}
