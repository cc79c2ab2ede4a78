package sqlfe

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bat"
	"repro/internal/batalg"
)

// Table stores one relation decomposed by column into BATs with dense
// (non-stored) TID heads, plus the update machinery of §3.2: per-column
// insert delta BATs and a BAT of deleted positions. Updates only touch the
// deltas; the main columns stay immutable until a (not yet needed)
// vacuum/merge, which is what makes snapshots cheap.
type Table struct {
	Name     string
	ColNames []string
	ColTypes []ColType

	main  []*bat.BAT // immutable main columns
	zones []*ZoneMap // per main column (nil for TEXT); replaced with main, never edited
	ins   []*bat.BAT // insert deltas, aligned across columns
	del   []bat.OID  // deleted positions (into main++ins), sorted

	version int64

	// effective-column cache, invalidated by version
	effCols []*bat.BAT
	effVer  int64
}

func newTable(name string, cols []string, types []ColType) *Table {
	t := &Table{Name: name, ColNames: cols, ColTypes: types}
	main := make([]*bat.BAT, len(types))
	for i, ct := range types {
		main[i] = bat.New(batType(ct))
		t.ins = append(t.ins, bat.New(batType(ct)))
	}
	t.setMain(main)
	return t
}

// setMain installs a new set of main columns with their zone maps —
// the one place a main column is born, so the two never disagree.
func (t *Table) setMain(main []*bat.BAT) {
	t.main = main
	t.zones = make([]*ZoneMap, len(main))
	for i, b := range main {
		t.zones[i] = buildZoneMap(b)
	}
}

func batType(ct ColType) bat.Type {
	switch ct {
	case TInt:
		return bat.TypeInt
	case TFloat:
		return bat.TypeFloat
	default:
		return bat.TypeStr
	}
}

// colIndex resolves a (possibly table-qualified) column name.
func (t *Table) colIndex(name string) (int, error) {
	name = unqualify(name, t.Name)
	for i, c := range t.ColNames {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("sql: no column %q in table %q", name, t.Name)
}

func unqualify(name, table string) string {
	prefix := table + "."
	if len(name) > len(prefix) && name[:len(prefix)] == prefix {
		return name[len(prefix):]
	}
	return name
}

// TotalPositions is the number of physical positions (main + inserts),
// including deleted ones.
func (t *Table) TotalPositions() int { return t.MainRows() + t.ins[0].Len() }

// NumRows is the number of live rows.
func (t *Table) NumRows() int { return t.TotalPositions() - len(t.del) }

// appendRow adds one row to the insert deltas. The whole row is coerced
// before anything is appended, so a bad literal cannot leave the
// aligned column deltas at different lengths.
func (t *Table) appendRow(row []Lit) error {
	vals, err := t.coerceRow(row)
	if err != nil {
		return err
	}
	t.appendVals(vals)
	return nil
}

// appendVals appends one row of pre-coerced values (from coerceRow).
func (t *Table) appendVals(vals []any) {
	for i, v := range vals {
		if err := t.ins[i].Append(v); err != nil {
			// coerceRow already matched every value to its column type;
			// a failure here would desync the deltas, so it is a bug.
			panic(err)
		}
	}
	t.version++
}

// coerceRow validates and converts one row of literals without touching
// table state.
func (t *Table) coerceRow(row []Lit) ([]any, error) {
	if len(row) != len(t.ColNames) {
		return nil, fmt.Errorf("sql: %d values for %d columns of %q", len(row), len(t.ColNames), t.Name)
	}
	vals := make([]any, len(row))
	for i, lit := range row {
		v, err := coerce(lit, t.ColTypes[i])
		if err != nil {
			return nil, fmt.Errorf("sql: column %q: %w", t.ColNames[i], err)
		}
		vals[i] = v
	}
	return vals, nil
}

// coerce converts a literal to the Go value for a column type.
func coerce(lit Lit, ct ColType) (any, error) {
	if lit.Param > 0 {
		return nil, fmt.Errorf("parameter ?%d not bound", lit.Param)
	}
	if lit.Null {
		// Every column type has a stored nil representation, following the
		// MonetDB convention of reserving a domain sentinel: the minimum
		// for ints (bat.NilInt), the canonical NaN for floats
		// (bat.NilFloat), the one-byte NUL string for text (bat.NilStr).
		switch ct {
		case TInt:
			return bat.NilInt, nil
		case TFloat:
			return bat.NilFloat(), nil
		}
		return bat.NilStr, nil
	}
	switch ct {
	case TInt:
		if lit.Kind == TInt {
			return lit.I, nil
		}
	case TFloat:
		switch lit.Kind {
		case TFloat:
			return lit.F, nil
		case TInt:
			return float64(lit.I), nil
		}
	case TText:
		if lit.Kind == TText {
			// A NUL-bearing value would forge the stored nil sentinel, so
			// text is NUL-free by construction (as the BAT string heap
			// always promised).
			if strings.ContainsRune(lit.S, 0) {
				return nil, fmt.Errorf("text values may not contain NUL bytes")
			}
			return lit.S, nil
		}
	}
	return nil, fmt.Errorf("cannot store %v literal in %s column", lit.Kind, ct)
}

// deletePositions tombstones the given physical positions.
func (t *Table) deletePositions(pos []bat.OID) {
	if len(pos) == 0 {
		return
	}
	seen := make(map[bat.OID]bool, len(t.del))
	for _, d := range t.del {
		seen[d] = true
	}
	for _, p := range pos {
		if !seen[p] {
			t.del = append(t.del, p)
			seen[p] = true
		}
	}
	sort.Slice(t.del, func(i, j int) bool { return t.del[i] < t.del[j] })
	t.version++
}

// effectiveCol returns column i as one BAT: main ++ insert delta. Deleted
// positions remain present (they are filtered via the deleted candidate
// list) so that physical positions are stable.
func (t *Table) effectiveCol(i int) *bat.BAT {
	if t.effVer != t.version || t.effCols == nil {
		t.effCols = make([]*bat.BAT, len(t.main))
		t.effVer = t.version
	}
	if t.effCols[i] == nil {
		if t.ins[i].Len() == 0 {
			t.effCols[i] = t.main[i]
		} else {
			merged := t.main[i].Copy()
			batalg.AppendBAT(merged, t.ins[i])
			t.effCols[i] = merged
		}
	}
	return t.effCols[i]
}

// ColumnBAT returns column i as one effective BAT (main ++ insert
// delta, deleted positions still present). Read-only: callers must not
// mutate the returned BAT. This is the bridge the vectorized engine
// scans through.
func (t *Table) ColumnBAT(i int) *bat.BAT { return t.effectiveCol(i) }

// MainRows is the number of leading positions of every ColumnBAT that
// sit in the main columns; the insert delta follows them.
func (t *Table) MainRows() int { return t.main[0].Len() }

// ZoneMap returns the zone map of column i, nil for a TEXT column. It
// covers positions [0, MainRows()) of ColumnBAT(i); the insert delta
// behind them is unmapped.
func (t *Table) ZoneMap(i int) *ZoneMap { return t.zones[i] }

// ApproxBytes reports the tail-storage bytes of every column,
// main plus insert delta. It deliberately bypasses the lazy
// effective-column merge (which is unsynchronized and would double the
// memory it is trying to predict), so it is safe to call on a shared
// snapshot and cheap enough for per-query admission control.
func (t *Table) ApproxBytes() int64 {
	var n int64
	for i := range t.main {
		n += int64(t.main[i].HeapBytes())
		n += int64(t.ins[i].HeapBytes())
	}
	return n
}

// HasDeletes reports whether any position is tombstoned. A table with
// deletes cannot be scanned positionally without the deleted filter.
func (t *Table) HasDeletes() bool { return len(t.del) > 0 }

// deletedBAT returns the sorted deleted-position candidate list.
func (t *Table) deletedBAT() *bat.BAT {
	b := bat.FromOIDs(append([]bat.OID(nil), t.del...))
	b.SetProps(bat.Props{Sorted: true, Key: true, NoNil: true, RevSorted: len(t.del) <= 1})
	return b
}

// snapshot returns an isolated copy: main columns shared, deltas copied —
// the paper's "relatively cheap snapshot isolation mechanism".
func (t *Table) snapshot() *Table {
	s := &Table{
		Name:     t.Name,
		ColNames: t.ColNames,
		ColTypes: t.ColTypes,
		main:     t.main, // shared: immutable
		zones:    t.zones,
		del:      append([]bat.OID(nil), t.del...),
		version:  t.version,
	}
	for _, d := range t.ins {
		s.ins = append(s.ins, d.Copy())
	}
	return s
}

// Snapshot is a consistent view of a set of tables; it implements
// mal.Catalog with names "table.col" and "table.%del".
type Snapshot struct {
	tables map[string]*Table
	schema int64 // the DB's schema version when the snapshot was taken
}

// SchemaVersion returns the catalog version this snapshot was taken
// at. A plan compiled against a snapshot is valid exactly for
// snapshots of the same version — comparing against the LIVE version
// instead would mis-stamp plans compiled on pinned (frozen) snapshots.
func (s *Snapshot) SchemaVersion() int64 { return s.schema }

// BindBAT implements mal.Catalog.
func (s *Snapshot) BindBAT(name string) (*bat.BAT, error) {
	tbl, col, ok := splitQualified(name)
	if !ok {
		return nil, fmt.Errorf("sql: bad BAT name %q", name)
	}
	t, okT := s.tables[tbl]
	if !okT {
		return nil, fmt.Errorf("sql: unknown table %q", tbl)
	}
	if col == "%del" {
		return t.deletedBAT(), nil
	}
	i, err := t.colIndex(col)
	if err != nil {
		return nil, err
	}
	return t.effectiveCol(i), nil
}

// Version implements mal.Catalog.
func (s *Snapshot) Version(name string) int64 {
	tbl, _, ok := splitQualified(name)
	if !ok {
		return 0
	}
	if t, okT := s.tables[tbl]; okT {
		return t.version
	}
	return 0
}

// Materialize warms every effective-column cache. A snapshot that will
// be shared by concurrent readers must be materialized first: the lazy
// main++delta merge in ColumnBAT/BindBAT is not synchronized.
func (s *Snapshot) Materialize() {
	for _, t := range s.tables {
		for i := range t.ColNames {
			t.effectiveCol(i)
		}
	}
}

// Table returns the snapshot's view of a table.
func (s *Snapshot) Table(name string) (*Table, error) {
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %q", name)
	}
	return t, nil
}

func splitQualified(name string) (table, col string, ok bool) {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i], name[i+1:], true
		}
	}
	return "", "", false
}
