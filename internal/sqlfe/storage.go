package sqlfe

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/bat"
)

// Table stores one relation decomposed by column into BATs with dense
// (non-stored) TID heads, plus the update machinery of §3.2. Each column
// is ONE append-only BAT: INSERT (and the re-insert half of UPDATE)
// appends to it and nothing ever rewrites a stored position, so a
// snapshot shares every column by taking a Slice(0, n) header — no row
// is copied. DELETE tombstones positions in a sorted list that is
// replaced, never edited, so snapshots share it by reference too. Only
// a vacuum rebuilds the columns, into new BATs.
type Table struct {
	Name     string
	ColNames []string
	ColTypes []ColType

	cols  []*bat.BAT // append-only columns, aligned
	zones []*ZoneMap // per column (nil for TEXT); built with the column, never edited
	zoned int        // leading positions the zone maps cover; rows appended since lie past them
	del   []bat.OID  // tombstoned positions, sorted; replaced on every DELETE, never edited

	version int64
}

func newTable(name string, cols []string, types []ColType) *Table {
	t := &Table{Name: name, ColNames: cols, ColTypes: types}
	fresh := make([]*bat.BAT, len(types))
	for i, ct := range types {
		fresh[i] = bat.New(batType(ct))
	}
	t.setCols(fresh)
	return t
}

// setCols installs a rebuilt set of columns with their zone maps — the
// one place a column is born, so the two never disagree.
func (t *Table) setCols(cols []*bat.BAT) {
	t.cols = cols
	t.zones = make([]*ZoneMap, len(cols))
	for i, b := range cols {
		t.zones[i] = buildZoneMap(b)
	}
	t.zoned = cols[0].Len()
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

// TotalPositions is the number of physical positions, including
// tombstoned ones.
func (t *Table) TotalPositions() int { return t.cols[0].Len() }

// NumRows is the number of live rows.
func (t *Table) NumRows() int { return t.TotalPositions() - len(t.del) }

// appendVals appends one row of pre-coerced values (from coerceRow).
func (t *Table) appendVals(vals []any) {
	for i, v := range vals {
		if err := t.cols[i].Append(v); err != nil {
			// coerceRow already matched every value to its column type;
			// a failure here would desync the columns, so it is a bug.
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

// deletePositions tombstones the given physical positions. The merged
// list is a new slice: snapshots still hold the old one.
func (t *Table) deletePositions(pos []bat.OID) {
	if len(pos) == 0 {
		return
	}
	merged := append(slices.Clone(t.del), pos...)
	slices.Sort(merged)
	t.del = slices.Compact(merged)
	t.version++
}

// ColumnBAT returns column i, tombstoned positions still present.
// Read-only: callers must not mutate the returned BAT. This is the
// bridge the vectorized engine scans through.
func (t *Table) ColumnBAT(i int) *bat.BAT { return t.cols[i] }

// ZonedRows is the number of leading positions of every ColumnBAT the
// zone maps cover; rows appended since the columns were built follow.
func (t *Table) ZonedRows() int { return t.zoned }

// ZoneMap returns the zone map of column i, nil for a TEXT column. It
// covers positions [0, ZonedRows()) of ColumnBAT(i).
func (t *Table) ZoneMap(i int) *ZoneMap { return t.zones[i] }

// ApproxBytes reports the tail-storage bytes of every column, cheap
// enough to check per query against a memory budget.
func (t *Table) ApproxBytes() int64 {
	var n int64
	for _, c := range t.cols {
		n += int64(c.HeapBytes())
	}
	return n
}

// Deleted returns the sorted tombstoned positions. Read-only: the slice
// is shared with every snapshot that holds it.
func (t *Table) Deleted() []bat.OID { return t.del }

// deletedBAT returns the sorted deleted-position candidate list.
func (t *Table) deletedBAT() *bat.BAT {
	b := bat.FromOIDs(t.del[:len(t.del):len(t.del)])
	b.SetProps(bat.Props{Sorted: true, Key: true, NoNil: true, RevSorted: len(t.del) <= 1})
	return b
}

// snapshot returns an isolated view: a Slice(0, n) header per column
// and the tombstone list and zone maps by reference — the paper's
// "relatively cheap snapshot isolation mechanism", at a cost that does
// not depend on the table's size.
func (t *Table) snapshot() *Table {
	s := *t
	s.cols = make([]*bat.BAT, len(t.cols))
	for i, c := range t.cols {
		s.cols[i] = c.Slice(0, c.Len())
	}
	return &s
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
	return t.cols[i], nil
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
