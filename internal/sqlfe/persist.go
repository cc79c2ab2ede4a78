package sqlfe

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bat"
	"repro/internal/batalg"
)

// On-disk layout: <dir>/CURRENT names the active snapshot directory
// <dir>/snap-NNNNNN/, which holds catalog.json (tables and schemas) and
// one <table>.<col>.bat file per column in the BAT binary format.
//
// Save is ATOMIC and never writes in place: a full new snapshot
// directory is written and fsynced first, then CURRENT is renamed over
// — the single commit point — and the parent directory fsynced. A
// crash at any byte leaves CURRENT pointing at a complete snapshot
// (the new one or the previous one), never a half-written mix. Old
// snapshot directories are garbage-collected after the commit.
//
// A directory without CURRENT holds no database; one that has a
// catalog.json directly in it all the same (the pre-WAL flat layout,
// which nothing writes or reads any more) is refused, never opened as
// empty and overwritten.
//
// Saving drops tombstoned positions, so the persisted form is a clean
// set of columns — the same state MonetDB reaches after delta
// propagation.

type diskCatalog struct {
	Tables []diskTable `json:"tables"`
	// WalLSN is the checkpoint watermark: the highest WAL commit LSN
	// whose effects this snapshot contains. Recovery skips replaying
	// transactions at or below it — the crash window between a committed
	// save and the WAL truncation would otherwise replay them twice.
	// Absent (0) in pre-watermark snapshots, which never coexisted with
	// a retained WAL.
	WalLSN uint64 `json:"wal_lsn,omitempty"`
}

type diskTable struct {
	Name  string   `json:"name"`
	Cols  []string `json:"cols"`
	Types []string `json:"types"`
	Rows  int      `json:"rows"`
}

// Save persists the database into dir (created if needed), atomically.
func (db *DB) Save(dir string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.saveLocked(dir)
}

func (db *DB) saveLocked(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	snap := fmt.Sprintf("snap-%06d", currentGen(dir)+1)
	tmp := filepath.Join(dir, snap)
	// A leftover directory with this name is debris from a crashed Save
	// that never committed; replace it.
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	cat := diskCatalog{WalLSN: db.appliedLSN}
	for _, name := range db.tablesSortedLocked() {
		t := db.tables[name]
		dt := diskTable{Name: t.Name, Rows: t.NumRows()}
		var live *bat.BAT
		if len(t.del) > 0 {
			live = liveCand(t)
		}
		for i, cn := range t.ColNames {
			dt.Cols = append(dt.Cols, cn)
			dt.Types = append(dt.Types, t.ColTypes[i].String())
			col := t.cols[i]
			if live != nil {
				col = batalg.LeftFetchJoin(live, col)
			}
			if err := writeBATFile(filepath.Join(tmp, t.Name+"."+cn+".bat"), col); err != nil {
				return err
			}
		}
		cat.Tables = append(cat.Tables, dt)
	}
	blob, err := json.MarshalIndent(cat, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFileSync(filepath.Join(tmp, "catalog.json"), blob); err != nil {
		return err
	}
	if err := syncDir(tmp); err != nil {
		return err
	}
	// Commit point: CURRENT now names the complete, durable snapshot.
	curTmp := filepath.Join(dir, "CURRENT.tmp")
	if err := writeFileSync(curTmp, []byte(snap+"\n")); err != nil {
		return err
	}
	if err := os.Rename(curTmp, filepath.Join(dir, "CURRENT")); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	// GC superseded snapshots (best-effort: failing to clean up must not
	// fail a committed save).
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if e.IsDir() && strings.HasPrefix(e.Name(), "snap-") && e.Name() != snap {
				//lint:ignore walcheck best-effort GC of superseded snapshots; the new snapshot is already durable and CURRENT points at it
				os.RemoveAll(filepath.Join(dir, e.Name()))
			}
		}
	}
	return nil
}

// currentGen parses the generation number out of CURRENT; 0 when the
// pointer is absent or unparseable (the next save then writes snap 1).
func currentGen(dir string) int {
	b, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
	if err != nil {
		return 0
	}
	var n int
	if _, err := fmt.Sscanf(strings.TrimSpace(string(b)), "snap-%06d", &n); err != nil {
		return 0
	}
	return n
}

// DataDir resolves the directory the active snapshot lives in: the one
// CURRENT names.
func DataDir(dir string) (string, error) {
	b, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
	if err != nil {
		return "", err
	}
	name := strings.TrimSpace(string(b))
	if name == "" || name != filepath.Base(name) || name == "." || name == ".." {
		return "", fmt.Errorf("sql: corrupt CURRENT pointer %q", name)
	}
	return filepath.Join(dir, name), nil
}

// DirHasDB reports whether dir holds a saved database (a CURRENT
// pointer). Stat failures other than "not exist" are returned, and so
// is a flat catalog.json without CURRENT: treating an unreadable
// database as absent would let a later save overwrite it.
func DirHasDB(dir string) (bool, error) {
	if _, err := os.Stat(filepath.Join(dir, "CURRENT")); err == nil {
		return true, nil
	} else if !os.IsNotExist(err) {
		return false, err
	}
	if _, err := os.Stat(filepath.Join(dir, "catalog.json")); err == nil {
		return false, fmt.Errorf("sql: %s holds a flat-layout database (catalog.json, no CURRENT), a format no longer supported", dir)
	} else if !os.IsNotExist(err) {
		return false, err
	}
	return false, nil
}

// liveCand returns the candidate list of live positions of t.
func liveCand(t *Table) *bat.BAT {
	all := bat.NewVoid(0, t.TotalPositions())
	return batalg.Diff(all, t.deletedBAT())
}

// writeBATFile persists one column, fsynced: a snapshot directory must
// be fully durable before CURRENT commits to it.
func writeBATFile(path string, b *bat.BAT) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := b.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeFileSync(path string, blob []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load reads a database previously written by Save.
func Load(dir string) (*DB, error) {
	base, err := DataDir(dir)
	if err != nil {
		return nil, err
	}
	blob, err := os.ReadFile(filepath.Join(base, "catalog.json"))
	if err != nil {
		return nil, err
	}
	var cat diskCatalog
	if err := json.Unmarshal(blob, &cat); err != nil {
		return nil, fmt.Errorf("sql: corrupt catalog: %w", err)
	}
	db := NewDB()
	db.appliedLSN = cat.WalLSN
	for _, dt := range cat.Tables {
		types := make([]ColType, len(dt.Types))
		for i, ts := range dt.Types {
			switch ts {
			case "INT":
				types[i] = TInt
			case "FLOAT":
				types[i] = TFloat
			case "TEXT":
				types[i] = TText
			default:
				return nil, fmt.Errorf("sql: unknown column type %q", ts)
			}
		}
		t := newTable(dt.Name, dt.Cols, types)
		cols := make([]*bat.BAT, len(dt.Cols))
		for i, cn := range dt.Cols {
			col, err := readBATFile(filepath.Join(base, dt.Name+"."+cn+".bat"))
			if err != nil {
				return nil, err
			}
			if col.Len() != dt.Rows {
				return nil, fmt.Errorf("sql: table %q column %q has %d rows, catalog says %d",
					dt.Name, cn, col.Len(), dt.Rows)
			}
			if col.TailType() != batType(types[i]) {
				return nil, fmt.Errorf("sql: table %q column %q type mismatch", dt.Name, cn)
			}
			cols[i] = col
		}
		t.setCols(cols)
		t.version = 1
		db.tables[dt.Name] = t
	}
	return db, nil
}

func readBATFile(path string) (*bat.BAT, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b, err := bat.ReadFrom(f)
	if err != nil {
		return nil, fmt.Errorf("sql: corrupt column file %s: %w", filepath.Base(path), err)
	}
	return b, nil
}

func (db *DB) tablesSortedLocked() []string {
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	// small n; insertion sort avoids importing sort twice
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
