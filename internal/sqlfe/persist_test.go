package sqlfe

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	db := peopleDB(t)
	mustExec(t, db, "CREATE TABLE nums (a INT, f FLOAT)")
	mustExec(t, db, "INSERT INTO nums VALUES (1, 1.5), (2, 2.5)")
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := mustExec(t, got, "SELECT name, age FROM people ORDER BY age")
	if len(r.Rows) != 4 || r.Rows[0][0] != "John Wayne" {
		t.Fatalf("rows = %v", r.Rows)
	}
	r2 := mustExec(t, got, "SELECT sum(f) FROM nums")
	if r2.Rows[0][0] != 4.0 {
		t.Fatalf("rows = %v", r2.Rows)
	}
}

func TestSaveVacuumsDeltas(t *testing.T) {
	db := peopleDB(t)
	mustExec(t, db, "DELETE FROM people WHERE age = 1927")
	mustExec(t, db, "INSERT INTO people VALUES ('Post Delta', 2001)")
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := got.Table("people")
	if err != nil {
		t.Fatal(err)
	}
	// After load: clean main columns, empty deltas.
	if tbl.NumRows() != 3 || tbl.TotalPositions() != 3 {
		t.Fatalf("rows=%d positions=%d", tbl.NumRows(), tbl.TotalPositions())
	}
	r := mustExec(t, got, "SELECT name FROM people WHERE age >= 2000")
	if len(r.Rows) != 1 || r.Rows[0][0] != "Post Delta" {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestLoadedDBIsWritable(t *testing.T) {
	db := peopleDB(t)
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, got, "INSERT INTO people VALUES ('Newcomer', 1990)")
	mustExec(t, got, "DELETE FROM people WHERE name = 'John Wayne'")
	r := mustExec(t, got, "SELECT count(*) FROM people")
	if r.Rows[0][0] != int64(4) {
		t.Fatalf("count = %v", r.Rows)
	}
}

func TestSaveLoadEmptyDB(t *testing.T) {
	dir := t.TempDir()
	if err := NewDB().Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tables()) != 0 {
		t.Fatalf("tables = %v", got.Tables())
	}
}

func TestLoadCorruptCatalog(t *testing.T) {
	dir := t.TempDir()
	if err := NewDB().Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(colPath(t, dir, "catalog.json"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("expected corrupt-catalog error")
	}
}

// The pre-WAL flat layout (catalog.json directly in dir, no CURRENT) is
// refused by both entry points rather than misread or taken for "no
// database here"; an empty directory is simply absent.
func TestFlatLayoutRejected(t *testing.T) {
	dir := t.TempDir()
	if has, err := DirHasDB(dir); has || err != nil {
		t.Fatalf("empty dir: DirHasDB = %v, %v", has, err)
	}
	flat := []byte(`{"tables": []}`)
	if err := os.WriteFile(filepath.Join(dir, "catalog.json"), flat, 0o644); err != nil {
		t.Fatal(err)
	}
	if has, err := DirHasDB(dir); has || err == nil {
		t.Fatalf("flat dir: DirHasDB = %v, %v; want an error", has, err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("Load read a flat-layout directory")
	}
}

// colPath resolves a column file inside the active snapshot directory.
func colPath(t *testing.T, dir, file string) string {
	t.Helper()
	base, err := DataDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(base, file)
}

func TestLoadMissingColumnFile(t *testing.T) {
	db := peopleDB(t)
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(colPath(t, dir, "people.age.bat")); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("expected missing-file error")
	}
}

func TestLoadTruncatedColumnFile(t *testing.T) {
	db := peopleDB(t)
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	path := colPath(t, dir, "people.age.bat")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("expected truncated-file error")
	}
}

func TestLoadRowCountMismatch(t *testing.T) {
	db := peopleDB(t)
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Overwrite one column with a shorter BAT.
	other := NewDB()
	if _, err := other.Exec("CREATE TABLE people (name TEXT, age INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Exec("INSERT INTO people VALUES ('x', 1)"); err != nil {
		t.Fatal(err)
	}
	dir2 := t.TempDir()
	if err := other.Save(dir2); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(colPath(t, dir2, "people.age.bat"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(colPath(t, dir, "people.age.bat"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("expected row-count mismatch error")
	}
}

func TestSaveLoadPreservesQuerySemantics(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE s (k INT, v INT)")
	mustExec(t, db, "INSERT INTO s VALUES (1, 10), (2, 20), (1, 30), (3, 5)")
	mustExec(t, db, "UPDATE s SET v = 99 WHERE k = 3")
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	q := "SELECT k, sum(v) AS t FROM s GROUP BY k ORDER BY k"
	a := mustExec(t, db, q)
	b := mustExec(t, got, q)
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatalf("pre-save %v != post-load %v", a.Rows, b.Rows)
	}
}
