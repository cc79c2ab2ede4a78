package engine

import (
	"testing"
)

// TestTextNullEndToEnd: a TEXT NULL goes in as a literal and as a bound
// argument, IS NULL counts both, and a typed *string destination
// refuses it loudly. The differential driver (diff_test.go) holds TEXT
// NULLs to its reference through checkpoints and WAL replay.
func TestTextNullEndToEnd(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE people (id INT, name TEXT)`)
	mustExec(t, db, `INSERT INTO people VALUES (1, 'ada'), (2, NULL), (3, '')`)
	mustExec(t, db, `INSERT INTO people VALUES (?, ?)`, 4, nil)
	got := collect(t)(db.Query(bg, `SELECT id, name FROM people WHERE name IS NULL`))
	if err := Unordered.Check(got, [][]any{{int64(2), nil}, {int64(4), nil}}); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(bg, `SELECT name FROM people WHERE id = 2`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatal("no row")
	}
	var s string
	if err := rows.Scan(&s); err == nil {
		t.Fatal("scanning text NULL into *string must error")
	}
}
