package physical

import (
	"os"
	"strings"
	"testing"

	"repro/internal/sqlfe"
)

// fixedCatalog builds the three-table database the golden corpus and
// FuzzBindSelect bind against: INT, FLOAT and TEXT columns with nils in
// each, duplicate and negative keys, -0.0 beside 0.0; the first batch
// of rows was saved and reloaded (zone-mapped), the rest appended since;
// t carries tombstones among both, and rows appended after them.
func fixedCatalog(tb testing.TB) *sqlfe.DB {
	tb.Helper()
	exec := func(db *sqlfe.DB, stmts ...string) {
		for _, s := range stmts {
			if _, err := db.Exec(s); err != nil {
				tb.Fatalf("%s: %v", s, err)
			}
		}
	}
	db := sqlfe.NewDB()
	exec(db,
		"CREATE TABLE t (a INT, b INT, x INT, f FLOAT, s TEXT)",
		"CREATE TABLE u (a INT, w INT, g FLOAT, s TEXT)",
		"CREATE TABLE z (a INT, y INT, h FLOAT)",
		"INSERT INTO t VALUES (1, 10, 5, 1.5, 'x'), (2, 20, -5, 2.5, 'y'), (2, 10, 0, NULL, 'x'), (NULL, 30, 7, 0.0, NULL), (3, NULL, 7, -0.0, ''), (1, 10, NULL, 2.5, 'y')",
		"INSERT INTO u VALUES (1, 100, 0.5, 'x'), (2, 200, NULL, 'y'), (2, 300, 1.5, NULL), (NULL, 400, 2.5, 'x'), (4, NULL, 0.5, 'q')",
		"INSERT INTO z VALUES (1, 10, 1.0), (2, 20, NULL), (3, NULL, 3.0), (NULL, 10, 1.0), (2, 20, 2.0)",
	)
	dir := tb.TempDir()
	if err := db.Save(dir); err != nil {
		tb.Fatal(err)
	}
	db, err := sqlfe.Load(dir)
	if err != nil {
		tb.Fatal(err)
	}
	exec(db,
		"INSERT INTO t VALUES (4, 40, 9, 4.5, 'z'), (1, NULL, 5, NULL, 'x'), (-2, 20, -5, 1.5, NULL)",
		"INSERT INTO u VALUES (1, 100, 0.5, 'x'), (3, 500, -1.5, 'y')",
		"INSERT INTO z VALUES (4, 40, 4.0), (1, 10, NULL)",
		"DELETE FROM t WHERE b = 20",
		"INSERT INTO t VALUES (2, 20, 1, 3.5, 'w'), (NULL, 50, 5, NULL, 'x')",
	)
	return db
}

// readLines returns the non-empty lines of a testdata file.
func readLines(tb testing.TB, path string) []string {
	tb.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	for _, l := range strings.Split(string(raw), "\n") {
		if l = strings.TrimSpace(l); l != "" {
			out = append(out, l)
		}
	}
	return out
}

// corpus is every statement the golden test pins and FuzzBindSelect
// starts from: the SELECT shapes of engine/*_test.go rewritten over
// fixedCatalog, then the FuzzParseSQL seeds.
func corpus(tb testing.TB) []string {
	return append(readLines(tb, "testdata/corpus.sql"), readLines(tb, "../sqlfe/testdata/parse_seeds.sql")...)
}
