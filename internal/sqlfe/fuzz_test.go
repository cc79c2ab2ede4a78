package sqlfe

import (
	"os"
	"strings"
	"testing"
)

// FuzzParseSQL throws arbitrary statement text at the parser: it must
// return a statement or an error, never panic, on any input — the
// shell and the engine API feed it user text verbatim.
func FuzzParseSQL(f *testing.F) {
	// testdata/parse_seeds.sql is shared with physical.FuzzBindSelect,
	// which starts from the same statements.
	raw, err := os.ReadFile("testdata/parse_seeds.sql")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f.Add(seed)
	}
	f.Add("SELECT x -- comment\nFROM t")
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err == nil && stmt == nil {
			t.Fatalf("Parse(%q) returned neither a statement nor an error", src)
		}
		if err != nil && err.Error() == "" {
			t.Fatalf("Parse(%q): error with empty message", src)
		}
	})
}
