package main

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/engine"
	"repro/internal/wal"
)

// A failed Close on a -d database is a failed checkpoint: the on-disk
// state is behind what the session acknowledged. closeDB must surface
// that (realMain turns it into exit code 1) instead of discarding it
// the way a bare `defer db.Close()` did.
func TestCloseDBReportsCheckpointFailure(t *testing.T) {
	fs := wal.NewMemFS()
	db, err := engine.Open(engine.WithDir(t.TempDir()), engine.WithWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := db.Exec(ctx, `CREATE TABLE t (x INT)`); err != nil {
		t.Fatal(err)
	}
	// Poison the log: the next fsync fails, every later durability
	// operation — including Close's checkpoint — reports the poisoning.
	injected := errors.New("injected disk failure")
	fs.FailSyncsAfter(0, injected)
	if _, err := db.Exec(ctx, `INSERT INTO t VALUES (1)`); err == nil {
		t.Fatal("write after failed fsync should error")
	}
	err = closeDB(db)
	if err == nil {
		t.Fatal("closeDB after a poisoned WAL should report the failed checkpoint")
	}
	if !strings.Contains(err.Error(), "durability") {
		t.Fatalf("closeDB = %v, want a durability-failure error", err)
	}
}

func TestCloseDBCleanClose(t *testing.T) {
	db, err := engine.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := closeDB(db); err != nil {
		t.Fatalf("clean close = %v, want nil", err)
	}
}

// stdoutOf runs f with os.Stdout redirected into a temp file and
// returns what it printed.
func stdoutOf(t *testing.T, f func()) string {
	t.Helper()
	tmp, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	defer func() { os.Stdout = saved }()
	f()
	if _, err := tmp.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(tmp)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// The shell commands are statements of every mode, not of the prompt
// alone: -e '\plan ...' and a -f script may ask for a plan, and an
// unknown command is an error, not SQL handed to the parser.
func TestShellCommandsRunFromExecAndScript(t *testing.T) {
	db, err := engine.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sh := &localShell{db: db, conn: db.Conn()}
	ctx := context.Background()
	script := filepath.Join(t.TempDir(), "s.sql")
	if err := os.WriteFile(script, []byte("CREATE TABLE t (a INT);\nINSERT INTO t VALUES (1), (2), (3);\n\\t;\n"+
		"\\plan\nSELECT a FROM t ORDER BY a DESC LIMIT 1;\n\\vacuum;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var code int
	out := stdoutOf(t, func() { code = session(ctx, sh, "", script) })
	if code != 0 || !strings.Contains(out, "  t\n") || !strings.Contains(out, "top-n[col0 desc limit 1]") || !strings.Contains(out, "tables vacuumed") {
		t.Fatalf("-f script: exit %d, output:\n%s", code, out)
	}
	out = stdoutOf(t, func() { code = session(ctx, sh, `\plan SELECT a FROM t ORDER BY a`, "") })
	if code != 0 || !strings.Contains(out, "sort-runs[col0]") || !strings.Contains(out, "sort t: 3 rows in, 3 kept, 0 spilled runs") {
		t.Fatalf(`-e '\plan': exit %d, output:\n%s`, code, out)
	}
	if code = session(ctx, sh, `\explain SELECT 1`, ""); code != 1 {
		t.Fatalf("unknown shell command: exit %d, want 1", code)
	}
}
