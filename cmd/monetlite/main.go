// Command monetlite is an interactive SQL shell over the public engine
// API: statements are prepared (parsed + compiled once), results stream
// through a cursor, and a running query can be canceled with Ctrl-C.
//
// Usage:
//
//	monetlite                 # interactive shell on stdin
//	monetlite -e 'SQL'        # run one statement and exit
//	monetlite -f file         # run a script of semicolon-separated statements
//	monetlite -d dir          # persist the database in dir (WAL + recovery)
//	monetlite -recycle        # enable the intermediate-result recycler
//	monetlite -connect host:p # drive a remote monetlited instead of a local DB
//
// Shell commands: \q quits the prompt, \t lists tables, \plan SQL shows
// how a SELECT would execute (vectorized pipeline or MAL program),
// \checkpoint forces a checkpoint (atomic save + WAL truncate) of a -d
// database, and \vacuum drops delete tombstones from every table. They work wherever a statement does: at the
// prompt, as -e '\plan SELECT ...', and as a ;-terminated statement of a
// -f script. With -connect, \t and \plan go over the wire; \checkpoint
// and \vacuum are server-side concerns and report so.
//
// SIGTERM cancels the in-flight statement, waits briefly for the
// session to unwind, then runs the deferred Close — so a -d database
// checkpoints instead of relying on crash recovery — and exits with the
// conventional 143 (128+SIGTERM). With -connect, Ctrl-C sends a Cancel
// frame so the server stops the query at its next morsel boundary.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
	"unicode"

	"repro/client"
	"repro/engine"
)

func main() {
	// All exits funnel through realMain's return so the deferred
	// db.Close() (which CHECKPOINTS a -d database) always runs — os.Exit
	// in the middle of main would skip the checkpoint and leave the
	// session's tail in the WAL for recovery to replay.
	os.Exit(realMain())
}

// shellRows is the cursor surface the printing loop needs; engine.Rows
// and client.Rows both satisfy it as-is.
type shellRows interface {
	Columns() []string
	Next() bool
	Scan(dest ...any) error
	Err() error
	Close() error
}

// shellStmt is one prepared statement, local or remote.
type shellStmt interface {
	IsQuery() bool
	Exec(ctx context.Context) (int64, error)
	Query(ctx context.Context) (shellRows, error)
	Close() error
}

// shellConn is what the REPL drives: a local engine session or a
// remote monetlited connection.
type shellConn interface {
	Prepare(sql string) (shellStmt, error)
	Plan(sql string) (string, error)
	Tables() ([]string, error)
	Checkpoint() (string, error)
	Vacuum() (string, error)
}

// --- local backend: engine API in-process ---

type localShell struct {
	db   *engine.DB
	conn *engine.Conn
}

type localStmt struct{ st *engine.Stmt }

func (l *localShell) Prepare(sql string) (shellStmt, error) {
	st, err := l.conn.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return localStmt{st}, nil
}

func (l *localShell) Plan(sql string) (string, error) { return l.conn.Plan(sql) }

func (l *localShell) Tables() ([]string, error) { return l.db.Tables(), nil }

func (l *localShell) Checkpoint() (string, error) {
	if err := l.db.Checkpoint(); err != nil {
		return "", err
	}
	return "ok", nil
}

func (l *localShell) Vacuum() (string, error) {
	n, err := l.db.Vacuum()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("ok, %d tables vacuumed", n), nil
}

func (s localStmt) IsQuery() bool { return s.st.IsQuery() }

func (s localStmt) Exec(ctx context.Context) (int64, error) {
	res, err := s.st.Exec(ctx)
	return res.RowsAffected, err
}

func (s localStmt) Query(ctx context.Context) (shellRows, error) {
	rows, err := s.st.Query(ctx)
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func (s localStmt) Close() error { return s.st.Close() }

// --- remote backend: monetlited over the wire ---

type remoteShell struct{ c *client.Client }

type remoteStmt struct{ st *client.Stmt }

func (r *remoteShell) Prepare(sql string) (shellStmt, error) {
	st, err := r.c.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return remoteStmt{st}, nil
}

func (r *remoteShell) Plan(sql string) (string, error) { return r.c.Plan(sql) }

func (r *remoteShell) Tables() ([]string, error) { return r.c.Tables() }

func (r *remoteShell) Checkpoint() (string, error) {
	return "", fmt.Errorf(`\checkpoint is not available over -connect; the server checkpoints on shutdown`)
}

func (r *remoteShell) Vacuum() (string, error) {
	return "", fmt.Errorf(`\vacuum is not available over -connect`)
}

func (s remoteStmt) IsQuery() bool { return s.st.IsQuery() }

func (s remoteStmt) Exec(ctx context.Context) (int64, error) { return s.st.Exec(ctx) }

func (s remoteStmt) Query(ctx context.Context) (shellRows, error) {
	rows, err := s.st.Query(ctx)
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func (s remoteStmt) Close() error { return s.st.Close() }

func realMain() (code int) {
	exec := flag.String("e", "", "execute one statement and exit")
	file := flag.String("f", "", "execute a script file")
	dir := flag.String("d", "", "persist the database in this directory")
	recycle := flag.Bool("recycle", false, "enable the intermediate-result recycler")
	connect := flag.String("connect", "", "connect to a monetlited server at host:port instead of opening a local database")
	flag.Parse()

	var sh shellConn
	if *connect != "" {
		if *dir != "" || *recycle {
			fmt.Fprintln(os.Stderr, "error: -d and -recycle configure a local database and cannot be combined with -connect")
			return 1
		}
		cl, err := client.Dial(*connect)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		defer func() {
			if err := cl.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "error: close:", err)
				if code == 0 {
					code = 1
				}
			}
		}()
		if b := cl.Banner(); b != "" {
			fmt.Fprintln(os.Stderr, "connected:", b)
		}
		sh = &remoteShell{c: cl}
	} else {
		var opts []engine.Option
		if *dir != "" {
			opts = append(opts, engine.WithDir(*dir))
		}
		if *recycle {
			opts = append(opts, engine.WithRecycler(256<<20))
		}
		db, err := engine.Open(opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		// Close CHECKPOINTS a -d database; if that fails (e.g. a poisoned
		// WAL after a failed fsync) the on-disk state is behind what the
		// session acknowledged, and the shell must say so in its exit code —
		// silently discarding the error would report durability we don't
		// have. The session's own exit code wins when it is already nonzero.
		defer func() {
			if closeDB(db) != nil && code == 0 {
				code = 1
			}
		}()
		sh = &localShell{db: db, conn: db.Conn()}
	}

	// SIGTERM (kill, systemd stop, container shutdown) must exit like a
	// clean \q — through the deferred Close, which checkpoints a -d
	// database — not by dying mid-write and leaning on WAL recovery.
	// The session body runs in a goroutine so this select can win; its
	// statements run under ctx, so the signal first CANCELS any in-flight
	// statement (observed at morsel boundaries — locally via the engine,
	// remotely via a Cancel frame) and gives the session a moment to
	// unwind before the deferred close runs. A session stuck past the
	// grace period (e.g. blocked reading stdin) is abandoned — the close
	// still runs, and exec-path statements are already canceled. Exit
	// code is the conventional 128+15 for a SIGTERM run.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigterm := make(chan os.Signal, 1)
	signal.Notify(sigterm, syscall.SIGTERM)
	done := make(chan int, 1)
	go func() { done <- session(ctx, sh, *exec, *file) }()
	select {
	case c := <-done:
		return c
	case <-sigterm:
		fmt.Fprintln(os.Stderr, "terminated; closing")
		cancel()
		select {
		case <-done:
		case <-time.After(3 * time.Second):
			fmt.Fprintln(os.Stderr, "session did not unwind; closing anyway")
		}
		return 143
	}
}

// session runs the -e / -f / interactive body and returns the exit
// code. ctx is the process-lifetime context: SIGTERM cancels it, which
// aborts the running statement at morsel granularity.
func session(ctx context.Context, sh shellConn, exec, file string) int {
	if exec != "" {
		if err := run(ctx, sh, exec); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		return 0
	}
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		for _, stmt := range splitStatements(string(data)) {
			if err := run(ctx, sh, stmt); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return 1
			}
		}
		return 0
	}

	// Interactive: ignore SIGINT at the idle prompt (a stray Ctrl-C
	// must not kill the shell before the deferred Close saves a -d
	// database); run() re-arms it per statement to cancel the query.
	signal.Ignore(os.Interrupt)
	fmt.Println("monetlite shell — \\q to quit, \\t for tables, \\plan SQL for plans, \\checkpoint, \\vacuum; Ctrl-C cancels the running query")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	fmt.Print("sql> ")
	for sc.Scan() {
		line := sc.Text()
		if cmd := strings.TrimSpace(line); strings.HasPrefix(cmd, `\`) {
			if cmd == `\q` {
				return 0
			}
			if err := run(ctx, sh, cmd); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
			fmt.Print("sql> ")
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.Contains(line, ";") {
			for _, stmt := range splitStatements(buf.String()) {
				if err := run(ctx, sh, stmt); err != nil {
					fmt.Fprintln(os.Stderr, "error:", err)
				}
			}
			buf.Reset()
			fmt.Print("sql> ")
		}
	}
	return 0
}

// closeDB closes db, reporting a failed close — a failed checkpoint on
// a -d database — to stderr and returning the error so realMain can
// turn it into a nonzero exit.
func closeDB(db *engine.DB) error {
	if err := db.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "error: close:", err)
		return err
	}
	return nil
}

func splitStatements(src string) []string {
	var out []string
	for _, s := range strings.Split(src, ";") {
		if strings.TrimSpace(s) != "" {
			out = append(out, s)
		}
	}
	return out
}

// meta runs cmd if it is a shell command (\t, \plan SQL, \checkpoint,
// \vacuum) and reports whether it was one. The commands are part of
// the statement language of all three modes — prompt, -e and -f — so a
// script can ask for a plan.
func meta(sh shellConn, cmd string) (bool, error) {
	if !strings.HasPrefix(cmd, `\`) {
		return false, nil
	}
	var out string
	var err error
	name, arg := cmd, ""
	if i := strings.IndexFunc(cmd, unicode.IsSpace); i >= 0 {
		name, arg = cmd[:i], strings.TrimSpace(cmd[i:])
	}
	switch name {
	case `\t`:
		var tables []string
		tables, err = sh.Tables()
		for _, t := range tables {
			out += "  " + t + "\n"
		}
		out = strings.TrimSuffix(out, "\n")
	case `\plan`:
		out, err = sh.Plan(arg)
	case `\checkpoint`:
		out, err = sh.Checkpoint()
	case `\vacuum`:
		out, err = sh.Vacuum()
	default:
		err = fmt.Errorf(`unknown command %s (\q, \t, \plan SQL, \checkpoint, \vacuum)`, name)
	}
	if err == nil && out != "" {
		fmt.Println(out)
	}
	return true, err
}

// run executes one shell command, or prepares and executes one
// statement; SELECT results stream through the cursor row by row.
// Ctrl-C cancels the statement (checked at morsel boundaries in the
// parallel pipeline; with -connect the cancellation crosses the wire as
// a Cancel frame) without killing the shell; SIGTERM cancels it through
// the parent context.
func run(parent context.Context, sh shellConn, sql string) error {
	if isMeta, err := meta(sh, strings.TrimSpace(sql)); isMeta {
		return err
	}
	ctx, stop := signal.NotifyContext(parent, os.Interrupt)
	defer stop()

	stmt, err := sh.Prepare(sql)
	if err != nil {
		return err
	}
	defer stmt.Close()

	if !stmt.IsQuery() {
		n, err := stmt.Exec(ctx)
		if err != nil {
			return err
		}
		if n > 0 {
			fmt.Printf("ok, %d rows affected\n", n)
		} else {
			fmt.Println("ok")
		}
		return nil
	}

	rows, err := stmt.Query(ctx)
	if err != nil {
		return err
	}
	defer rows.Close()
	cols := rows.Columns()
	fmt.Println("| " + strings.Join(cols, " | ") + " |")
	n := 0
	cells := make([]any, len(cols))
	ptrs := make([]any, len(cols))
	for i := range cells {
		ptrs[i] = &cells[i]
	}
	for rows.Next() {
		parts := make([]string, len(cols))
		if err := rows.Scan(ptrs...); err != nil {
			return err
		}
		for i, v := range cells {
			if v == nil {
				parts[i] = "<nil>"
			} else {
				parts[i] = fmt.Sprint(v)
			}
		}
		fmt.Println("| " + strings.Join(parts, " | ") + " |")
		n++
	}
	if err := rows.Err(); err != nil {
		return err
	}
	fmt.Printf("(%d rows)\n", n)
	return nil
}
