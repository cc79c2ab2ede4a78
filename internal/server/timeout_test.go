package server

// Serving-layer tests for statement timeouts (server default and
// per-session SetTimeout override). Queries are held deterministically
// with the config's test gate.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/client"
)

// TestStmtTimeoutDefault: with a server-wide statement timeout, a query
// stuck past it fails with ErrTimeout (not ErrCanceled), and the
// session keeps serving afterwards.
func TestStmtTimeoutDefault(t *testing.T) {
	ctx := context.Background()
	gate := make(chan struct{})
	addr, _, db, _ := startServer(t, "", func(c *Config) {
		c.StmtTimeout = 500 * time.Millisecond
		c.testGate = gate
	})
	if _, err := db.Exec(ctx, `CREATE TABLE t (a INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ctx, `INSERT INTO t VALUES (1), (2), (3)`); err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr)

	// The gate holds the admitted query until its deadline fires.
	_, err := c.Query(ctx, `SELECT sum(a) AS s FROM t`)
	if !errors.Is(err, client.ErrTimeout) {
		t.Fatalf("stuck query err = %v, want ErrTimeout", err)
	}
	if errors.Is(err, client.ErrCanceled) {
		t.Fatalf("timeout must not read as plain cancellation: %v", err)
	}

	// Released, the same session's next query completes inside the
	// timeout.
	close(gate)
	rows, err := c.Query(ctx, `SELECT sum(a) AS s FROM t`)
	if err != nil {
		t.Fatalf("post-timeout query: %v", err)
	}
	var s int64
	if !rows.Next() {
		t.Fatalf("no row: %v", rows.Err())
	}
	if err := rows.Scan(&s); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if s != 6 {
		t.Fatalf("sum = %d, want 6", s)
	}
}

// TestSetTimeoutOverride: a session's SetTimeout takes precedence over
// the server default, and SetTimeout(0) reverts to it.
func TestSetTimeoutOverride(t *testing.T) {
	ctx := context.Background()
	gate := make(chan struct{})
	addr, _, db, _ := startServer(t, "", func(c *Config) {
		c.StmtTimeout = time.Hour // far beyond the test's patience
		c.testGate = gate
	})
	if _, err := db.Exec(ctx, `CREATE TABLE t (a INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ctx, `INSERT INTO t VALUES (7)`); err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr)

	// Only the 300ms override can explain a timeout here — the server
	// default is an hour.
	if err := c.SetTimeout(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	_, err := c.Query(ctx, `SELECT a FROM t`)
	if !errors.Is(err, client.ErrTimeout) {
		t.Fatalf("overridden query err = %v, want ErrTimeout", err)
	}

	close(gate)
	if err := c.SetTimeout(0); err != nil { // back to the 1h default
		t.Fatal(err)
	}
	rows, err := c.Query(ctx, `SELECT a FROM t`)
	if err != nil {
		t.Fatalf("query after clearing override: %v", err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("rows = %d, want 1", n)
	}
}
