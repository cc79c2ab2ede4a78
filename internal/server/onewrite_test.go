package server

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"

	"repro/client"
	"repro/engine"
)

// writeCounter counts Write calls on a net.Conn. It counts before it
// writes, so once the peer has read a reply its Write is counted.
type writeCounter struct {
	net.Conn
	writes *atomic.Int64
}

func (c writeCounter) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countingListener hands out accepted conns that count their writes
// into one shared counter.
type countingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return writeCounter{Conn: nc, writes: &l.writes}, nil
}

// TestReplyIsOneWrite: a command's request leaves the client in one
// Write and its whole reply leaves the server in one Write, and a long
// result streams in buffer-sized writes, not one per row.
func TestReplyIsOneWrite(t *testing.T) {
	ctx := context.Background()
	db, err := engine.Open()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{DB: db, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: tcp}
	serveErr := make(chan error, 1)
	go func(ctx context.Context) { serveErr <- srv.Serve(ctx, ln) }(ctx)
	t.Cleanup(func() {
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
		if err := db.Close(); err != nil {
			t.Errorf("close db: %v", err)
		}
	})

	nc, err := net.Dial("tcp", tcp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var clientWrites atomic.Int64
	c, err := client.DialConn(writeCounter{Conn: nc, writes: &clientWrites})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec(ctx, `CREATE TABLE t (a INT, s TEXT)`); err != nil {
		t.Fatal(err)
	}
	const rows = 60000
	for base := 0; base < rows; base += 1000 {
		sql := `INSERT INTO t VALUES `
		for i := 0; i < 1000; i++ {
			if i > 0 {
				sql += ", "
			}
			sql += fmt.Sprintf("(%d, 'row-%d')", base+i, base+i)
		}
		if _, err := c.Exec(ctx, sql); err != nil {
			t.Fatal(err)
		}
	}
	pt, err := c.Prepare(`SELECT a, s FROM t WHERE a = ?`)
	if err != nil {
		t.Fatal(err)
	}
	defer pt.Close()

	// writes runs fn and returns the client's and the server's writes.
	writes := func(fn func() error) (cw, sw int64) {
		t.Helper()
		c0, s0 := clientWrites.Load(), ln.writes.Load()
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		return clientWrites.Load() - c0, ln.writes.Load() - s0
	}
	drain := func(r *client.Rows, err error) (int, error) {
		if err != nil {
			return 0, err
		}
		n := 0
		for r.Next() {
			n++
		}
		return n, r.Close()
	}

	cw, sw := writes(func() error {
		n, err := drain(pt.Query(ctx, 4242))
		if err == nil && n != 1 {
			err = fmt.Errorf("point query returned %d rows, want 1", n)
		}
		return err
	})
	if cw != 1 || sw != 1 {
		t.Errorf("prepared point SELECT: %d client and %d server writes, want 1 and 1", cw, sw)
	}

	cw, sw = writes(func() error {
		_, err := c.Exec(ctx, `INSERT INTO t VALUES (-1, 'x')`)
		return err
	})
	if cw != 1 || sw != 1 {
		t.Errorf("Exec: %d client and %d server writes, want 1 and 1", cw, sw)
	}

	cw, sw = writes(func() error {
		n, err := drain(c.Query(ctx, `SELECT a, s FROM t WHERE a >= 0`))
		if err == nil && n != rows {
			err = fmt.Errorf("stream returned %d rows, want %d", n, rows)
		}
		return err
	})
	if cw != 1 || sw > rows/100 {
		t.Errorf("%d-row stream: %d client and %d server writes, want 1 and at most %d", rows, cw, sw, rows/100)
	}
}
