package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/engine"
	"repro/internal/server/wire"
)

// sendRawHello writes a Hello frame claiming the given max protocol
// version, bypassing the client package's pinned version.
func sendRawHello(nc net.Conn, version uint32) error {
	return wire.Send(nc, wire.Hello{MaxVersion: version})
}

// startServer opens an engine (in dir if non-empty), serves it on a
// loopback listener, and returns the address plus a shutdown func.
func startServer(t *testing.T, dir string, mutate func(*Config)) (addr string, srv *Server, db *engine.DB, stop func(ctx context.Context) error) {
	t.Helper()
	var opts []engine.Option
	if dir != "" {
		opts = append(opts, engine.WithDir(dir))
	}
	return startServerWith(t, opts, mutate)
}

// startServerWith is startServer with explicit engine options (memory
// budgets, spill directories, and the like).
func startServerWith(t *testing.T, opts []engine.Option, mutate func(*Config)) (addr string, srv *Server, db *engine.DB, stop func(ctx context.Context) error) {
	t.Helper()
	db, err := engine.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{DB: db, Banner: "test", Logf: t.Logf}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func(ctx context.Context) {
		serveErr <- srv.Serve(ctx, ln)
	}(context.Background())
	stopped := false
	stop = func(ctx context.Context) error {
		stopped = true
		err := srv.Shutdown(ctx)
		if serr := <-serveErr; serr != nil && err == nil {
			err = serr
		}
		if cerr := db.Close(); cerr != nil && err == nil {
			err = cerr
		}
		return err
	}
	t.Cleanup(func() {
		if !stopped {
			if err := stop(context.Background()); err != nil {
				t.Errorf("cleanup shutdown: %v", err)
			}
		}
	})
	return ln.Addr().String(), srv, db, stop
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestServeBasic(t *testing.T) {
	ctx := context.Background()
	addr, _, _, _ := startServer(t, "", nil)
	c := dial(t, addr)
	if c.Banner() != "test" {
		t.Fatalf("banner = %q", c.Banner())
	}

	if _, err := c.Exec(ctx, `CREATE TABLE t (a INT, b TEXT)`); err != nil {
		t.Fatal(err)
	}
	n, err := c.Exec(ctx, `INSERT INTO t VALUES (1, 'x'), (2, NULL), (3, 'z')`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("rows affected = %d, want 3", n)
	}

	rows, err := c.Query(ctx, `SELECT a, b FROM t ORDER BY a`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for rows.Next() {
		var a int64
		var b any
		if err := rows.Scan(&a, &b); err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%d:%v", a, b))
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	want := []string{"1:x", "2:<nil>", "3:z"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}

	// Prepared round trip.
	st, err := c.Prepare(`SELECT a FROM t WHERE a >= ? ORDER BY a`)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumParams() != 1 || !st.IsQuery() {
		t.Fatalf("stmt meta: params=%d query=%v", st.NumParams(), st.IsQuery())
	}
	r2, err := st.Query(ctx, int64(2))
	if err != nil {
		t.Fatal(err)
	}
	cnt := 0
	for r2.Next() {
		cnt++
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	if cnt != 2 {
		t.Fatalf("prepared query rows = %d, want 2", cnt)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Metadata commands.
	tables, err := c.Tables()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0] != "t" {
		t.Fatalf("tables = %v", tables)
	}
	plan, err := c.Plan(`SELECT a FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if plan == "" {
		t.Fatal("empty plan")
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sessions != 1 {
		t.Fatalf("sessions = %d, want 1", stats.Sessions)
	}

	// SQL errors are in-band: the connection survives them.
	if _, err := c.Exec(ctx, `SELECT nope FROM t`); err == nil {
		t.Fatal("bad column must error")
	}
	if _, err := c.Exec(ctx, `INSERT INTO t VALUES (4, 'ok')`); err != nil {
		t.Fatalf("connection unusable after SQL error: %v", err)
	}
}

// TestCrossConnectionPlanCacheHit is the serving-layer acceptance
// check: a statement prepared on one connection is visible as a plan
// cache hit when a SECOND connection prepares the same SQL, observable
// through the stats frame.
func TestCrossConnectionPlanCacheHit(t *testing.T) {
	ctx := context.Background()
	addr, _, _, _ := startServer(t, "", nil)
	c1 := dial(t, addr)
	c2 := dial(t, addr)

	if _, err := c1.Exec(ctx, `CREATE TABLE t (a INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec(ctx, `INSERT INTO t VALUES (1), (2)`); err != nil {
		t.Fatal(err)
	}

	const q = `SELECT a FROM t WHERE a > ? ORDER BY a`
	st1, err := c1.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	defer st1.Close()
	before, err := c1.Stats()
	if err != nil {
		t.Fatal(err)
	}

	st2, err := c2.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	after, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after.PlanHits <= before.PlanHits {
		t.Fatalf("prepare on second connection must hit the shared cache: before %+v, after %+v", before, after)
	}
	if after.PlanMisses != before.PlanMisses {
		t.Fatalf("prepare on second connection must not compile: before %+v, after %+v", before, after)
	}

	// And the hit statement actually works.
	rows, err := st2.Query(ctx, int64(1))
	if err != nil {
		t.Fatal(err)
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

// TestConcurrentClientsMatchOracle runs 8 concurrent client
// connections against the server and checks every result against a
// single-connection oracle computed first. Run under -race.
func TestConcurrentClientsMatchOracle(t *testing.T) {
	ctx := context.Background()
	// Capacity must absorb 8 concurrent clients without rejections:
	// this test is about correctness under concurrency, not admission.
	addr, _, db, _ := startServer(t, "", func(c *Config) {
		c.Workers = 4
		c.QueueDepth = 32
	})

	seed := dial(t, addr)
	if _, err := seed.Exec(ctx, `CREATE TABLE nums (a INT, g INT)`); err != nil {
		t.Fatal(err)
	}
	for base := 0; base < 2000; base += 500 {
		sql := `INSERT INTO nums VALUES `
		for i := 0; i < 500; i++ {
			if i > 0 {
				sql += ", "
			}
			v := base + i
			sql += fmt.Sprintf("(%d, %d)", v, v%7)
		}
		if _, err := seed.Exec(ctx, sql); err != nil {
			t.Fatal(err)
		}
	}

	queries := []string{
		`SELECT count(*) AS n FROM nums`,
		`SELECT sum(a) AS s FROM nums WHERE a < 1000`,
		`SELECT g, count(*) AS n FROM nums GROUP BY g ORDER BY g`,
		`SELECT a FROM nums WHERE a >= 1990 ORDER BY a`,
		`SELECT min(a) AS lo, max(a) AS hi FROM nums WHERE g = 3`,
	}

	// Oracle: each query's full result via a direct engine connection.
	collect := func(run func(q string) ([][]any, error), q string) [][]any {
		t.Helper()
		out, err := run(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return out
	}
	oracleRun := func(q string) ([][]any, error) {
		conn := db.Conn()
		defer conn.Close()
		rows, err := conn.Query(ctx, q)
		if err != nil {
			return nil, err
		}
		defer rows.Close()
		var out [][]any
		ncols := len(rows.Columns())
		for rows.Next() {
			vals := make([]any, ncols)
			ptrs := make([]any, ncols)
			for i := range vals {
				ptrs[i] = &vals[i]
			}
			if err := rows.Scan(ptrs...); err != nil {
				return nil, err
			}
			out = append(out, vals)
		}
		return out, rows.Err()
	}
	oracle := map[string][][]any{}
	for _, q := range queries {
		oracle[q] = collect(oracleRun, q)
	}

	const clients = 8
	const rounds = 10
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(ctx context.Context, id int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for r := 0; r < rounds; r++ {
				q := queries[(id+r)%len(queries)]
				rows, err := c.Query(ctx, q)
				if err != nil {
					errs <- fmt.Errorf("client %d: %s: %w", id, q, err)
					return
				}
				var got [][]any
				ncols := len(rows.Columns())
				for rows.Next() {
					vals := make([]any, ncols)
					ptrs := make([]any, ncols)
					for j := range vals {
						ptrs[j] = &vals[j]
					}
					if err := rows.Scan(ptrs...); err != nil {
						errs <- err
						return
					}
					got = append(got, vals)
				}
				if err := rows.Close(); err != nil {
					errs <- fmt.Errorf("client %d: %s: %w", id, q, err)
					return
				}
				if fmt.Sprint(got) != fmt.Sprint(oracle[q]) {
					errs <- fmt.Errorf("client %d: %s:\n got %v\nwant %v", id, q, got, oracle[q])
					return
				}
			}
		}(ctx, i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestQueueOverloadExact pins the admission math: with capacity K
// (workers + queue depth) fully gated, K+N concurrent queries produce
// exactly N ErrQueueFull rejections, and all K admitted queries
// complete with correct results — nothing in flight is dropped.
func TestQueueOverloadExact(t *testing.T) {
	ctx := context.Background()
	const workers, depth, extra = 1, 2, 3
	const capacity = workers + depth // K
	gate := make(chan struct{})
	addr, srv, db, _ := startServer(t, "", func(c *Config) {
		c.Workers = workers
		c.QueueDepth = depth
		c.testGate = gate
	})

	// Seed through the engine directly — client queries would block on
	// the armed gate.
	if _, err := db.Exec(ctx, `CREATE TABLE t (a INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ctx, `INSERT INTO t VALUES (1), (2), (3)`); err != nil {
		t.Fatal(err)
	}

	type result struct {
		sum int64
		err error
	}
	results := make(chan result, capacity+extra)
	for i := 0; i < capacity+extra; i++ {
		go func(ctx context.Context) {
			c, err := client.Dial(addr)
			if err != nil {
				results <- result{0, err}
				return
			}
			defer c.Close()
			rows, err := c.Query(ctx, `SELECT sum(a) AS s FROM t`)
			if err != nil {
				results <- result{0, err}
				return
			}
			var s int64
			if !rows.Next() {
				results <- result{0, fmt.Errorf("no row: %v", rows.Err())}
				return
			}
			if err := rows.Scan(&s); err != nil {
				results <- result{0, err}
				return
			}
			if err := rows.Close(); err != nil {
				results <- result{0, err}
				return
			}
			results <- result{s, nil}
		}(ctx)
	}

	// Exactly N rejections arrive while the gate holds all K admitted
	// queries in the system.
	var rejected, succeeded int
	var firstErr error
	deadline := time.After(30 * time.Second)
	for rejected < extra {
		select {
		case r := <-results:
			if r.err == nil {
				t.Fatalf("query completed while gate closed (sum=%d)", r.sum)
			}
			if !errors.Is(r.err, client.ErrQueueFull) {
				t.Fatalf("rejection is not ErrQueueFull: %v", r.err)
			}
			rejected++
		case <-deadline:
			t.Fatalf("timed out with %d/%d rejections (admission counters: rejected=%d active=%d queued=%d)",
				rejected, extra, srv.rejectedQueue.Load(), srv.active.Load(), srv.queued.Load())
		}
	}
	// All K others are in the system: none rejected, none finished.
	waitFor(t, func() bool {
		return srv.active.Load()+srv.queued.Load() == capacity
	}, "K queries in system")
	if got := srv.rejectedQueue.Load(); got != extra {
		t.Fatalf("rejections = %d, want exactly %d", got, extra)
	}

	close(gate)
	for succeeded < capacity {
		select {
		case r := <-results:
			if r.err != nil {
				firstErr = r.err
				succeeded++
				continue
			}
			if r.sum != 6 {
				t.Fatalf("admitted query returned %d, want 6", r.sum)
			}
			succeeded++
		case <-deadline:
			t.Fatalf("timed out waiting for admitted queries: %d/%d", succeeded, capacity)
		}
	}
	if firstErr != nil {
		t.Fatalf("admitted query failed: %v", firstErr)
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelMidQuery cancels a streaming SELECT over the wire and
// checks the server stops it at a morsel boundary: the client sees
// ErrCanceled, and the connection remains usable afterwards.
func TestCancelMidQuery(t *testing.T) {
	ctx := context.Background()
	addr, _, _, _ := startServer(t, "", nil)
	c := dial(t, addr)
	if _, err := c.Exec(ctx, `CREATE TABLE wide (a INT, s TEXT)`); err != nil {
		t.Fatal(err)
	}
	// Enough data that the full result cannot fit in socket buffers:
	// 60k rows x ~40 bytes >> typical loopback buffering.
	for base := 0; base < 60000; base += 1000 {
		sql := `INSERT INTO wide VALUES `
		for i := 0; i < 1000; i++ {
			if i > 0 {
				sql += ", "
			}
			sql += fmt.Sprintf("(%d, 'row-value-%d-padding')", base+i, base+i)
		}
		if _, err := c.Exec(ctx, sql); err != nil {
			t.Fatal(err)
		}
	}

	qctx, cancel := context.WithCancel(ctx)
	rows, err := c.Query(qctx, `SELECT a, s FROM wide`)
	if err != nil {
		t.Fatal(err)
	}
	// Read a few rows to prove the stream is live, then cancel.
	for i := 0; i < 5; i++ {
		if !rows.Next() {
			t.Fatalf("stream ended at row %d: %v", i, rows.Err())
		}
	}
	cancel()
	n := 5
	for rows.Next() {
		n++
	}
	err = rows.Err()
	if closeErr := rows.Close(); err == nil {
		err = closeErr
	}
	if !errors.Is(err, client.ErrCanceled) {
		t.Fatalf("after cancel: rows ended with %v (read %d rows), want ErrCanceled", err, n)
	}
	if n >= 60000 {
		t.Fatal("query ran to completion despite cancel")
	}

	// The session survives a canceled command.
	rows2, err := c.Query(ctx, `SELECT count(*) AS n FROM wide`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows2.Next() {
		t.Fatalf("no row: %v", rows2.Err())
	}
	var cnt int64
	if err := rows2.Scan(&cnt); err != nil {
		t.Fatal(err)
	}
	if err := rows2.Close(); err != nil {
		t.Fatal(err)
	}
	if cnt != 60000 {
		t.Fatalf("count = %d, want 60000", cnt)
	}
}

// TestShutdownDrain: during shutdown an in-flight streaming query
// completes, new connections are refused, and a durable (-d) database
// reopens clean afterwards.
func TestShutdownDrain(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	addr, _, _, stop := startServer(t, dir, nil)
	c := dial(t, addr)
	if _, err := c.Exec(ctx, `CREATE TABLE t (a INT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		sql := `INSERT INTO t VALUES (0)`
		for j := 1; j < 1000; j++ {
			sql += fmt.Sprintf(", (%d)", j)
		}
		if _, err := c.Exec(ctx, sql); err != nil {
			t.Fatal(err)
		}
	}

	// Start streaming, then shut down mid-stream.
	rows, err := c.Query(ctx, `SELECT a FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	shutdownDone := make(chan error, 1)
	go func(ctx context.Context) {
		sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		shutdownDone <- stop(sctx)
	}(ctx)

	// The in-flight stream must complete correctly (drain, not drop).
	n := 1
	for rows.Next() {
		n++
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("in-flight query dropped during drain: %v (after %d rows)", err, n)
	}
	if n != 20000 {
		t.Fatalf("drained stream returned %d rows, want 20000", n)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// New connections are refused post-drain.
	if _, err := client.Dial(addr); err == nil {
		t.Fatal("dial after shutdown must fail")
	}

	// The durable database reopens clean with all acknowledged data.
	db, err := engine.Open(engine.WithDir(dir))
	if err != nil {
		t.Fatalf("reopen after drain: %v", err)
	}
	defer db.Close()
	r, err := db.Query(ctx, `SELECT count(*) AS n FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Next() {
		t.Fatalf("no row: %v", r.Err())
	}
	var cnt int64
	if err := r.Scan(&cnt); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if cnt != 20000 {
		t.Fatalf("recovered count = %d, want 20000", cnt)
	}
}

// TestHandshakeRejectsBadVersion: a client speaking an older protocol
// is refused in-band.
func TestHandshakeRejectsBadVersion(t *testing.T) {
	addr, _, _, _ := startServer(t, "", nil)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Raw Hello with version 0.
	if err := sendRawHello(nc, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if err := nc.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Read(buf); err != nil {
		t.Fatalf("expected an Err frame, got read error %v", err)
	}
	// Frame type 11 = Err.
	if buf[0] != 11 {
		t.Fatalf("reply frame type = %d, want Err(11)", buf[0])
	}
}

// TestClientWidensGoNumericArgs: repro/client takes the Go numeric types
// the embedded API takes — Stmt.Query(ctx, 5) is Query(ctx, int64(5)) —
// and rejects an unsigned value INT cannot hold before sending it.
func TestClientWidensGoNumericArgs(t *testing.T) {
	ctx := context.Background()
	addr, _, _, _ := startServer(t, "", nil)
	c := dial(t, addr)
	if _, err := c.Exec(ctx, `CREATE TABLE t (a INT, f FLOAT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(ctx, `INSERT INTO t VALUES (?, ?), (?, ?)`, 5, float32(0.5), uint32(6), 7); err != nil {
		t.Fatal(err)
	}
	st, err := c.Prepare(`SELECT a, f FROM t WHERE a = ?`)
	if err != nil {
		t.Fatal(err)
	}
	get := func(arg any) string {
		t.Helper()
		rows, err := st.Query(ctx, arg)
		if err != nil {
			t.Fatalf("Query(%T): %v", arg, err)
		}
		defer rows.Close()
		out := ""
		for rows.Next() {
			var a int64
			var f float64
			if err := rows.Scan(&a, &f); err != nil {
				t.Fatal(err)
			}
			out += fmt.Sprint(a, f, ";")
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := get(int64(5))
	if want != "5 0.5;" {
		t.Fatalf("Query(int64(5)) = %q", want)
	}
	for _, arg := range []any{5, int32(5), int8(5), uint8(5), uint16(5), uint64(5), uint(5)} {
		if got := get(arg); got != want {
			t.Errorf("Query(%T(5)) = %q, want %q", arg, got, want)
		}
	}
	if _, err := st.Query(ctx, uint64(1)<<63); err == nil {
		t.Error("uint64 beyond INT accepted")
	}
	if got := get(int64(5)); got != want { // the refused argument left the connection usable
		t.Errorf("after refused argument: %q, want %q", got, want)
	}
}
