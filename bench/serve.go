package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/client"
	"repro/engine"
)

// The serve workloads drive a monetlited child process over loopback with
// repro/client: C connections, each a closed-loop caller of its own.

// server is a running monetlited child.
type server struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	drain  sync.WaitGroup // the goroutine reading the rest of stdout
}

func startServer(bin, dir string) (*server, error) {
	s := &server{cmd: exec.Command(bin, "-d", dir, "-listen", "127.0.0.1:0")}
	s.cmd.Stderr = &s.stderr
	// The child must not outlive the benchmark, whatever happens to it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	rd := bufio.NewReader(out)
	line, err := rd.ReadString('\n')
	if addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening "); ok && err == nil {
		s.addr = addr
	} else {
		s.stop(syscall.SIGKILL)
		return nil, fmt.Errorf("monetlited did not report its address (%q, %v): %s", line, err, s.stderr.String())
	}
	s.drain.Add(1)
	go func() {
		defer s.drain.Done()
		io.Copy(io.Discard, rd) // ends when the child closes stdout
	}()
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop signals the child and waits until it has ended. SIGTERM drains and
// checkpoints and must exit 0; SIGKILL is the crash.
func (s *server) stop(sig syscall.Signal) error {
	if err := s.cmd.Process.Signal(sig); err != nil {
		s.cmd.Process.Kill()
	}
	s.drain.Wait()
	err := s.cmd.Wait()
	if sig == syscall.SIGTERM && err != nil {
		return fmt.Errorf("monetlited drain: %w: %s", err, s.stderr.String())
	}
	return nil
}

// countingConn counts what crosses the net.Conn handed to client.DialConn.
type countingConn struct {
	net.Conn
	bytes, reads, writes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	c.reads.Add(1)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	c.writes.Add(1)
	return n, err
}

const (
	sqlPtLookup = "SELECT id, grp, bal FROM acct WHERE id = ?"
	sqlGrpSum   = "SELECT count(*), sum(bal) FROM acct WHERE grp = ?"
	sqlRangeCnt = "SELECT count(*), sum(bal) FROM acct WHERE id >= ? AND id < ?"
	sqlEvSum    = "SELECT count(*), sum(amt) FROM ev WHERE acct = ?"
	sqlEvInsert = "INSERT INTO ev VALUES (?, ?, ?)"
	sqlEvDelete = "DELETE FROM ev WHERE id = ?"

	rangeWidth = 1000
	hotAccts   = 256 // accounts per connection that receive events
)

type event struct{ id, acct, amt int64 }

// serveConn is one connection with the part of the model it owns. In
// serve_rw a connection writes and reads events only of its own accounts
// (acct mod C = its index), and its ops are sequential, so every answer is
// exactly predictable from what it has been acknowledged so far.
type serveConn struct {
	idx   int
	c     *client.Client
	nc    *countingConn
	stmts map[string]*client.Stmt
	rng   *rand.Rand
	res   result
	ptrs  []any
	sb    *spanBuf

	seq    int64   // events this connection has inserted
	live   []event // its events not yet deleted
	cnt    []int64 // per hot account: live events
	sum    []int64 // per hot account: sum of their amt
	reads  []time.Duration
	writes []time.Duration
}

type serveRun struct {
	spec  *serving
	cfg   *config
	dir   string
	acct  *table
	bal   []int64 // prefix sums of acct.bal
	srv   *server
	conns []*serveConn

	checkpoint time.Duration // SIGTERM until the child has exited
	restart    time.Duration // start of the child until it listens
	setup      time.Duration
}

type serving struct {
	name   string
	writes bool // serve_rw: the ev table and the write mix
}

func numClients() int { return min(runtime.NumCPU(), 4) }

func (s *serving) setUp(cfg *config, dir string, acct *table) (r *serveRun, err error) {
	ctx := context.Background()
	r = &serveRun{spec: s, cfg: cfg, dir: dir, acct: acct, bal: make([]int64, acct.n+1)}
	for i, b := range acct.col("bal").ints {
		r.bal[i+1] = r.bal[i] + b
	}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	start := time.Now()
	if r.srv, err = startServer(cfg.serverBin, dir); err != nil {
		return nil, err
	}
	c, err := client.Dial(r.srv.addr)
	if err != nil {
		return nil, err
	}
	exec := func(sql string) error { _, err := c.Exec(ctx, sql); return err }
	err = load(exec, acct)
	if err == nil && s.writes {
		err = exec("CREATE TABLE ev (id INT, acct INT, amt INT)")
	}
	c.Close()
	if err != nil {
		return nil, err
	}
	// The measured server never is the process that loaded: it opens the
	// checkpoint the drain wrote, so acct is in main columns.
	t0 := time.Now()
	srv := r.srv
	r.srv = nil
	if err := srv.stop(syscall.SIGTERM); err != nil {
		return nil, err
	}
	r.checkpoint = time.Since(t0)
	t0 = time.Now()
	if r.srv, err = startServer(cfg.serverBin, dir); err != nil {
		return nil, err
	}
	r.restart = time.Since(t0)
	if err := r.dial(false); err != nil {
		return nil, err
	}
	for _, sc := range r.conns {
		for i := 0; i < 6; i++ { // first touches belong to the set-up
			if _, err := r.op(sc, i); err != nil {
				return nil, fmt.Errorf("first ops: %w", err)
			}
		}
	}
	r.setup = time.Since(start)
	return r, nil
}

// dial opens the C connections and prepares their statements.
func (r *serveRun) dial(counting bool) error {
	stmts := []string{sqlPtLookup, sqlGrpSum, sqlRangeCnt}
	if r.spec.writes {
		stmts = []string{sqlPtLookup, sqlGrpSum, sqlEvSum, sqlEvInsert, sqlEvDelete}
	}
	for i := 0; i < numClients(); i++ {
		sc := &serveConn{idx: i, stmts: map[string]*client.Stmt{},
			rng: rand.New(rand.NewSource(r.cfg.seed*7919 + 100 + int64(i))),
			cnt: make([]int64, hotAccts), sum: make([]int64, hotAccts)}
		nc, err := net.Dial("tcp", r.srv.addr)
		if err != nil {
			return err
		}
		if counting {
			sc.nc = &countingConn{Conn: nc}
			nc = sc.nc
		}
		if sc.c, err = client.DialConn(nc); err != nil {
			return err
		}
		r.conns = append(r.conns, sc)
		for _, sql := range stmts {
			if sc.stmts[sql], err = sc.c.Prepare(sql); err != nil {
				return fmt.Errorf("prepare %q: %w", sql, err)
			}
		}
	}
	return nil
}

func (r *serveRun) hangUp() {
	for _, sc := range r.conns {
		sc.c.Close()
	}
	r.conns = nil
}

func (r *serveRun) close() {
	r.hangUp()
	if r.srv != nil {
		r.srv.stop(syscall.SIGKILL)
		r.srv = nil
	}
	os.RemoveAll(r.dir)
}

// query runs one prepared read and checks its single-row answer.
func (r *serveRun) query(sc *serveConn, op int, sql string, args []any, want ...any) (time.Duration, error) {
	ctx := context.Background()
	id := sc.sb.begin(op, "op", -1)
	start := time.Now()
	q := sc.sb.begin(op, "client.query", id)
	rows, err := sc.stmts[sql].Query(ctx, args...)
	sc.sb.end(q)
	if err == nil {
		d := sc.sb.begin(op, "client.drain", id)
		err = drain(rows, &sc.res, &sc.ptrs)
		sc.sb.end(d)
	}
	lat := time.Since(start)
	sc.sb.end(id)
	sc.reads = append(sc.reads, lat)
	if err != nil {
		return lat, fmt.Errorf("%q %v: %w", sql, args, err)
	}
	if err := one(want...).check(&sc.res); err != nil {
		return lat, fmt.Errorf("%q %v: wrong answer: %w", sql, args, err)
	}
	return lat, nil
}

// exec runs one prepared write, which must affect exactly one row.
func (r *serveRun) exec(sc *serveConn, op int, sql string, args ...any) (time.Duration, error) {
	id := sc.sb.begin(op, "op", -1)
	start := time.Now()
	q := sc.sb.begin(op, "client.exec", id)
	n, err := sc.stmts[sql].Exec(context.Background(), args...)
	sc.sb.end(q)
	lat := time.Since(start)
	sc.sb.end(id)
	sc.writes = append(sc.writes, lat)
	if err != nil {
		return lat, fmt.Errorf("%q %v: %w", sql, args, err)
	}
	if n != 1 {
		return lat, fmt.Errorf("%q %v: affected %d rows, want 1", sql, args, n)
	}
	return lat, nil
}

func (r *serveRun) ptLookup(sc *serveConn, op int) (time.Duration, error) {
	id := int64(sc.rng.Intn(r.acct.n))
	return r.query(sc, op, sqlPtLookup, args(id), id, r.acct.col("grp").ints[id], r.acct.col("bal").ints[id])
}

func (r *serveRun) grpSum(sc *serveConn, op int) (time.Duration, error) {
	g := sc.rng.Intn((r.acct.n + acctPerGrp - 1) / acctPerGrp)
	lo, hi := g*acctPerGrp, min((g+1)*acctPerGrp, r.acct.n)
	return r.query(sc, op, sqlGrpSum, args(int64(g)), int64(hi-lo), r.bal[hi]-r.bal[lo])
}

func (r *serveRun) rangeCnt(sc *serveConn, op int) (time.Duration, error) {
	w := min(rangeWidth, r.acct.n/2)
	lo := sc.rng.Intn(r.acct.n - w + 1)
	return r.query(sc, op, sqlRangeCnt, args(int64(lo), int64(lo+w)), int64(w), r.bal[lo+w]-r.bal[lo])
}

// op runs op i of connection sc. serve_point cycles its three reads;
// serve_rw draws 80 % reads, 18 % inserts and 2 % deletes from the
// connection's seeded generator.
func (r *serveRun) op(sc *serveConn, i int) (time.Duration, error) {
	if !r.spec.writes {
		switch i % 3 {
		case 0:
			return r.ptLookup(sc, i)
		case 1:
			return r.grpSum(sc, i)
		}
		return r.rangeCnt(sc, i)
	}
	c := int64(len(r.conns))
	switch u := sc.rng.Float64(); {
	case u < 0.80:
		switch sc.rng.Intn(3) {
		case 0:
			return r.ptLookup(sc, i)
		case 1:
			return r.grpSum(sc, i)
		}
		h := sc.rng.Intn(hotAccts)
		return r.query(sc, i, sqlEvSum, args(int64(h)*c+int64(sc.idx)), sc.cnt[h], sumI(sc.sum[h], sc.cnt[h]))
	case u < 0.98 || len(sc.live) == 0:
		h := sc.rng.Intn(hotAccts)
		e := event{id: sc.seq*c + int64(sc.idx), acct: int64(h)*c + int64(sc.idx), amt: int64(1 + sc.rng.Intn(1000))}
		lat, err := r.exec(sc, i, sqlEvInsert, e.id, e.acct, e.amt)
		if err == nil { // the model holds acknowledged writes only
			sc.seq++
			sc.live = append(sc.live, e)
			sc.cnt[h]++
			sc.sum[h] += e.amt
		}
		return lat, err
	default:
		k := sc.rng.Intn(len(sc.live))
		e := sc.live[k]
		lat, err := r.exec(sc, i, sqlEvDelete, e.id)
		if err == nil {
			sc.live[k] = sc.live[len(sc.live)-1]
			sc.live = sc.live[:len(sc.live)-1]
			h := e.acct / c
			sc.cnt[h]--
			sc.sum[h] -= e.amt
		}
		return lat, err
	}
}

// assertRouting aborts the run when a read of acct would not run on the
// vectorized pipeline. ev is not asserted: serve_rw keeps it in deltas and
// tombstones on purpose.
func (r *serveRun) assertRouting() error {
	for _, sql := range []string{sqlPtLookup, sqlGrpSum, sqlRangeCnt} {
		plan, err := r.conns[0].c.Plan(sql)
		if err != nil {
			return fmt.Errorf("plan %q: %w", sql, err)
		}
		if !strings.HasPrefix(plan, "vectorized pipeline") {
			return fmt.Errorf("routing: %q: %s", sql, strings.SplitN(plan, "\n", 2)[0])
		}
	}
	return nil
}

func (r *serveRun) measure(d time.Duration, atLeast int) (*loopStats, error) {
	for _, sc := range r.conns {
		sc.reads, sc.writes = sc.reads[:0], sc.writes[:0]
	}
	return drive(len(r.conns), d, atLeast, r.srv.pid(), func(c, i int) (time.Duration, error) { return r.op(r.conns[c], i) })
}

// recovery is what the crash check of serve_rw found.
type recovery struct {
	reopen time.Duration
	err    error // how ev differs from the acknowledged writes, if it does
	db     *engine.DB
}

// crashAndRecover kills the server, reopens the directory embedded and
// compares ev with the acknowledged writes. SIGKILL keeps the operating
// system's cache, so this exercises WAL replay, not power loss.
func (r *serveRun) crashAndRecover(before func() error) (*recovery, error) {
	var n, amt, ids int64
	for _, sc := range r.conns {
		for _, e := range sc.live {
			n++
			amt += e.amt
			ids += e.id
		}
	}
	r.hangUp()
	r.srv.stop(syscall.SIGKILL)
	r.srv = nil
	if before != nil {
		if err := before(); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	db, err := engine.Open(engine.WithDir(r.dir))
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	rec := &recovery{reopen: time.Since(t0), db: db}
	rows, err := db.Query(context.Background(), "SELECT count(*), sum(amt), sum(id) FROM ev")
	var res result
	var ptrs []any
	if err == nil {
		err = drain(rows, &res, &ptrs)
	}
	if err != nil {
		return nil, errors.Join(fmt.Errorf("recover: %w", err), db.Close())
	}
	rec.err = one(n, sumI(amt, n), sumI(ids, n)).check(&res)
	return rec, nil
}

func (s *serving) run(cfg *config) (*report, error) {
	acct := genAcct(cfg.seed, scaled(200000, cfg.scale))
	var setups []float64
	var r *serveRun
	for k := 0; ; k++ {
		var err error
		r, err = s.setUp(cfg, cfg.scratch(s.name, k), acct)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.setup.Seconds())
		if cfg.trace || cfg.enoughSetups(setups) {
			break
		}
		r.close()
	}
	defer r.close()
	if err := r.assertRouting(); err != nil {
		return nil, err
	}
	if cfg.perturb {
		for i := acct.n / 2; i <= acct.n; i++ {
			r.bal[i]++
		}
	}
	setup := time.Duration(median(setups) * float64(time.Second))
	if cfg.trace {
		return s.traced(cfg, r)
	}
	if cfg.openRate > 0 {
		return r.openLoop(cfg)
	}
	st, err := r.measure(cfg.duration(1), cfg.minOps())
	if err != nil {
		return nil, err
	}
	rep := newReport(s.name, st, st.endToEnd(setup))
	if s.writes {
		rec, err := r.crashAndRecover(nil)
		if err != nil {
			return nil, err
		}
		if rec.err != nil {
			rep.fail(fmt.Errorf("after SIGKILL and reopen: %w", rec.err))
		}
		if err := rec.db.Close(); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// wireTotals sums bytes, reads and writes over the counting connections.
func (r *serveRun) wireTotals() (t [3]int64) {
	for _, sc := range r.conns {
		t[0] += sc.nc.bytes.Load()
		t[1] += sc.nc.reads.Load()
		t[2] += sc.nc.writes.Load()
	}
	return t
}

func (s *serving) traced(cfg *config, r *serveRun) (*report, error) {
	m := newLayerMetrics()
	plain, err := r.measure(cfg.duration(0.25), 0)
	if err != nil {
		return nil, err
	}

	// Redial with counting connections and span buffers. A control
	// connection reads the server's counters around that, because statements
	// look the plan cache up when they are prepared, not when they run.
	ctl, err := client.Dial(r.srv.addr)
	if err != nil {
		return nil, err
	}
	defer ctl.Close()
	p0, err := ctl.Stats()
	if err != nil {
		return nil, err
	}
	model := r.conns
	r.hangUp()
	if err := r.dial(true); err != nil {
		return nil, err
	}
	p1, err := ctl.Stats()
	if err != nil {
		return nil, err
	}
	if look := float64(p1.PlanHits - p0.PlanHits + p1.PlanMisses - p0.PlanMisses); look > 0 {
		hit := float64(p1.PlanHits-p0.PlanHits) / look
		m.set("server.plan_hit_ratio", hit, "ratio")
		m.set("engine.plan_cache_hit_ratio", hit, "ratio")
	}
	t0 := time.Now()
	bufs := make([]*spanBuf, len(r.conns))
	for i, sc := range r.conns {
		// The new connection continues the model of the one it replaces.
		old := model[i]
		sc.seq, sc.live, sc.cnt, sc.sum, sc.rng = old.seq, old.live, old.cnt, old.sum, old.rng
		bufs[i] = newSpanBuf(t0, i)
		sc.sb = bufs[i]
	}
	c0 := r.conns[0].c

	var rtt, prep []time.Duration
	for i := 0; i < 200; i++ {
		t := time.Now()
		// The table list never reaches the engine: a bare protocol round trip.
		if _, err := c0.Tables(); err != nil {
			return nil, err
		}
		rtt = append(rtt, time.Since(t))
	}
	for i := 0; i < 50; i++ {
		t := time.Now()
		st, err := c0.Prepare(sqlPtLookup)
		if err != nil {
			return nil, err
		}
		prep = append(prep, time.Since(t))
		st.Close()
	}
	m.set("client.rtt_us", us(p50(rtt)), "us")
	m.set("client.prepare_us", us(p50(prep)), "us")

	wire0 := r.wireTotals()
	s0, err := c0.Stats()
	if err != nil {
		return nil, err
	}
	st, err := r.measure(cfg.duration(0.5), 0)
	if err != nil {
		return nil, err
	}
	s1, err := c0.Stats()
	if err != nil {
		return nil, err
	}
	ops := float64(st.attempted)
	wire1 := r.wireTotals()
	var reads, writes []time.Duration
	for _, sc := range r.conns {
		reads = append(reads, sc.reads...)
		writes = append(writes, sc.writes...)
		sc.sb = nil
	}
	m.set("trace.overhead_ratio", (float64(plain.attempted)/plain.wall.Seconds())/(ops/st.wall.Seconds()), "x")
	m.set("wire.bytes_per_op", float64(wire1[0]-wire0[0])/ops, "B")
	m.set("wire.reads_per_op", float64(wire1[1]-wire0[1])/ops, "count")
	m.set("wire.writes_per_op", float64(wire1[2]-wire0[2])/ops, "count")
	m.set("client.read_p50_ms", ms(p50(reads)), "ms")
	m.set("client.read_p95_ms", ms(p95(reads)), "ms")
	m.set("client.write_p50_ms", ms(p50(writes)), "ms")
	m.set("client.write_p95_ms", ms(p95(writes)), "ms")
	m.set("server.admitted", float64(s1.Admitted-s0.Admitted), "count")
	m.set("server.rejected_q", float64(s1.RejectedQ-s0.RejectedQ), "count")
	m.set("server.rejected_mem", float64(s1.RejectedMem-s0.RejectedMem), "count")
	m.set("spill.files_per_op", float64(s1.Spills-s0.Spills)/ops, "count")
	m.set("spill.bytes_per_op", float64(s1.SpillBytes-s0.SpillBytes)/ops, "B")
	m.set("spill.live_files_after", float64(s1.SpillLive), "count")
	m.set("engine.checkpoint_s", r.checkpoint.Seconds(), "s")
	m.set("engine.recover_s", r.restart.Seconds(), "s")
	m.set("engine.recovered_ok", 1, "bool")
	if err := probeWire(m); err != nil {
		return nil, err
	}
	rep := newReport(s.name, st, m)
	if s.writes {
		if err := r.tracedRecovery(m, rep); err != nil {
			return nil, err
		}
	}
	printSelfTimes(cfg, selfTimes(bufs))
	if err := writeSpans(cfg.tracePath(s.name), bufs); err != nil {
		return nil, err
	}
	return rep, nil
}

// tracedRecovery is the crash check of serve_rw with the write-path probes
// around it: the log's size against the bytes written, the cost of a
// snapshot while ev sits in deltas, and the WAL counters of the same write
// mix run embedded on the recovered database.
func (r *serveRun) tracedRecovery(m metrics, rep *report) (err error) {
	var inserted int64
	for _, sc := range r.conns {
		inserted += sc.seq
	}
	rec, err := r.crashAndRecover(func() error {
		if fi, err := os.Stat(filepath.Join(r.dir, "wal.log")); err == nil && inserted > 0 {
			m.set("wal.bytes_per_user_byte", float64(fi.Size())/float64(24*inserted), "ratio")
		}
		sdb, lg, err := replayRecovered(r.dir)
		if err != nil {
			return fmt.Errorf("replay log: %w", err)
		}
		var snap []time.Duration
		for i := 0; i < 200; i++ {
			t0 := time.Now()
			sdb.Snapshot()
			snap = append(snap, time.Since(t0))
		}
		m.set("sqlfe.snapshot_us", us(p50(snap)), "us")
		return lg.Close()
	})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := rec.db.Close(); err == nil {
			err = cerr
		}
	}()
	m.set("engine.recover_s", rec.reopen.Seconds(), "s")
	if rec.err != nil {
		m.set("engine.recovered_ok", 0, "bool")
		rep.fail(fmt.Errorf("after SIGKILL and reopen: %w", rec.err))
	}

	// The server's WAL counters cannot be read over the wire, so the same
	// single-row inserts run here, from as many goroutines as there were
	// connections, under the engine's default group-commit window.
	w0 := rec.db.WALStats()
	var wg sync.WaitGroup
	errs := make([]error, numClients())
	for c := 0; c < numClients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn := rec.db.Conn()
			for i := 0; i < 150 && errs[c] == nil; i++ {
				_, errs[c] = conn.Exec(context.Background(), sqlEvInsert, int64(-1-i*numClients()-c), int64(-1), int64(1))
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("embedded write replay: %w", err)
		}
	}
	w1 := rec.db.WALStats()
	if tx := float64(w1.Txs - w0.Txs); tx > 0 {
		m.set("wal.fsyncs_per_tx", float64(w1.Fsyncs-w0.Fsyncs)/tx, "count")
		m.set("wal.records_per_tx", float64(w1.Records-w0.Records)/tx, "count")
	}
	return probeWALAppend(r.dir, m)
}

// openLoop drives serve_point as a Poisson open loop at cfg.openRate requests
// per second: requests are due on a schedule whatever the server does, and
// each is timed from when it was due, so a stall is charged to every request
// it delays. Its three metrics are for capacity sweeps by hand and gate
// nothing.
func (r *serveRun) openLoop(cfg *config) (*report, error) {
	type job struct {
		i   int
		due time.Time
	}
	rng := rand.New(rand.NewSource(cfg.seed*7919 + 99))
	// The whole schedule fits the buffer: the generator never blocks.
	n := int(cfg.openRate * cfg.seconds)
	jobs := make(chan job, n)
	start := time.Now()
	go func() {
		due := start
		for i := 0; i < n; i++ {
			due = due.Add(time.Duration(rng.ExpFloat64() / cfg.openRate * float64(time.Second)))
			time.Sleep(time.Until(due))
			jobs <- job{i, due}
		}
		close(jobs)
	}()
	type out struct {
		lat, late []time.Duration
		failed    int
		first     error
	}
	outs := make([]out, len(r.conns))
	var wg sync.WaitGroup
	for c := range r.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			for j := range jobs {
				o.late = append(o.late, time.Since(j.due))
				_, err := r.op(r.conns[c], j.i)
				o.lat = append(o.lat, time.Since(j.due))
				if err != nil {
					o.failed++
					if o.first == nil {
						o.first = err
					}
				}
			}
		}(c)
	}
	wg.Wait()
	st := &loopStats{wall: time.Since(start)}
	var late []time.Duration
	for _, o := range outs {
		st.lat = append(st.lat, o.lat...)
		late = append(late, o.late...)
		st.failed += o.failed
		if st.firstErr == nil {
			st.firstErr = o.first
		}
	}
	st.attempted = len(st.lat)
	m := metrics{}
	m.set("client.open_p50_ms", ms(p50(st.lat)), "ms")
	m.set("client.open_p95_ms", ms(p95(st.lat)), "ms")
	m.set("client.gen_late_p95_ms", ms(p95(late)), "ms")
	m.set("client.open_rate", float64(st.attempted)/st.wall.Seconds(), "1/s")
	return newReport(r.spec.name, st, m), nil
}
