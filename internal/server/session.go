package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/engine"
	"repro/internal/server/wire"
)

// handshakeTimeout bounds how long a fresh connection may take to send
// Hello — a port scanner must not pin a goroutine forever.
const handshakeTimeout = 10 * time.Second

// session is one client connection: an engine.Conn, the prepared
// statements it owns, and the cancel hook for its in-flight query.
//
// Concurrency model: a reader goroutine decodes frames and feeds them
// to the executor (the serveConn goroutine), which is the ONLY writer
// to the connection. Cancel frames never enter the command channel —
// the reader acts on them immediately, which is what makes canceling a
// query that is mid-stream possible at all.
type session struct {
	srv *Server
	nc  net.Conn
	ec  *engine.Conn

	// br is the one reader over nc: the handshake reads through it and
	// then hands it to readLoop, so no byte is stranded between them.
	// bw holds the executor's reply frames; run flushes it once per
	// command, and it flushes itself whenever a streamed result fills it.
	br *bufio.Reader
	bw *bufio.Writer

	stmts  map[uint32]*engine.Stmt // executor-only
	nextID uint32                  // executor-only

	// stmtTimeout is this session's statement-timeout override, set by
	// a SetTimeout frame; 0 means "no override, use the server's
	// default". Executor-only: SetTimeout flows through the command
	// channel, so no lock is needed.
	stmtTimeout time.Duration

	// mu guards the per-command state below, which the executor (begin,
	// end, setCancel), the reader (cancelCurrent) and Shutdown (drain,
	// force) share. Lock order: srv.mu before se.mu — force runs under
	// srv.mu — and nothing takes srv.mu while holding se.mu.
	mu        sync.Mutex
	cancelCur context.CancelFunc // set while a command runs
	inCmd     bool
	drainReq  bool
}

// readErr carries a malformed-frame error from the reader to the
// executor so the Err reply is written by the single writer.
type readErr struct{ err error }

// serveConn runs one connection to completion: handshake, then the
// executor loop. It owns all teardown.
func (s *Server) serveConn(ctx context.Context, nc net.Conn) {
	se := &session{
		srv:   s,
		nc:    nc,
		br:    bufio.NewReaderSize(nc, wire.BufferSize),
		bw:    bufio.NewWriterSize(nc, wire.BufferSize),
		stmts: make(map[uint32]*engine.Stmt),
	}
	defer se.teardown()

	if err := nc.SetReadDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		s.logf("server: %v: set handshake deadline: %v", nc.RemoteAddr(), err)
		return
	}
	m, err := wire.Recv(se.br)
	if err != nil {
		s.logf("server: %v: handshake: %v", nc.RemoteAddr(), err)
		return
	}
	h, ok := m.(wire.Hello)
	if !ok {
		se.rejectConn(wire.CodeProtocol, fmt.Sprintf("expected Hello, got %T", m))
		return
	}
	if h.MaxVersion < wire.Version {
		se.rejectConn(wire.CodeProtocol, fmt.Sprintf("client speaks v%d, server needs v%d", h.MaxVersion, wire.Version))
		return
	}
	if err := nc.SetReadDeadline(time.Time{}); err != nil {
		s.logf("server: %v: clear deadline: %v", nc.RemoteAddr(), err)
		return
	}
	err = se.send(wire.Welcome{Version: wire.Version, Banner: s.cfg.Banner})
	if err == nil {
		err = se.bw.Flush()
	}
	if err != nil {
		s.logf("server: %v: welcome: %v", nc.RemoteAddr(), err)
		return
	}

	se.ec = s.cfg.DB.Conn()
	if !s.register(se) {
		se.rejectConn(wire.CodeShutdown, "server draining")
		return
	}
	defer s.unregister(se)

	cmds := make(chan any, 8)
	go se.readLoop(ctx, cmds)
	se.run(ctx, cmds)
}

// readLoop decodes frames until the connection dies. Cancel is handled
// here, out-of-band; everything else is handed to the executor.
func (se *session) readLoop(ctx context.Context, cmds chan<- any) {
	defer close(cmds)
	for {
		m, err := wire.Recv(se.br)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF) {
				return
			}
			select {
			case cmds <- readErr{err}:
			case <-ctx.Done():
			}
			return
		}
		if _, ok := m.(wire.Cancel); ok {
			se.cancelCurrent()
			continue
		}
		select {
		case cmds <- m:
		case <-ctx.Done():
			return
		}
	}
}

// run is the executor loop: one command at a time, every reply written
// here and flushed once, before the command counts as finished (so a
// drain cannot close the connection under an unsent reply). A non-nil
// dispatch or flush error is a connection-write failure and tears the
// session down; SQL errors were already sent as Err frames.
func (se *session) run(ctx context.Context, cmds <-chan any) {
	for m := range cmds {
		if re, ok := m.(readErr); ok {
			se.rejectConn(wire.CodeProtocol, re.err.Error())
			return
		}
		if !se.begin() {
			se.rejectConn(wire.CodeShutdown, "server draining")
			return
		}
		err := se.dispatch(ctx, m)
		if err == nil {
			err = se.bw.Flush()
		}
		stop := se.end()
		if err != nil {
			se.srv.logf("server: %v: %v", se.nc.RemoteAddr(), err)
			return
		}
		if stop {
			return
		}
	}
}

// begin marks a command in flight; false if the session must stop
// instead (drain requested while the command sat in the channel).
func (se *session) begin() bool {
	se.mu.Lock()
	defer se.mu.Unlock()
	if se.drainReq {
		return false
	}
	se.inCmd = true
	return true
}

// end clears the in-flight mark and reports whether to stop.
func (se *session) end() bool {
	se.mu.Lock()
	defer se.mu.Unlock()
	se.inCmd = false
	return se.drainReq
}

// drain asks the session to stop: immediately (connection closed) if
// idle, after the current command otherwise. Caller holds no locks.
func (se *session) drain() {
	se.mu.Lock()
	se.drainReq = true
	idle := !se.inCmd
	se.mu.Unlock()
	if idle {
		se.closeConn()
	}
}

// force cancels the in-flight query and closes the connection. Called
// with srv.mu held (from Shutdown's deadline path), so it must not
// take it.
func (se *session) force() {
	se.mu.Lock()
	c := se.cancelCur
	se.drainReq = true
	se.mu.Unlock()
	if c != nil {
		c()
	}
	se.closeConn()
}

func (se *session) cancelCurrent() {
	se.mu.Lock()
	c := se.cancelCur
	se.mu.Unlock()
	if c != nil {
		c()
	}
}

func (se *session) setCancel(c context.CancelFunc) {
	se.mu.Lock()
	se.cancelCur = c
	se.mu.Unlock()
}

// effectiveTimeout returns the statement timeout to apply: the
// session's SetTimeout override when one is set, the server default
// otherwise.
func (se *session) effectiveTimeout() time.Duration {
	if se.stmtTimeout > 0 {
		return se.stmtTimeout
	}
	return se.srv.cfg.StmtTimeout
}

// closeConn closes the network connection, tolerating double-close
// (teardown races drain by design).
func (se *session) closeConn() {
	if err := se.nc.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		se.srv.logf("server: closing %v: %v", se.nc.RemoteAddr(), err)
	}
}

// teardown releases everything the session owns.
func (se *session) teardown() {
	for _, st := range se.stmts {
		if err := st.Close(); err != nil {
			se.srv.logf("server: closing stmt: %v", err)
		}
	}
	if se.ec != nil {
		if err := se.ec.Close(); err != nil {
			se.srv.logf("server: closing engine conn: %v", err)
		}
	}
	se.closeConn()
}

// send appends m to the reply buffer as one frame, encoding it in the
// buffer's free space when it fits there.
func (se *session) send(m wire.Message) error {
	f, err := wire.AppendFrame(se.bw.AvailableBuffer(), m)
	if err != nil {
		return err
	}
	_, err = se.bw.Write(f)
	return err
}

// sendErr writes an Err frame; the returned error is a connection
// failure (fatal), not the SQL error being reported.
func (se *session) sendErr(code wire.ErrCode, msg string) error {
	return se.send(wire.Err{Code: code, Msg: msg})
}

// rejectConn sends and flushes a best-effort Err frame on a connection
// that is about to be torn down regardless; a failed send is only worth
// a log line because the peer is gone either way.
func (se *session) rejectConn(code wire.ErrCode, msg string) {
	err := se.sendErr(code, msg)
	if err == nil {
		err = se.bw.Flush()
	}
	if err != nil {
		se.srv.logf("server: %v: reject: %v", se.nc.RemoteAddr(), err)
	}
}

// codeFor maps an execution error to its wire code. DeadlineExceeded
// is the statement timeout firing (the only deadline on a query
// context), so it gets its own code; a Cancel frame or client
// disconnect surfaces as context.Canceled. The engine's over-budget
// refusal is CodeBudget.
func codeFor(err error) wire.ErrCode {
	switch {
	case errors.Is(err, ErrQueueFull):
		return wire.CodeQueueFull
	case errors.Is(err, engine.ErrOverBudget):
		return wire.CodeBudget
	case errors.Is(err, context.DeadlineExceeded):
		return wire.CodeTimeout
	case errors.Is(err, context.Canceled):
		return wire.CodeCanceled
	case errors.Is(err, errShutdown):
		return wire.CodeShutdown
	}
	return wire.CodeGeneric
}

// fail reports a statement's execution error under its wire code. Every
// CodeBudget answer counts in rejectedMem, whether the engine refused
// the statement at Query or while its result drained, so the Stats
// frame's RejectedMem is "statements refused for memory".
func (se *session) fail(err error) error {
	code := codeFor(err)
	if code == wire.CodeBudget {
		se.srv.rejectedMem.Add(1)
	}
	return se.sendErr(code, err.Error())
}

// dispatch executes one command. Its error contract: non-nil means the
// connection is unusable; command failures are reported in-band.
func (se *session) dispatch(ctx context.Context, m any) error {
	switch c := m.(type) {
	case wire.Query:
		return se.runStmt(ctx, c.SQL, nil, c.Args)
	case wire.Prepare:
		st, err := se.ec.Prepare(c.SQL)
		if err != nil {
			return se.sendErr(wire.CodeGeneric, err.Error())
		}
		se.nextID++
		se.stmts[se.nextID] = st
		return se.send(wire.PrepareOK{
			StmtID:    se.nextID,
			NumParams: uint16(st.NumParams()),
			IsQuery:   st.IsQuery(),
		})
	case wire.Execute:
		st, ok := se.stmts[c.StmtID]
		if !ok {
			return se.sendErr(wire.CodeUnknown, fmt.Sprintf("unknown statement %d", c.StmtID))
		}
		return se.runStmt(ctx, "", st, c.Args)
	case wire.CloseStmt:
		st, ok := se.stmts[c.StmtID]
		if !ok {
			return se.sendErr(wire.CodeUnknown, fmt.Sprintf("unknown statement %d", c.StmtID))
		}
		delete(se.stmts, c.StmtID)
		if err := st.Close(); err != nil {
			return se.sendErr(wire.CodeGeneric, err.Error())
		}
		return se.send(wire.Done{})
	case wire.Plan:
		text, err := se.ec.Plan(c.SQL)
		if err != nil {
			return se.sendErr(wire.CodeGeneric, err.Error())
		}
		return se.send(wire.PlanReply{Text: text})
	case wire.SetTimeout:
		se.stmtTimeout = time.Duration(c.Millis) * time.Millisecond
		return se.send(wire.Done{})
	case wire.Tables:
		return se.send(wire.TablesReply{Names: se.srv.cfg.DB.Tables()})
	case wire.Stats:
		return se.send(se.srv.stats())
	}
	return se.sendErr(wire.CodeProtocol, fmt.Sprintf("unexpected %T frame", m))
}

// runStmt executes one query or DML command — one-shot (sql, owned
// statement) or prepared (st) — through admission control, streaming
// results. The command terminates with exactly one Done or Err frame.
func (se *session) runStmt(ctx context.Context, sql string, st *engine.Stmt, args []any) error {
	var qctx context.Context
	var cancel context.CancelFunc
	if d := se.effectiveTimeout(); d > 0 {
		// The deadline covers the whole statement — admission wait,
		// execution, and result streaming. An overrun cancels the query
		// at its next morsel boundary and reports CodeTimeout.
		qctx, cancel = context.WithTimeout(ctx, d)
	} else {
		qctx, cancel = context.WithCancel(ctx)
	}
	defer func() {
		se.setCancel(nil)
		cancel()
	}()
	se.setCancel(cancel)

	if st == nil {
		var err error
		st, err = se.ec.Prepare(sql)
		if err != nil {
			return se.sendErr(wire.CodeGeneric, err.Error())
		}
		defer func() {
			if err := st.Close(); err != nil {
				se.srv.logf("server: closing stmt: %v", err)
			}
		}()
	}

	if err := se.srv.acquire(qctx); err != nil {
		return se.fail(err)
	}
	defer se.srv.release()

	if !st.IsQuery() {
		res, err := st.Exec(qctx, args...)
		if err != nil {
			return se.fail(err)
		}
		return se.send(wire.Done{RowsAffected: res.RowsAffected})
	}

	rows, err := st.Query(qctx, args...)
	if err != nil {
		return se.fail(err)
	}
	defer func() {
		if err := rows.Close(); err != nil {
			se.srv.logf("server: closing rows: %v", err)
		}
	}()
	cols := rows.Columns()
	if err := se.send(wire.RowDesc{Cols: cols}); err != nil {
		return err
	}
	vals := make([]any, len(cols))
	ptrs := make([]any, len(cols))
	for i := range vals {
		ptrs[i] = &vals[i]
	}
	for rows.Next() {
		if err := rows.Scan(ptrs...); err != nil {
			return se.sendErr(wire.CodeGeneric, err.Error())
		}
		if err := se.send(wire.Row{Vals: vals}); err != nil {
			return err
		}
	}
	if err := rows.Err(); err != nil {
		return se.fail(err)
	}
	return se.send(wire.Done{})
}
