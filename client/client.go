// Package client is the Go client for monetlited's wire protocol:
// Dial, one-shot Query/Exec, server-side prepared statements, streaming
// result rows, and context cancellation that propagates to the server
// as a Cancel frame (the server stops the query at its next morsel
// boundary).
//
// A Client is one connection and runs one command at a time; it is
// safe for concurrent use, but a command issued while a previous
// result set is still streaming fails with ErrBusy rather than
// corrupting the stream. Open several Clients for parallelism — the
// server multiplexes them onto its worker pool and they share its
// plan cache.
package client

import (
	"bufio"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/server/wire"
)

// Sentinel errors, errors.Is-matchable against errors returned by
// Query/Exec. ServerError carries the server's message; these classify
// it.
var (
	// ErrQueueFull: the server's admission queue was full.
	ErrQueueFull = errors.New("client: server admission queue full")
	// ErrBudget: the query exceeded the server's per-query memory budget.
	ErrBudget = errors.New("client: query exceeds server memory budget")
	// ErrCanceled: the command was canceled (usually via ctx).
	ErrCanceled = errors.New("client: query canceled")
	// ErrTimeout: the server's statement timeout (or this session's
	// SetTimeout override) elapsed before the query finished.
	ErrTimeout = errors.New("client: statement timeout exceeded")
	// ErrShutdown: the server is draining.
	ErrShutdown = errors.New("client: server shutting down")
	// ErrBusy: a previous result set is still streaming on this client.
	ErrBusy = errors.New("client: connection busy with a streaming result")
)

// ServerError is a failure reported by the server in an Err frame.
type ServerError struct {
	Code wire.ErrCode
	Msg  string
}

func (e *ServerError) Error() string { return e.Msg }

// Is maps wire error codes onto the package sentinels.
func (e *ServerError) Is(target error) bool {
	switch target {
	case ErrQueueFull:
		return e.Code == wire.CodeQueueFull
	case ErrBudget:
		return e.Code == wire.CodeBudget
	case ErrCanceled:
		return e.Code == wire.CodeCanceled
	case ErrTimeout:
		return e.Code == wire.CodeTimeout
	case ErrShutdown:
		return e.Code == wire.CodeShutdown
	}
	return false
}

// Stats is the server's counter snapshot. The plan-cache counters are
// DB-wide: a hit here may have been compiled by another connection.
type Stats struct {
	PlanHits    uint64
	PlanMisses  uint64
	PlanEntries int
	PlanBytes   int64 // estimated resident footprint of cached plans
	Sessions    int
	Active      int
	Queued      int
	Admitted    uint64
	RejectedQ   uint64
	RejectedMem uint64
	Spills      uint64 // spill files the engine created since Open
	SpillBytes  uint64 // payload bytes written to spill files
	SpillLive   uint64 // spill files currently on disk
}

// Client is one protocol connection.
type Client struct {
	nc      net.Conn
	br      *bufio.Reader // every reply frame is read through it
	version uint32
	banner  string

	writeMu sync.Mutex // serializes frame writes (commands vs Cancel)

	mu     sync.Mutex
	busy   bool // a command's reply stream is unfinished
	closed bool
}

// Dial connects over TCP and performs the protocol handshake.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return DialConn(nc)
}

// DialTLS connects over TLS and performs the protocol handshake.
func DialTLS(addr string, cfg *tls.Config) (*Client, error) {
	nc, err := tls.Dial("tcp", addr, cfg)
	if err != nil {
		return nil, err
	}
	return DialConn(nc)
}

// DialConn performs the handshake over an established connection
// (a TLS wrapper, a net.Pipe in tests). On error the connection is
// closed.
func DialConn(nc net.Conn) (*Client, error) {
	c := &Client{nc: nc, br: bufio.NewReaderSize(nc, wire.BufferSize)}
	if err := wire.Send(nc, wire.Hello{MaxVersion: wire.Version}); err != nil {
		c.closeConn()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	m, err := wire.Recv(c.br)
	if err != nil {
		c.closeConn()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	switch r := m.(type) {
	case wire.Welcome:
		c.version, c.banner = r.Version, r.Banner
		return c, nil
	case wire.Err:
		c.closeConn()
		return nil, &ServerError{Code: r.Code, Msg: r.Msg}
	}
	c.closeConn()
	return nil, fmt.Errorf("client: handshake: unexpected %T", m)
}

// Banner returns the server's Welcome banner.
func (c *Client) Banner() string { return c.banner }

// Close closes the connection. In-flight commands fail.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.nc.Close()
}

// closeConn tears the connection down when the protocol state is
// already unrecoverable; the original error is what the caller sees.
func (c *Client) closeConn() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	//lint:ignore netcheck teardown after a prior fatal error; that error is what the caller sees, and the client has no log sink for a second one
	_ = c.nc.Close()
}

// begin claims the connection for one command.
func (c *Client) begin() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("client: connection closed")
	}
	if c.busy {
		return ErrBusy
	}
	c.busy = true
	return nil
}

// endCommand releases the connection.
func (c *Client) endCommand() {
	c.mu.Lock()
	c.busy = false
	c.mu.Unlock()
}

// send writes one frame, in one Write, under the write lock.
func (c *Client) send(m wire.Message) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return wire.Send(c.nc, m)
}

// watch forwards ctx cancellation to the server as a Cancel frame.
// The returned stop func must be called when the command's reply
// stream terminates; it is idempotent.
func (c *Client) watch(ctx context.Context) func() {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func(ctx context.Context) {
		select {
		case <-ctx.Done():
			if err := c.send(wire.Cancel{}); err != nil {
				// Can't even ask for cancellation: the connection is
				// broken, so closing it is the only way to stop the
				// command.
				c.closeConn()
			}
		case <-done:
		}
	}(ctx)
	return func() { once.Do(func() { close(done) }) }
}

// wireArgs widens Go's other integer and float types to the wire's
// int64 and float64, the way the embedded engine's binding does
// (sqlfe.LitFromArg), so Query(ctx, 5) means the same on both surfaces.
// Anything else passes through for the codec to accept or reject.
func wireArgs(args []any) ([]any, error) {
	out := make([]any, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case int:
			out[i] = int64(v)
		case int32:
			out[i] = int64(v)
		case int16:
			out[i] = int64(v)
		case int8:
			out[i] = int64(v)
		case uint8:
			out[i] = int64(v)
		case uint16:
			out[i] = int64(v)
		case uint32:
			out[i] = int64(v)
		case uint:
			if uint64(v) > math.MaxInt64 {
				return nil, fmt.Errorf("client: argument %d: uint %d overflows INT", i+1, v)
			}
			out[i] = int64(v)
		case uint64:
			if v > math.MaxInt64 {
				return nil, fmt.Errorf("client: argument %d: uint64 %d overflows INT", i+1, v)
			}
			out[i] = int64(v)
		case float32:
			out[i] = float64(v)
		default:
			out[i] = a
		}
	}
	return out, nil
}

// errFrom converts a terminator into a Go error.
func errFrom(e wire.Err) error { return &ServerError{Code: e.Code, Msg: e.Msg} }

// Exec runs a statement and returns its affected-row count. A SELECT
// passed to Exec is executed and its rows discarded.
func (c *Client) Exec(ctx context.Context, sql string, args ...any) (int64, error) {
	args, err := wireArgs(args)
	if err != nil {
		return 0, err
	}
	if err := c.begin(); err != nil {
		return 0, err
	}
	stop := c.watch(ctx)
	defer stop()
	defer c.endCommand()
	if err := c.send(wire.Query{SQL: sql, Args: args}); err != nil {
		c.closeConn()
		return 0, err
	}
	return c.drainToDone()
}

// drainToDone consumes reply frames (including any rows) until the
// command terminates.
func (c *Client) drainToDone() (int64, error) {
	for {
		m, err := wire.Recv(c.br)
		if err != nil {
			c.closeConn()
			return 0, err
		}
		switch r := m.(type) {
		case wire.RowDesc, wire.Row:
			// discarded
		case wire.Done:
			return r.RowsAffected, nil
		case wire.Err:
			return 0, errFrom(r)
		default:
			c.closeConn()
			return 0, fmt.Errorf("client: unexpected %T frame", m)
		}
	}
}

// Query runs a SELECT and streams the result. The caller must Close
// (or fully drain) the Rows before issuing the next command on this
// client. ctx cancels the query server-side.
func (c *Client) Query(ctx context.Context, sql string, args ...any) (*Rows, error) {
	args, err := wireArgs(args)
	if err != nil {
		return nil, err
	}
	if err := c.begin(); err != nil {
		return nil, err
	}
	stop := c.watch(ctx)
	if err := c.send(wire.Query{SQL: sql, Args: args}); err != nil {
		stop()
		c.endCommand()
		c.closeConn()
		return nil, err
	}
	return c.startRows(stop)
}

// startRows reads the first reply frame and builds the cursor.
func (c *Client) startRows(stop func()) (*Rows, error) {
	m, err := wire.Recv(c.br)
	if err != nil {
		stop()
		c.endCommand()
		c.closeConn()
		return nil, err
	}
	switch r := m.(type) {
	case wire.RowDesc:
		return &Rows{c: c, cols: r.Cols, stop: stop}, nil
	case wire.Done:
		// Not a SELECT: empty, already-terminated cursor.
		stop()
		c.endCommand()
		return &Rows{done: true}, nil
	case wire.Err:
		stop()
		c.endCommand()
		return nil, errFrom(r)
	}
	stop()
	c.endCommand()
	c.closeConn()
	return nil, fmt.Errorf("client: unexpected %T frame", m)
}

// Rows streams a result set.
type Rows struct {
	c    *Client
	cols []string
	stop func()
	cur  []any
	err  error
	done bool
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return append([]string(nil), r.cols...) }

// Next advances to the next row.
func (r *Rows) Next() bool {
	if r.done {
		return false
	}
	m, err := wire.Recv(r.c.br)
	if err != nil {
		r.fail(err)
		r.c.closeConn()
		return false
	}
	switch f := m.(type) {
	case wire.Row:
		r.cur = f.Vals
		return true
	case wire.Done:
		r.finish(nil)
		return false
	case wire.Err:
		r.finish(errFrom(f))
		return false
	}
	r.fail(fmt.Errorf("client: unexpected %T frame", m))
	r.c.closeConn()
	return false
}

// fail terminates the cursor on a connection-level error.
func (r *Rows) fail(err error) {
	r.err = err
	r.done = true
	r.stop()
	r.c.endCommand()
}

// finish terminates the cursor cleanly (terminator received).
func (r *Rows) finish(err error) {
	r.err = err
	r.done = true
	r.stop()
	r.c.endCommand()
}

// Scan copies the current row. Destinations: *any accepts every value
// including NULL; *int64, *float64, *string, *bool require the exact
// type and reject NULL.
func (r *Rows) Scan(dest ...any) error {
	if r.cur == nil {
		return fmt.Errorf("client: Scan called without a row")
	}
	if len(dest) != len(r.cur) {
		return fmt.Errorf("client: Scan got %d destinations for %d columns", len(dest), len(r.cur))
	}
	for i, d := range dest {
		v := r.cur[i]
		switch p := d.(type) {
		case *any:
			*p = v
		case *int64:
			x, ok := v.(int64)
			if !ok {
				return fmt.Errorf("client: column %d is %T, not INT", i, v)
			}
			*p = x
		case *float64:
			x, ok := v.(float64)
			if !ok {
				return fmt.Errorf("client: column %d is %T, not FLOAT", i, v)
			}
			*p = x
		case *string:
			x, ok := v.(string)
			if !ok {
				if v == nil {
					return fmt.Errorf("client: column %d is NULL; scan into *any to accept NULLs", i)
				}
				return fmt.Errorf("client: column %d is %T, not TEXT", i, v)
			}
			*p = x
		case *bool:
			x, ok := v.(bool)
			if !ok {
				return fmt.Errorf("client: column %d is %T, not BOOL", i, v)
			}
			*p = x
		default:
			return fmt.Errorf("client: unsupported Scan destination %T", d)
		}
	}
	return nil
}

// Err returns the error that terminated iteration, if any.
func (r *Rows) Err() error { return r.err }

// Close drains any unread frames and releases the connection for the
// next command.
func (r *Rows) Close() error {
	for !r.done {
		r.Next()
	}
	return r.err
}

// Stmt is a server-side prepared statement.
type Stmt struct {
	c         *Client
	id        uint32
	numParams int
	isQuery   bool
	closed    bool
}

// Prepare compiles sql server-side. The compiled plan lands in the
// server's shared cache, so other connections preparing the same SQL
// hit it.
func (c *Client) Prepare(sql string) (*Stmt, error) {
	if err := c.begin(); err != nil {
		return nil, err
	}
	defer c.endCommand()
	if err := c.send(wire.Prepare{SQL: sql}); err != nil {
		c.closeConn()
		return nil, err
	}
	m, err := wire.Recv(c.br)
	if err != nil {
		c.closeConn()
		return nil, err
	}
	switch r := m.(type) {
	case wire.PrepareOK:
		return &Stmt{c: c, id: r.StmtID, numParams: int(r.NumParams), isQuery: r.IsQuery}, nil
	case wire.Err:
		return nil, errFrom(r)
	}
	c.closeConn()
	return nil, fmt.Errorf("client: unexpected %T frame", m)
}

// NumParams returns the statement's placeholder count.
func (s *Stmt) NumParams() int { return s.numParams }

// IsQuery reports whether the statement returns rows.
func (s *Stmt) IsQuery() bool { return s.isQuery }

// Query executes a prepared SELECT.
func (s *Stmt) Query(ctx context.Context, args ...any) (*Rows, error) {
	if s.closed {
		return nil, fmt.Errorf("client: statement closed")
	}
	args, err := wireArgs(args)
	if err != nil {
		return nil, err
	}
	if err := s.c.begin(); err != nil {
		return nil, err
	}
	stop := s.c.watch(ctx)
	if err := s.c.send(wire.Execute{StmtID: s.id, Args: args}); err != nil {
		stop()
		s.c.endCommand()
		s.c.closeConn()
		return nil, err
	}
	return s.c.startRows(stop)
}

// Exec executes a prepared statement, discarding any rows.
func (s *Stmt) Exec(ctx context.Context, args ...any) (int64, error) {
	if s.closed {
		return 0, fmt.Errorf("client: statement closed")
	}
	args, err := wireArgs(args)
	if err != nil {
		return 0, err
	}
	if err := s.c.begin(); err != nil {
		return 0, err
	}
	stop := s.c.watch(ctx)
	defer stop()
	defer s.c.endCommand()
	if err := s.c.send(wire.Execute{StmtID: s.id, Args: args}); err != nil {
		s.c.closeConn()
		return 0, err
	}
	return s.c.drainToDone()
}

// Close releases the server-side statement.
func (s *Stmt) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.c.begin(); err != nil {
		return err
	}
	defer s.c.endCommand()
	if err := s.c.send(wire.CloseStmt{StmtID: s.id}); err != nil {
		s.c.closeConn()
		return err
	}
	m, err := wire.Recv(s.c.br)
	if err != nil {
		s.c.closeConn()
		return err
	}
	switch r := m.(type) {
	case wire.Done:
		return nil
	case wire.Err:
		return errFrom(r)
	}
	s.c.closeConn()
	return fmt.Errorf("client: unexpected %T frame", m)
}

// SetTimeout overrides the server's default statement timeout for this
// connection: subsequent queries that run longer than d are canceled
// server-side and fail with ErrTimeout. d = 0 clears the override
// (reverting to the server's default); sub-millisecond durations round
// up to 1ms so a non-zero d never silently becomes "clear".
func (c *Client) SetTimeout(d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("client: negative timeout %v", d)
	}
	millis := uint64(d / time.Millisecond)
	if d > 0 && millis == 0 {
		millis = 1
	}
	if millis > math.MaxUint32 {
		return fmt.Errorf("client: timeout %v exceeds the wire limit (~49 days)", d)
	}
	if err := c.begin(); err != nil {
		return err
	}
	defer c.endCommand()
	if err := c.send(wire.SetTimeout{Millis: uint32(millis)}); err != nil {
		c.closeConn()
		return err
	}
	m, err := wire.Recv(c.br)
	if err != nil {
		c.closeConn()
		return err
	}
	switch r := m.(type) {
	case wire.Done:
		return nil
	case wire.Err:
		return errFrom(r)
	}
	c.closeConn()
	return fmt.Errorf("client: unexpected %T frame", m)
}

// Plan returns the server's plan rendering for a SELECT.
func (c *Client) Plan(sql string) (string, error) {
	if err := c.begin(); err != nil {
		return "", err
	}
	defer c.endCommand()
	if err := c.send(wire.Plan{SQL: sql}); err != nil {
		c.closeConn()
		return "", err
	}
	m, err := wire.Recv(c.br)
	if err != nil {
		c.closeConn()
		return "", err
	}
	switch r := m.(type) {
	case wire.PlanReply:
		return r.Text, nil
	case wire.Err:
		return "", errFrom(r)
	}
	c.closeConn()
	return "", fmt.Errorf("client: unexpected %T frame", m)
}

// Tables returns the server's table list.
func (c *Client) Tables() ([]string, error) {
	if err := c.begin(); err != nil {
		return nil, err
	}
	defer c.endCommand()
	if err := c.send(wire.Tables{}); err != nil {
		c.closeConn()
		return nil, err
	}
	m, err := wire.Recv(c.br)
	if err != nil {
		c.closeConn()
		return nil, err
	}
	switch r := m.(type) {
	case wire.TablesReply:
		return r.Names, nil
	case wire.Err:
		return nil, errFrom(r)
	}
	c.closeConn()
	return nil, fmt.Errorf("client: unexpected %T frame", m)
}

// Stats returns the server's counters.
func (c *Client) Stats() (Stats, error) {
	if err := c.begin(); err != nil {
		return Stats{}, err
	}
	defer c.endCommand()
	if err := c.send(wire.Stats{}); err != nil {
		c.closeConn()
		return Stats{}, err
	}
	m, err := wire.Recv(c.br)
	if err != nil {
		c.closeConn()
		return Stats{}, err
	}
	switch r := m.(type) {
	case wire.StatsReply:
		return Stats{
			PlanHits:    r.PlanHits,
			PlanMisses:  r.PlanMisses,
			PlanEntries: int(r.PlanEntries),
			PlanBytes:   int64(r.PlanBytes),
			Sessions:    int(r.Sessions),
			Active:      int(r.Active),
			Queued:      int(r.Queued),
			Admitted:    r.Admitted,
			RejectedQ:   r.RejectedQ,
			RejectedMem: r.RejectedMem,
			Spills:      r.Spills,
			SpillBytes:  r.SpillBytes,
			SpillLive:   r.SpillLive,
		}, nil
	case wire.Err:
		return Stats{}, errFrom(r)
	}
	c.closeConn()
	return Stats{}, fmt.Errorf("client: unexpected %T frame", m)
}
