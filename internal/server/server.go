// Package server implements monetlited's serving layer: network
// sessions multiplexed onto a bounded worker pool over one shared
// engine.DB. Plan compilation is amortized across connections by the
// engine's shared plan cache; execution is guarded by admission
// control — a bounded number of queries may be in the system (running
// or queued), and one arriving past that is refused with ErrQueueFull
// instead of queueing without bound. This is the X100 engine behind a
// wire: on a machine saturated by a few vectorized scans, piling more
// concurrent queries on only destroys cache locality, so the pool
// stays small and overload is refused loudly at the door. Memory is
// the engine's business: its per-query budget (engine.WithMemBudget)
// governs a statement the same way embedded and served, and the
// session answers an engine.ErrOverBudget with CodeBudget.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/engine"
	"repro/internal/server/wire"
)

// Typed admission-control rejections. They cross the wire as ErrCode
// values and come back as errors.Is-matchable sentinels in the client.
var (
	// ErrQueueFull: the admission queue is at capacity; the query was
	// rejected without queueing.
	ErrQueueFull = errors.New("server: admission queue full")
	// errShutdown: the server is draining and takes no new commands.
	errShutdown = errors.New("server: shutting down")
)

// Config configures a Server. The zero value of every field has a
// usable default except DB, which is required.
type Config struct {
	// DB is the engine all sessions share. Required.
	DB *engine.DB
	// Workers bounds concurrently EXECUTING queries. Default
	// GOMAXPROCS: the engine's morsel pipeline already uses all cores
	// for a single query, so more workers than cores only thrash.
	Workers int
	// QueueDepth bounds queries WAITING for a worker. A query arriving
	// with Workers running and QueueDepth waiting is rejected with
	// ErrQueueFull. Default 4×Workers.
	QueueDepth int
	// StmtTimeout, when positive, bounds every statement's wall-clock
	// execution (admission wait included); an overrun cancels the query
	// at its next morsel boundary with CodeTimeout. Sessions may
	// override it per-connection with a SetTimeout frame. 0 disables.
	StmtTimeout time.Duration
	// Banner is sent in the Welcome frame.
	Banner string
	// Logf receives diagnostics (connection teardown errors and the
	// like). Default: discard.
	Logf func(format string, args ...any)

	// testGate, when non-nil, is received from by every admitted query
	// after it takes a worker and before it executes. Tests arm it to
	// hold a deterministic pile-up and close it to release; always nil
	// in production (the field is unexported).
	testGate chan struct{}
}

// Server serves the wire protocol over accepted connections.
type Server struct {
	cfg  Config
	logf func(string, ...any)

	// Admission: slots bounds queries in the system (running+waiting),
	// workers bounds the running subset. A query holds a slot from
	// admission to completion and a worker while executing.
	slots   chan struct{}
	workers chan struct{}

	mu       sync.Mutex
	sessions map[*session]struct{}
	ln       net.Listener
	// draining is set once, under mu, by Shutdown. register and Serve
	// read it under mu too, so no session slips in after Shutdown's
	// snapshot; acquire reads it without the lock.
	draining atomic.Bool

	wg sync.WaitGroup // one per serveConn goroutine

	admitted      atomic.Uint64
	rejectedQueue atomic.Uint64
	rejectedMem   atomic.Uint64
	active        atomic.Int64
	queued        atomic.Int64

	// gate, when non-nil, is received from by every admitted query
	// after it takes a worker and before it executes. Tests close it
	// to release a deterministic pile-up; nil in production.
	gate chan struct{}
}

// New validates cfg and builds a Server. Serve must be called to
// accept connections.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, fmt.Errorf("server: Config.DB is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Server{
		cfg:      cfg,
		logf:     logf,
		slots:    make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		workers:  make(chan struct{}, cfg.Workers),
		sessions: make(map[*session]struct{}),
		gate:     cfg.testGate,
	}, nil
}

// Serve accepts connections on ln until Shutdown closes it (returns
// nil) or Accept fails (returns the error). ctx is the parent of every
// session's query contexts: canceling it cancels all in-flight queries
// at their next morsel boundary.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		return errShutdown
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func(ctx context.Context, nc net.Conn) {
			defer s.wg.Done()
			s.serveConn(ctx, nc)
		}(ctx, nc)
	}
}

// Shutdown drains the server: the listener closes (Serve returns),
// idle sessions are disconnected, and sessions mid-command finish that
// command before disconnecting — an admitted query is never dropped.
// If ctx expires first, in-flight queries are canceled at their next
// morsel boundary and connections force-closed. The DB itself is NOT
// closed; the caller checkpoints-and-closes it after Shutdown returns
// so the drain and the durability boundary stay separate concerns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining.Store(true)
	ln := s.ln
	open := make([]*session, 0, len(s.sessions))
	for se := range s.sessions {
		open = append(open, se)
	}
	s.mu.Unlock()

	if ln != nil {
		if err := ln.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			s.logf("server: closing listener: %v", err)
		}
	}
	for _, se := range open {
		se.drain()
	}

	done := make(chan struct{})
	go func(ctx context.Context) {
		s.wg.Wait()
		close(done)
	}(ctx)
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for se := range s.sessions {
			se.force()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// acquire admits one query: a slot immediately or ErrQueueFull, then a
// worker (waiting in the queue), then the test gate if armed. ctx
// aborts the wait.
func (s *Server) acquire(ctx context.Context) error {
	if s.draining.Load() {
		return errShutdown
	}
	select {
	case s.slots <- struct{}{}:
	default:
		s.rejectedQueue.Add(1)
		return ErrQueueFull
	}
	s.queued.Add(1)
	select {
	case s.workers <- struct{}{}:
	case <-ctx.Done():
		s.queued.Add(-1)
		<-s.slots
		return ctx.Err()
	}
	s.queued.Add(-1)
	s.active.Add(1)
	s.admitted.Add(1)
	if g := s.gate; g != nil {
		select {
		case <-g:
		case <-ctx.Done():
			s.release()
			return ctx.Err()
		}
	}
	return nil
}

// release returns a query's worker and slot.
func (s *Server) release() {
	s.active.Add(-1)
	<-s.workers
	<-s.slots
}

// stats assembles the counters for a StatsReply.
func (s *Server) stats() wire.StatsReply {
	pcs := s.cfg.DB.PlanCacheStats()
	scs := s.cfg.DB.SpillStats()
	s.mu.Lock()
	nsess := len(s.sessions)
	s.mu.Unlock()
	return wire.StatsReply{
		PlanHits:    pcs.Hits,
		PlanMisses:  pcs.Misses,
		PlanEntries: uint32(pcs.Entries),
		Sessions:    uint32(nsess),
		Active:      uint32(s.active.Load()),
		Queued:      uint32(s.queued.Load()),
		Admitted:    s.admitted.Load(),
		RejectedQ:   s.rejectedQueue.Load(),
		RejectedMem: s.rejectedMem.Load(),
		PlanBytes:   uint64(pcs.Bytes),
		Spills:      uint64(scs.Spills),
		SpillBytes:  uint64(scs.BytesWritten),
		SpillLive:   uint64(scs.LiveFiles),
	}
}

func (s *Server) register(se *session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.sessions[se] = struct{}{}
	return true
}

func (s *Server) unregister(se *session) {
	s.mu.Lock()
	delete(s.sessions, se)
	s.mu.Unlock()
}
