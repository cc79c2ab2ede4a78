// Fixture for the netcheck analyzer: connection write/close errors
// must be checked, and goroutines must carry a context. The package
// sits under a path ending in internal/server, so both rules are
// active.
package server

import (
	"bufio"
	"context"
	"net"
	"time"

	"repro/internal/server/wire"
)

func badDiscards(nc net.Conn, ln net.Listener) {
	nc.Close()                                // want "Close error discarded"
	ln.Close()                                // want "Close error discarded"
	nc.SetDeadline(time.Time{})               // want "SetDeadline error discarded"
	nc.SetReadDeadline(time.Time{})           // want "SetReadDeadline error discarded"
	defer nc.SetWriteDeadline(time.Time{})    // want "SetWriteDeadline error discarded"
	nc.Write([]byte("x"))                     // want "Write error discarded"
	_, _ = nc.Write([]byte("x"))              // want "Write error assigned to _"
	_ = nc.Close()                            // want "Close error assigned to _"
	wire.Send(nc, wire.Err{})                 // want "wire.Send error discarded"
	_ = wire.WriteFrame(nc, wire.THello, nil) // want "wire.WriteFrame error assigned to _"
}

func badBuffered(bw *bufio.Writer) {
	bw.Flush()                 // want "Flush error discarded"
	defer bw.Flush()           // want "Flush error discarded"
	bw.Write([]byte("x"))      // want "Write error discarded"
	bw.WriteString("x")        // want "WriteString error discarded"
	_ = bw.Flush()             // want "Flush error assigned to _"
	_, _ = bw.WriteString("x") // want "WriteString error assigned to _"
}

func badGo(nc net.Conn) {
	go serveLoop(nc) // want "goroutine launched without a context.Context argument"
	go func() {}()   // want "goroutine launched without a context.Context argument"
}

func serveLoop(nc net.Conn) {}

func good(ctx context.Context, nc net.Conn) error {
	go func(ctx context.Context, nc net.Conn) {}(ctx, nc) // ok: ctx passed explicitly
	go serveCtx(ctx, nc)                                  // ok: ctx passed explicitly
	if err := nc.SetDeadline(time.Time{}); err != nil {   // ok: checked
		return err
	}
	if _, err := nc.Write([]byte("x")); err != nil { // ok: checked
		return err
	}
	if err := wire.Send(nc, wire.Err{}); err != nil { // ok: checked
		return err
	}
	bw := bufio.NewWriter(nc)
	if _, err := bw.WriteString("x"); err != nil { // ok: checked
		return err
	}
	if err := bw.Flush(); err != nil { // ok: checked
		return err
	}
	return nc.Close() // ok: returned
}

func serveCtx(ctx context.Context, nc net.Conn) {}

// A non-connection type with the same method names stays silent.
type sink struct{}

func (sink) Close() error       { return nil }
func (sink) Write([]byte) error { return nil }

func okNonConn(s sink, br *bufio.Reader) {
	s.Close()     // ok: not a net type
	s.Write(nil)  // ok: not a net type
	br.Discard(1) // ok: a bufio.Reader writes nothing
}

func justified(nc net.Conn) {
	//lint:ignore netcheck best-effort reject on a connection that is being torn down either way
	_ = nc.Close()
}
