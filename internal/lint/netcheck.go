package lint

import (
	"go/ast"
	"go/types"
)

// NetCheck enforces the serving-layer discipline from PR 8. The
// session executor is the single writer to its connection, and the
// protocol has exactly one terminator frame (Done or Err) per command
// — a silently dropped write error desynchronizes the stream and the
// client hangs waiting for a terminator that was never sent. Likewise
// a session goroutine launched without the server's context outlives
// Shutdown and keeps the drain from ever completing.
//
// Two rules, both scoped to the server package (import path suffix
// internal/server) and the public client package (suffix client):
//
//   - The error result of Write, Close, SetDeadline, SetReadDeadline
//     or SetWriteDeadline on a net or crypto/tls type, of Write,
//     WriteString or Flush on a *bufio.Writer (replies are buffered, so
//     a dropped Flush loses a whole reply), or of any error-returning
//     function in the wire package (Send, WriteFrame, AppendFrame),
//     must not be discarded — not as an expression statement, not
//     under defer/go, not assigned to the blank identifier.
//     Deliberate best-effort sends carry //lint:ignore netcheck with a
//     justification.
//
//   - In internal/server every `go` statement must pass a
//     context.Context argument explicitly, so the goroutine's
//     lifetime is tied to the server's and SIGTERM drain can reach it.
var NetCheck = &Analyzer{
	Name: "netcheck",
	Doc:  "connection write/close errors must be checked and server goroutines must carry a context",
	Run:  runNetCheck,
}

// connMethods are flagged when the receiver is a net or crypto/tls type.
var connMethods = map[string]bool{
	"Write":            true,
	"Close":            true,
	"SetDeadline":      true,
	"SetReadDeadline":  true,
	"SetWriteDeadline": true,
}

// bufWriterMethods are flagged when the receiver is a bufio.Writer.
var bufWriterMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"Flush":       true,
}

func runNetCheck(p *Pass) {
	inServer := pathHasSuffix(p.Pkg.Path(), "internal/server")
	inClient := pathHasSuffix(p.Pkg.Path(), "client")
	if !inServer && !inClient {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, _ = unparen(n.X).(*ast.CallExpr)
			case *ast.DeferStmt:
				call = n.Call
			case *ast.GoStmt:
				if inServer && !p.passesContext(n.Call) {
					p.Reportf(n.Pos(), "goroutine launched without a context.Context argument; pass the server ctx so drain can reach it")
				}
				call = n.Call
			case *ast.AssignStmt:
				p.checkNetBlankAssign(n)
				return true
			}
			if call == nil {
				return true
			}
			if name, why := p.netCall(call); name != "" {
				p.Reportf(call.Pos(), "%s error discarded: %s", name, why)
			}
			return true
		})
	}
}

// checkNetBlankAssign flags `_ = call()` and `x, _ := call()` shapes
// where the blank identifier swallows a connection-write error.
func (p *Pass) checkNetBlankAssign(n *ast.AssignStmt) {
	if len(n.Rhs) == 0 {
		return
	}
	if len(n.Rhs) == 1 {
		call, ok := unparen(n.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		if name, why := p.netCall(call); name != "" {
			if id, ok := n.Lhs[len(n.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
				p.Reportf(n.Pos(), "%s error assigned to _: %s", name, why)
			}
		}
		return
	}
	for i, rhs := range n.Rhs {
		call, ok := unparen(rhs).(*ast.CallExpr)
		if !ok || i >= len(n.Lhs) {
			continue
		}
		if name, why := p.netCall(call); name != "" {
			if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
				p.Reportf(n.Pos(), "%s error assigned to _: %s", name, why)
			}
		}
	}
}

// netCall classifies call; it returns the display name and the reason
// the error matters, or "" when the call is not connection-bearing or
// returns no error.
func (p *Pass) netCall(call *ast.CallExpr) (string, string) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	name := sel.Sel.Name
	if !p.returnsError(call) {
		return "", ""
	}
	// Package-qualified function call into the wire package: Send and
	// WriteFrame carry the connection-write error.
	if id, ok := unparen(sel.X).(*ast.Ident); ok {
		if pkg, isPkg := p.Info.Uses[id].(*types.PkgName); isPkg {
			if pkg.Name() == "wire" {
				return "wire." + name, "a lost frame write desynchronizes the protocol stream"
			}
			return "", ""
		}
	}
	pkg, typ := p.recvType(sel)
	if connMethods[name] && (pkg == "net" || pkg == "crypto/tls") {
		return name, "a connection error here leaves the peer waiting on a stream that will never terminate"
	}
	if bufWriterMethods[name] && pkg == "bufio" && typ == "Writer" {
		return name, "a lost buffered write or flush drops a whole reply and desynchronizes the stream"
	}
	return "", ""
}

// recvType returns the package path and name of the method receiver's
// named type (net.Conn, tls.Conn, bufio.Writer, ...), looking through
// one pointer, or "" when it is not a named type.
func (p *Pass) recvType(sel *ast.SelectorExpr) (pkg, name string) {
	t := p.TypeOf(sel.X)
	if t == nil {
		return "", ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", ""
	}
	return named.Obj().Pkg().Path(), named.Obj().Name()
}

// passesContext reports whether any argument of call has static type
// context.Context.
func (p *Pass) passesContext(call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if isContextType(p.TypeOf(arg)) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}
