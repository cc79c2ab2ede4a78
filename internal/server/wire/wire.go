// Package wire defines monetlited's client/server frame protocol.
//
// Every frame is a fixed 9-byte header followed by a payload:
//
//	type    u8       frame type (Type constants)
//	length  u32 BE   payload length, at most MaxPayload
//	crc     u32 BE   IEEE CRC-32 of type || length || payload
//	payload length bytes
//
// The CRC makes torn or corrupted frames a protocol error instead of a
// silent misparse, mirroring the storage layer's checksummed pages. All
// integers are big-endian. Strings and byte blobs are u32-length-
// prefixed. The encoder and decoder are pure functions over byte
// slices (no connection state), which keeps them fuzz-friendly:
// FuzzFrameDecode drives DecodePayload directly.
//
// Version negotiation: the client opens with Hello carrying the
// highest protocol version it speaks; the server replies Welcome with
// the version the connection will use (today always Version), or Err
// if there is no overlap.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Version is the protocol version this package implements. Version 2
// added SetTimeout, CodeTimeout, and the plan-cache/spill fields of
// StatsReply.
const Version = 2

// MaxPayload bounds a single frame. Result sets stream as many Row
// frames, so nothing legitimate approaches it; anything larger is a
// corrupt length field.
const MaxPayload = 16 << 20

// headerLen is the fixed frame-header size.
const headerLen = 9

// Type identifies a frame.
type Type uint8

// Frame types. Client→server and server→client types share one space
// so a trace is unambiguous.
const (
	THello      Type = 1  // client: version negotiation opener
	TWelcome    Type = 2  // server: negotiated version + banner
	TQuery      Type = 3  // client: one-shot SQL with inline args
	TPrepare    Type = 4  // client: compile SQL into a server-side stmt
	TPrepareOK  Type = 5  // server: stmt handle
	TExecute    Type = 6  // client: run a prepared stmt with args
	TCloseStmt  Type = 7  // client: release a stmt handle
	TRowDesc    Type = 8  // server: result column names
	TRow        Type = 9  // server: one result row
	TDone       Type = 10 // server: command finished OK
	TErr        Type = 11 // server: command failed
	TCancel     Type = 12 // client: cancel the in-flight command
	TStats      Type = 13 // client: request server counters
	TStatsRep   Type = 14 // server: counters
	TPlan       Type = 15 // client: explain a SELECT
	TPlanRep    Type = 16 // server: plan text
	TTables     Type = 17 // client: list tables
	TTablesRep  Type = 18 // server: table names
	TSetTimeout Type = 19 // client: set this session's statement timeout
)

func (t Type) String() string {
	switch t {
	case THello:
		return "Hello"
	case TWelcome:
		return "Welcome"
	case TQuery:
		return "Query"
	case TPrepare:
		return "Prepare"
	case TPrepareOK:
		return "PrepareOK"
	case TExecute:
		return "Execute"
	case TCloseStmt:
		return "CloseStmt"
	case TRowDesc:
		return "RowDesc"
	case TRow:
		return "Row"
	case TDone:
		return "Done"
	case TErr:
		return "Err"
	case TCancel:
		return "Cancel"
	case TStats:
		return "Stats"
	case TStatsRep:
		return "StatsReply"
	case TPlan:
		return "Plan"
	case TPlanRep:
		return "PlanReply"
	case TTables:
		return "Tables"
	case TTablesRep:
		return "TablesReply"
	case TSetTimeout:
		return "SetTimeout"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// ErrCode classifies server-side failures so clients can map them back
// to typed errors (the admission-control rejections in particular).
type ErrCode uint16

const (
	CodeGeneric   ErrCode = 0 // SQL or execution error; message has detail
	CodeQueueFull ErrCode = 1 // admission: queue at capacity
	CodeBudget    ErrCode = 2 // the engine's per-query memory budget refused the statement
	CodeCanceled  ErrCode = 3 // command canceled (Cancel frame or ctx)
	CodeProtocol  ErrCode = 4 // malformed frame or out-of-order command
	CodeUnknown   ErrCode = 5 // unknown statement handle
	CodeShutdown  ErrCode = 6 // server draining; no new commands
	CodeTimeout   ErrCode = 7 // statement timeout elapsed mid-execution
)

// Frame is one decoded frame: its type plus raw payload bytes.
type Frame struct {
	Type    Type
	Payload []byte
}

var crcTab = crc32.IEEETable

// header serializes the frame header (sans CRC fill) and returns the
// running CRC of type||length.
func header(buf *[headerLen]byte, t Type, n int) uint32 {
	buf[0] = byte(t)
	binary.BigEndian.PutUint32(buf[1:5], uint32(n))
	return crc32.Update(0, crcTab, buf[0:5])
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, t Type, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("wire: payload %d bytes exceeds MaxPayload", len(payload))
	}
	var h [headerLen]byte
	crc := header(&h, t, len(payload))
	crc = crc32.Update(crc, crcTab, payload)
	binary.BigEndian.PutUint32(h[5:9], crc)
	if _, err := w.Write(h[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one frame from r, verifying length bound and CRC.
func ReadFrame(r io.Reader) (Frame, error) {
	var h [headerLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(h[1:5])
	if n > MaxPayload {
		return Frame{}, fmt.Errorf("wire: frame length %d exceeds MaxPayload", n)
	}
	want := binary.BigEndian.Uint32(h[5:9])
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Frame{}, fmt.Errorf("wire: short payload: %w", err)
	}
	crc := crc32.Update(0, crcTab, h[0:5])
	crc = crc32.Update(crc, crcTab, payload)
	if crc != want {
		return Frame{}, fmt.Errorf("wire: CRC mismatch on %s frame", Type(h[0]))
	}
	return Frame{Type: Type(h[0]), Payload: payload}, nil
}

// ---------------------------------------------------------------------
// Value codec. Result cells and bind arguments are dynamically typed;
// each value is a kind byte plus a fixed- or length-prefixed encoding.
// The Go-side representation matches the engine API: nil, int64,
// float64, string, bool.

const (
	kindNull  = 0
	kindInt   = 1 // 8-byte big-endian two's complement
	kindFloat = 2 // 8-byte big-endian IEEE-754 bits
	kindStr   = 3 // u32 length + bytes
	kindBool  = 4 // 1 byte, 0 or 1
)

// AppendValue encodes one value. Only nil, int64, float64, string and
// bool are wire types; anything else is a caller bug.
func AppendValue(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, kindNull), nil
	case int64:
		b = append(b, kindInt)
		return binary.BigEndian.AppendUint64(b, uint64(x)), nil
	case float64:
		b = append(b, kindFloat)
		return binary.BigEndian.AppendUint64(b, math.Float64bits(x)), nil
	case string:
		b = append(b, kindStr)
		b = binary.BigEndian.AppendUint32(b, uint32(len(x)))
		return append(b, x...), nil
	case bool:
		if x {
			return append(b, kindBool, 1), nil
		}
		return append(b, kindBool, 0), nil
	}
	return nil, fmt.Errorf("wire: unsupported value type %T", v)
}

// reader is a bounds-checked cursor over a payload. Decoders read
// through it and check err once at the end; a truncated payload yields
// zero values plus a sticky error rather than a panic, which is what
// lets the fuzzer hammer DecodePayload with garbage.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated payload at byte %d", r.off)
	}
}

func (r *reader) u8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// boolean reads a strict 0-or-1 byte. Rejecting other values keeps
// the codec canonical: every accepted payload re-encodes to itself.
func (r *reader) boolean() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if r.err == nil {
			r.err = fmt.Errorf("wire: bool byte not 0 or 1 at byte %d", r.off-1)
		}
		return false
	}
}

func (r *reader) str() string {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail()
		return ""
	}
	v := string(r.b[r.off : r.off+n])
	r.off += n
	return v
}

func (r *reader) value() any {
	switch k := r.u8(); k {
	case kindNull:
		return nil
	case kindInt:
		return int64(r.u64())
	case kindFloat:
		return math.Float64frombits(r.u64())
	case kindStr:
		return r.str()
	case kindBool:
		return r.boolean()
	default:
		if r.err == nil {
			r.err = fmt.Errorf("wire: unknown value kind %d", k)
		}
		return nil
	}
}

// values decodes a u16-count-prefixed value list.
func (r *reader) values() []any {
	n := int(r.u16())
	if r.err != nil {
		return nil
	}
	// Each value takes at least one byte; reject counts the remaining
	// payload cannot possibly hold so a forged count cannot force a
	// huge allocation.
	if n > len(r.b)-r.off {
		r.fail()
		return nil
	}
	out := make([]any, n)
	for i := range out {
		out[i] = r.value()
	}
	return out
}

func (r *reader) strs() []string {
	n := int(r.u16())
	if r.err != nil {
		return nil
	}
	if n*4 > len(r.b)-r.off { // each string costs at least its u32 length
		r.fail()
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	return out
}

// done returns the sticky error, also failing if bytes trail the
// message (a length bug on the peer, or a fuzz input worth rejecting).
func (r *reader) done() error {
	if r.err == nil && r.off != len(r.b) {
		return fmt.Errorf("wire: %d trailing bytes after payload", len(r.b)-r.off)
	}
	return r.err
}

func appendValues(b []byte, vals []any) ([]byte, error) {
	if len(vals) > math.MaxUint16 {
		return nil, fmt.Errorf("wire: %d values exceed frame limit", len(vals))
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(vals)))
	var err error
	for _, v := range vals {
		if b, err = AppendValue(b, v); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func appendStrs(b []byte, ss []string) ([]byte, error) {
	if len(ss) > math.MaxUint16 {
		return nil, fmt.Errorf("wire: %d strings exceed frame limit", len(ss))
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(ss)))
	for _, s := range ss {
		b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	return b, nil
}

func appendStr(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// ---------------------------------------------------------------------
// Message types. Each has an Encode producing its payload and is
// decoded via DecodePayload, which dispatches on frame type.

// Hello opens a connection: the highest protocol version the client
// speaks.
type Hello struct {
	MaxVersion uint32
}

// Welcome accepts a connection at a negotiated version.
type Welcome struct {
	Version uint32
	Banner  string
}

// Query runs one-shot SQL with inline bind arguments.
type Query struct {
	SQL  string
	Args []any
}

// Prepare compiles SQL into a server-side statement handle.
type Prepare struct {
	SQL string
}

// PrepareOK returns the handle.
type PrepareOK struct {
	StmtID    uint32
	NumParams uint16
	IsQuery   bool
}

// Execute runs a prepared statement.
type Execute struct {
	StmtID uint32
	Args   []any
}

// CloseStmt releases a handle.
type CloseStmt struct {
	StmtID uint32
}

// RowDesc announces result columns; sent once before Row frames.
type RowDesc struct {
	Cols []string
}

// Row carries one result row.
type Row struct {
	Vals []any
}

// Done ends a successful command.
type Done struct {
	RowsAffected int64
}

// Err ends a failed command.
type Err struct {
	Code ErrCode
	Msg  string
}

// Cancel asks the server to cancel the session's in-flight command. It
// is read out-of-band: the session's reader goroutine handles it while
// the executor is still streaming.
type Cancel struct{}

// Stats requests server counters.
type Stats struct{}

// StatsReply carries them. PlanHits/PlanMisses/PlanEntries/PlanBytes
// expose the shared plan cache, which is how a client observes that its
// statement was compiled on another connection; Spills/SpillBytes/
// SpillLive expose the engine's out-of-core activity.
type StatsReply struct {
	PlanHits    uint64
	PlanMisses  uint64
	PlanEntries uint32
	Sessions    uint32
	Active      uint32
	Queued      uint32
	Admitted    uint64
	RejectedQ   uint64
	RejectedMem uint64
	PlanBytes   uint64 // summed estimated footprint of cached plans
	Spills      uint64 // spill files created since Open
	SpillBytes  uint64 // payload bytes written to spill files since Open
	SpillLive   uint64 // spill files currently on disk
}

// Plan asks for a SELECT's physical plan rendering.
type Plan struct {
	SQL string
}

// PlanReply carries the plan text.
type PlanReply struct {
	Text string
}

// SetTimeout overrides the server's default statement timeout for this
// session: every subsequent Query/Execute is canceled (CodeTimeout)
// once Millis milliseconds elapse. Millis 0 clears the override,
// reverting to the server's default. Acknowledged with Done.
type SetTimeout struct {
	Millis uint32
}

// Tables asks for the table list.
type Tables struct{}

// TablesReply carries it.
type TablesReply struct {
	Names []string
}

func (m Hello) Encode() ([]byte, error) {
	return binary.BigEndian.AppendUint32(nil, m.MaxVersion), nil
}

func (m Welcome) Encode() ([]byte, error) {
	b := binary.BigEndian.AppendUint32(nil, m.Version)
	return appendStr(b, m.Banner), nil
}

func (m Query) Encode() ([]byte, error) {
	b := appendStr(nil, m.SQL)
	return appendValues(b, m.Args)
}

func (m Prepare) Encode() ([]byte, error) {
	return appendStr(nil, m.SQL), nil
}

func (m PrepareOK) Encode() ([]byte, error) {
	b := binary.BigEndian.AppendUint32(nil, m.StmtID)
	b = binary.BigEndian.AppendUint16(b, m.NumParams)
	if m.IsQuery {
		return append(b, 1), nil
	}
	return append(b, 0), nil
}

func (m Execute) Encode() ([]byte, error) {
	b := binary.BigEndian.AppendUint32(nil, m.StmtID)
	return appendValues(b, m.Args)
}

func (m CloseStmt) Encode() ([]byte, error) {
	return binary.BigEndian.AppendUint32(nil, m.StmtID), nil
}

func (m RowDesc) Encode() ([]byte, error) {
	return appendStrs(nil, m.Cols)
}

func (m Row) Encode() ([]byte, error) {
	return appendValues(nil, m.Vals)
}

func (m Done) Encode() ([]byte, error) {
	return binary.BigEndian.AppendUint64(nil, uint64(m.RowsAffected)), nil
}

func (m Err) Encode() ([]byte, error) {
	b := binary.BigEndian.AppendUint16(nil, uint16(m.Code))
	return appendStr(b, m.Msg), nil
}

func (m Cancel) Encode() ([]byte, error) { return nil, nil }

func (m Stats) Encode() ([]byte, error) { return nil, nil }

func (m StatsReply) Encode() ([]byte, error) {
	b := binary.BigEndian.AppendUint64(nil, m.PlanHits)
	b = binary.BigEndian.AppendUint64(b, m.PlanMisses)
	b = binary.BigEndian.AppendUint32(b, m.PlanEntries)
	b = binary.BigEndian.AppendUint32(b, m.Sessions)
	b = binary.BigEndian.AppendUint32(b, m.Active)
	b = binary.BigEndian.AppendUint32(b, m.Queued)
	b = binary.BigEndian.AppendUint64(b, m.Admitted)
	b = binary.BigEndian.AppendUint64(b, m.RejectedQ)
	b = binary.BigEndian.AppendUint64(b, m.RejectedMem)
	b = binary.BigEndian.AppendUint64(b, m.PlanBytes)
	b = binary.BigEndian.AppendUint64(b, m.Spills)
	b = binary.BigEndian.AppendUint64(b, m.SpillBytes)
	return binary.BigEndian.AppendUint64(b, m.SpillLive), nil
}

func (m SetTimeout) Encode() ([]byte, error) {
	return binary.BigEndian.AppendUint32(nil, m.Millis), nil
}

func (m Plan) Encode() ([]byte, error) {
	return appendStr(nil, m.SQL), nil
}

func (m PlanReply) Encode() ([]byte, error) {
	return appendStr(nil, m.Text), nil
}

func (m Tables) Encode() ([]byte, error) { return nil, nil }

func (m TablesReply) Encode() ([]byte, error) {
	return appendStrs(nil, m.Names)
}

// typeOf maps a message to its frame type.
func typeOf(m any) (Type, bool) {
	switch m.(type) {
	case Hello:
		return THello, true
	case Welcome:
		return TWelcome, true
	case Query:
		return TQuery, true
	case Prepare:
		return TPrepare, true
	case PrepareOK:
		return TPrepareOK, true
	case Execute:
		return TExecute, true
	case CloseStmt:
		return TCloseStmt, true
	case RowDesc:
		return TRowDesc, true
	case Row:
		return TRow, true
	case Done:
		return TDone, true
	case Err:
		return TErr, true
	case Cancel:
		return TCancel, true
	case Stats:
		return TStats, true
	case StatsReply:
		return TStatsRep, true
	case Plan:
		return TPlan, true
	case PlanReply:
		return TPlanRep, true
	case Tables:
		return TTables, true
	case TablesReply:
		return TTablesRep, true
	case SetTimeout:
		return TSetTimeout, true
	}
	return 0, false
}

// Send encodes m and writes it as one frame.
func Send(w io.Writer, m interface{ Encode() ([]byte, error) }) error {
	t, ok := typeOf(m)
	if !ok {
		return fmt.Errorf("wire: not a protocol message: %T", m)
	}
	payload, err := m.Encode()
	if err != nil {
		return err
	}
	return WriteFrame(w, t, payload)
}

// DecodePayload decodes a frame's payload into its message struct.
// Every malformed input returns an error; it never panics (enforced by
// FuzzFrameDecode).
func DecodePayload(t Type, payload []byte) (any, error) {
	r := &reader{b: payload}
	var m any
	switch t {
	case THello:
		m = Hello{MaxVersion: r.u32()}
	case TWelcome:
		m = Welcome{Version: r.u32(), Banner: r.str()}
	case TQuery:
		m = Query{SQL: r.str(), Args: r.values()}
	case TPrepare:
		m = Prepare{SQL: r.str()}
	case TPrepareOK:
		m = PrepareOK{StmtID: r.u32(), NumParams: r.u16(), IsQuery: r.boolean()}
	case TExecute:
		m = Execute{StmtID: r.u32(), Args: r.values()}
	case TCloseStmt:
		m = CloseStmt{StmtID: r.u32()}
	case TRowDesc:
		m = RowDesc{Cols: r.strs()}
	case TRow:
		m = Row{Vals: r.values()}
	case TDone:
		m = Done{RowsAffected: int64(r.u64())}
	case TErr:
		m = Err{Code: ErrCode(r.u16()), Msg: r.str()}
	case TCancel:
		m = Cancel{}
	case TStats:
		m = Stats{}
	case TStatsRep:
		m = StatsReply{
			PlanHits:    r.u64(),
			PlanMisses:  r.u64(),
			PlanEntries: r.u32(),
			Sessions:    r.u32(),
			Active:      r.u32(),
			Queued:      r.u32(),
			Admitted:    r.u64(),
			RejectedQ:   r.u64(),
			RejectedMem: r.u64(),
			PlanBytes:   r.u64(),
			Spills:      r.u64(),
			SpillBytes:  r.u64(),
			SpillLive:   r.u64(),
		}
	case TPlan:
		m = Plan{SQL: r.str()}
	case TPlanRep:
		m = PlanReply{Text: r.str()}
	case TTables:
		m = Tables{}
	case TTablesRep:
		m = TablesReply{Names: r.strs()}
	case TSetTimeout:
		m = SetTimeout{Millis: r.u32()}
	default:
		return nil, fmt.Errorf("wire: unknown frame type %d", uint8(t))
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// Recv reads one frame and decodes its payload.
func Recv(r io.Reader) (any, error) {
	f, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	return DecodePayload(f.Type, f.Payload)
}
