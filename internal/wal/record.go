package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// The log is a sequence of length-prefixed, CRC32-checksummed records:
//
//	len u32 | crc32(payload) u32 | payload
//	payload = type u8 | lsn u64 | body
//
// Every record carries a log-sequence number; LSNs are sequential
// within a file, which recovery verifies (a stale record surviving a
// truncate-and-overwrite cycle cannot splice into the new epoch).
// A transaction is recBegin, one or more op records, recCommit; only
// transactions whose commit record survives intact are replayed.

// Record types.
const (
	RecBegin  byte = 1
	RecCommit byte = 2
	RecCreate byte = 3
	RecDrop   byte = 4
	RecInsert byte = 5
	RecDelete byte = 6
	RecVacuum byte = 7
)

// Column type bytes inside insert/create records. They mirror
// sqlfe.ColType (which cannot be imported here — sqlfe sits above wal).
const (
	ColInt   byte = 0
	ColFloat byte = 1
	ColText  byte = 2
)

// maxRecord bounds a record's payload; a length field beyond it is
// treated as corruption, not an allocation request.
const maxRecord = 1 << 30

// Op is one logged effect of a committed statement.
type Op interface{ op() }

// OpCreate is CREATE TABLE.
type OpCreate struct {
	Table string
	Cols  []string
	Types []byte // ColInt/ColFloat/ColText per column
}

func (*OpCreate) op() {}

// OpDrop is DROP TABLE.
type OpDrop struct{ Table string }

func (*OpDrop) op() {}

// OpInsert appends rows to a table's columns. Values are the
// already-coerced stored representation: int64, float64, or string per
// the Types byte of their column (the nil sentinels are in-domain
// values and round-trip as-is).
type OpInsert struct {
	Table string
	Types []byte
	Rows  [][]any
}

func (*OpInsert) op() {}

// OpDelete tombstones physical positions (indexes into the columns).
type OpDelete struct {
	Table string
	Pos   []uint64
}

func (*OpDelete) op() {}

// OpVacuum drops a table's tombstoned positions from its columns. It is
// logically a no-op but shifts physical positions, so it
// must replay at the same point in the op order for later OpDeletes to
// address the right rows.
type OpVacuum struct{ Table string }

func (*OpVacuum) op() {}

// Tx is one committed transaction: its ops, in order, and the LSN of
// its commit record. Recovery uses the LSN to skip transactions already
// covered by a checkpoint snapshot (the snapshot's watermark).
type Tx struct {
	CommitLSN uint64
	Ops       []Op
}

// --- encoding ---

func appendU32(b []byte, v uint32) []byte {
	var x [4]byte
	binary.LittleEndian.PutUint32(x[:], v)
	return append(b, x[:]...)
}

func appendU64(b []byte, v uint64) []byte {
	var x [8]byte
	binary.LittleEndian.PutUint64(x[:], v)
	return append(b, x[:]...)
}

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

// appendRecord frames one payload: length, checksum, payload.
func appendRecord(b, payload []byte) []byte {
	b = appendU32(b, uint32(len(payload)))
	b = appendU32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// encodeMarker encodes a begin/commit record.
func encodeMarker(typ byte, lsn uint64) []byte {
	p := make([]byte, 0, 9)
	p = append(p, typ)
	p = appendU64(p, lsn)
	return p
}

// encodeOp encodes one op record's payload.
func encodeOp(op Op, lsn uint64) ([]byte, error) {
	var p []byte
	switch o := op.(type) {
	case *OpCreate:
		p = append(p, RecCreate)
		p = appendU64(p, lsn)
		p = appendStr(p, o.Table)
		p = appendU32(p, uint32(len(o.Cols)))
		for i, c := range o.Cols {
			p = appendStr(p, c)
			p = append(p, o.Types[i])
		}
	case *OpDrop:
		p = append(p, RecDrop)
		p = appendU64(p, lsn)
		p = appendStr(p, o.Table)
	case *OpInsert:
		p = append(p, RecInsert)
		p = appendU64(p, lsn)
		p = appendStr(p, o.Table)
		p = appendU32(p, uint32(len(o.Types)))
		p = append(p, o.Types...)
		p = appendU32(p, uint32(len(o.Rows)))
		for _, row := range o.Rows {
			if len(row) != len(o.Types) {
				return nil, fmt.Errorf("wal: insert row has %d values for %d columns", len(row), len(o.Types))
			}
			for i, v := range row {
				switch o.Types[i] {
				case ColInt:
					x, ok := v.(int64)
					if !ok {
						return nil, fmt.Errorf("wal: column %d: %T is not int64", i, v)
					}
					p = appendU64(p, uint64(x))
				case ColFloat:
					x, ok := v.(float64)
					if !ok {
						return nil, fmt.Errorf("wal: column %d: %T is not float64", i, v)
					}
					p = appendU64(p, math.Float64bits(x))
				case ColText:
					x, ok := v.(string)
					if !ok {
						return nil, fmt.Errorf("wal: column %d: %T is not string", i, v)
					}
					p = appendStr(p, x)
				default:
					return nil, fmt.Errorf("wal: unknown column type byte %d", o.Types[i])
				}
			}
		}
	case *OpDelete:
		p = append(p, RecDelete)
		p = appendU64(p, lsn)
		p = appendStr(p, o.Table)
		p = appendU32(p, uint32(len(o.Pos)))
		for _, x := range o.Pos {
			p = appendU64(p, x)
		}
	case *OpVacuum:
		p = append(p, RecVacuum)
		p = appendU64(p, lsn)
		p = appendStr(p, o.Table)
	default:
		return nil, fmt.Errorf("wal: unknown op %T", op)
	}
	return p, nil
}

// --- decoding ---

type decoder struct {
	b   []byte
	off int
	bad bool
}

func (d *decoder) u32() uint32 {
	if d.bad || d.off+4 > len(d.b) {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.bad || d.off+8 > len(d.b) {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) u8() byte {
	if d.bad || d.off+1 > len(d.b) {
		d.bad = true
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) str() string {
	n := int(d.u32())
	if d.bad || n < 0 || d.off+n > len(d.b) {
		d.bad = true
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

// decodePayload decodes one checksummed payload into its type, LSN and
// (for op records) Op. ok is false on any structural problem.
func decodePayload(p []byte) (typ byte, lsn uint64, op Op, ok bool) {
	d := &decoder{b: p}
	typ = d.u8()
	lsn = d.u64()
	switch typ {
	case RecBegin, RecCommit:
		// marker: no body
	case RecCreate:
		o := &OpCreate{Table: d.str()}
		n := int(d.u32())
		if d.bad || n > maxRecord {
			return 0, 0, nil, false
		}
		for i := 0; i < n; i++ {
			o.Cols = append(o.Cols, d.str())
			o.Types = append(o.Types, d.u8())
		}
		op = o
	case RecDrop:
		op = &OpDrop{Table: d.str()}
	case RecInsert:
		o := &OpInsert{Table: d.str()}
		ncols := int(d.u32())
		if d.bad || ncols > maxRecord {
			return 0, 0, nil, false
		}
		for i := 0; i < ncols; i++ {
			o.Types = append(o.Types, d.u8())
		}
		nrows := int(d.u32())
		if d.bad || nrows > maxRecord {
			return 0, 0, nil, false
		}
		for r := 0; r < nrows; r++ {
			row := make([]any, ncols)
			for i := 0; i < ncols; i++ {
				switch o.Types[i] {
				case ColInt:
					row[i] = int64(d.u64())
				case ColFloat:
					row[i] = math.Float64frombits(d.u64())
				case ColText:
					row[i] = d.str()
				default:
					return 0, 0, nil, false
				}
			}
			o.Rows = append(o.Rows, row)
		}
		op = o
	case RecDelete:
		o := &OpDelete{Table: d.str()}
		n := int(d.u32())
		if d.bad || n > maxRecord {
			return 0, 0, nil, false
		}
		for i := 0; i < n; i++ {
			o.Pos = append(o.Pos, d.u64())
		}
		op = o
	case RecVacuum:
		op = &OpVacuum{Table: d.str()}
	default:
		return 0, 0, nil, false
	}
	if d.bad || d.off != len(p) {
		return 0, 0, nil, false
	}
	return typ, lsn, op, true
}

// RecInfo describes one record of a log image — exported for the
// crash-point tests, which kill the log at every record boundary.
type RecInfo struct {
	Type byte
	LSN  uint64
	Off  int64 // offset of the record's length prefix
	End  int64 // offset one past the record's last byte
}

// Dump scans a log image and returns the records up to the first torn,
// checksum-failing, or out-of-sequence one.
func Dump(data []byte) []RecInfo {
	var out []RecInfo
	off := 0
	var prevLSN uint64
	for {
		if off+8 > len(data) {
			return out
		}
		ln := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if ln > maxRecord || off+8+ln > len(data) {
			return out
		}
		payload := data[off+8 : off+8+ln]
		if crc32.ChecksumIEEE(payload) != sum {
			return out
		}
		typ, lsn, _, ok := decodePayload(payload)
		if !ok {
			return out
		}
		if len(out) > 0 && lsn != prevLSN+1 {
			return out
		}
		prevLSN = lsn
		out = append(out, RecInfo{Type: typ, LSN: lsn, Off: int64(off), End: int64(off + 8 + ln)})
		off += 8 + ln
	}
}

// parseLog recovers the committed transactions of a log image. It
// returns the committed prefix, the byte offset just past the last
// commit record (everything after — an uncommitted trailing
// transaction, a torn record, checksum garbage — is to be truncated),
// and the LSN of the last record inside that prefix.
func parseLog(data []byte) (txs []Tx, goodEnd int64, lastLSN uint64) {
	recs := Dump(data)
	var cur []Op
	inTx := false
	for _, r := range recs {
		payload := data[r.Off+8 : r.End]
		typ, _, op, _ := decodePayload(payload)
		switch typ {
		case RecBegin:
			cur, inTx = nil, true
		case RecCommit:
			if !inTx {
				// A commit outside a transaction is corruption; stop here.
				return txs, goodEnd, lastLSN
			}
			txs = append(txs, Tx{CommitLSN: r.LSN, Ops: cur})
			cur, inTx = nil, false
			goodEnd, lastLSN = r.End, r.LSN
		default:
			if !inTx {
				return txs, goodEnd, lastLSN
			}
			cur = append(cur, op)
		}
	}
	return txs, goodEnd, lastLSN
}
