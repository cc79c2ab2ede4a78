package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

// allMessages is one of each frame, with non-zero fields, for
// round-trip coverage.
func allMessages() []Message {
	return []Message{
		Hello{MaxVersion: 1},
		Welcome{Version: 1, Banner: "monetlited"},
		Query{SQL: "SELECT a FROM t WHERE a > ?", Args: []any{int64(3), "x", 1.5, true, nil}},
		Prepare{SQL: "SELECT 1 AS one"},
		PrepareOK{StmtID: 7, NumParams: 2, IsQuery: true},
		Execute{StmtID: 7, Args: []any{int64(-1)}},
		CloseStmt{StmtID: 7},
		RowDesc{Cols: []string{"a", "b", ""}},
		Row{Vals: []any{nil, int64(42), "héllo\x00bytes", -0.0, false}},
		Done{RowsAffected: -1},
		Err{Code: CodeQueueFull, Msg: "queue full"},
		Cancel{},
		Stats{},
		StatsReply{PlanHits: 1, PlanMisses: 2, PlanEntries: 3, Sessions: 4, Active: 5, Queued: 6, Admitted: 7, RejectedQ: 8, RejectedMem: 9, PlanBytes: 10, Spills: 11, SpillBytes: 12, SpillLive: 13},
		Plan{SQL: "SELECT a FROM t"},
		PlanReply{Text: "scan(t.a)\nselect(>)"},
		Tables{},
		TablesReply{Names: []string{"t", "u"}},
		SetTimeout{Millis: 1500},
	}
}

func TestRoundTripAll(t *testing.T) {
	var buf bytes.Buffer
	msgs := allMessages()
	for _, m := range msgs {
		if err := Send(&buf, m); err != nil {
			t.Fatalf("Send(%T): %v", m, err)
		}
	}
	for _, want := range msgs {
		got, err := Recv(&buf)
		if err != nil {
			t.Fatalf("Recv(%T): %v", want, err)
		}
		if !reflect.DeepEqual(got, any(want)) {
			t.Fatalf("round trip %T: got %#v, want %#v", want, got, want)
		}
	}
	if _, err := Recv(&buf); err != io.EOF {
		t.Fatalf("drained stream: err = %v, want EOF", err)
	}
}

func TestCRCCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := Send(&buf, Query{SQL: "SELECT 1 AS one"}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one payload bit.
	raw[len(raw)-1] ^= 0x01
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupted frame: err = %v, want CRC mismatch", err)
	}
}

func TestHeaderCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := Send(&buf, Done{RowsAffected: 3}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[0] = byte(TErr) // retype the frame; CRC covers the header too
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("retyped frame: err = %v, want CRC mismatch", err)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	var h [9]byte
	h[0] = byte(TQuery)
	binary.BigEndian.PutUint32(h[1:5], MaxPayload+1)
	if _, err := ReadFrame(bytes.NewReader(h[:])); err == nil || !strings.Contains(err.Error(), "MaxPayload") {
		t.Fatalf("oversized frame: err = %v, want MaxPayload rejection", err)
	}
}

func TestTruncatedPayloadRejected(t *testing.T) {
	for _, m := range allMessages() {
		tt, _ := typeOf(m)
		payload, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(payload); cut++ {
			if _, err := DecodePayload(tt, payload[:cut]); err == nil {
				t.Fatalf("%T truncated to %d/%d bytes decoded without error", m, cut, len(payload))
			}
		}
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	payload, err := Hello{MaxVersion: 1}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePayload(THello, append(payload, 0xAB)); err == nil {
		t.Fatal("trailing garbage decoded without error")
	}
}

func TestForgedCountRejected(t *testing.T) {
	// A Row claiming 65535 values in a 2-byte payload must be rejected
	// without allocating for the claimed count.
	payload := binary.BigEndian.AppendUint16(nil, 65535)
	if _, err := DecodePayload(TRow, payload); err == nil {
		t.Fatal("forged value count decoded without error")
	}
}

func TestUnknownTypeRejected(t *testing.T) {
	if _, err := DecodePayload(Type(200), nil); err == nil {
		t.Fatal("unknown frame type decoded without error")
	}
}

func TestUnsupportedValueType(t *testing.T) {
	if _, err := AppendValue(nil, uint32(1)); err == nil {
		t.Fatal("AppendValue(uint32) must error")
	}
	if err := Send(io.Discard, Row{Vals: []any{struct{}{}}}); err == nil {
		t.Fatal("Send with unsupported value must error")
	}
}

// FuzzFrameDecode hammers the decoder with arbitrary (type, payload)
// inputs: it must never panic, and every successful decode must
// re-encode to an equivalent message (round-trip stability).
func FuzzFrameDecode(f *testing.F) {
	for _, m := range allMessages() {
		tt, _ := typeOf(m)
		payload, err := m.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(byte(tt), payload)
	}
	f.Add(byte(TQuery), []byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(byte(TRow), binary.BigEndian.AppendUint16(nil, 65535))
	f.Fuzz(func(t *testing.T, tb byte, payload []byte) {
		m, err := DecodePayload(Type(tb), payload)
		if err != nil {
			return
		}
		enc, ok := m.(interface{ Encode() ([]byte, error) })
		if !ok {
			t.Fatalf("decoded %T does not encode", m)
		}
		out, err := enc.Encode()
		if err != nil {
			t.Fatalf("re-encode %#v: %v", m, err)
		}
		if !bytes.Equal(out, payload) {
			t.Fatalf("decode/encode not stable for type %d:\n in: %x\nout: %x", tb, payload, out)
		}
	})
}

// TestFramesAcrossBufferBoundaries sends frames whose payloads sit
// below, on and above the default bufio size through a bufio.Writer
// into a net.Pipe and reads them back through a bufio.Reader: whole
// frames come back equal, a stream cut mid-payload fails instead of
// hanging, and a flipped byte fails the CRC of its own frame.
func TestFramesAcrossBufferBoundaries(t *testing.T) {
	sizes := []int{0, 1, 4095, 4096, 4097, 70000}
	var stream bytes.Buffer // the frames as one byte stream
	var ends []int          // stream offset where each frame ends
	payloads := make([][]byte, len(sizes))
	for i, n := range sizes {
		payloads[i] = make([]byte, n)
		for j := range payloads[i] {
			payloads[i][j] = byte(i*7 + j)
		}
		if err := WriteFrame(&stream, TRow, payloads[i]); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, stream.Len())
	}

	// pipe writes raw through a bufio.Writer and closes the pipe, then
	// reads frames through a bufio.Reader until the first error.
	pipe := func(t *testing.T, raw []byte) ([]Frame, error) {
		t.Helper()
		cw, sr := net.Pipe()
		defer sr.Close()
		go func() {
			defer cw.Close()
			// A write the reader cut short by returning fails on the
			// closed pipe; what the reader saw is the result.
			bw := bufio.NewWriter(cw)
			if _, err := bw.Write(raw); err == nil {
				_ = bw.Flush()
			}
		}()
		if err := sr.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(sr)
		var got []Frame
		for {
			f, err := ReadFrame(br)
			if err != nil {
				return got, err
			}
			got = append(got, f)
		}
	}

	t.Run("whole", func(t *testing.T) {
		got, err := pipe(t, stream.Bytes())
		if err != io.EOF {
			t.Fatalf("after %d frames: err = %v, want EOF", len(got), err)
		}
		if len(got) != len(sizes) {
			t.Fatalf("read %d frames, want %d", len(got), len(sizes))
		}
		for i, f := range got {
			if f.Type != TRow || !bytes.Equal(f.Payload, payloads[i]) {
				t.Fatalf("frame %d (%d bytes) came back different", i, sizes[i])
			}
		}
	})

	t.Run("cut", func(t *testing.T) {
		last := len(sizes) - 1
		cut := ends[last-1] + headerLen + sizes[last]/2
		got, err := pipe(t, stream.Bytes()[:cut])
		if len(got) != last || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut stream: %d frames, err = %v; want %d frames and ErrUnexpectedEOF", len(got), err, last)
		}
	})

	t.Run("flip", func(t *testing.T) {
		mid := len(sizes) / 2
		raw := bytes.Clone(stream.Bytes())
		raw[ends[mid-1]+headerLen+sizes[mid]/2] ^= 0x40
		got, err := pipe(t, raw)
		if len(got) != mid || err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
			t.Fatalf("flipped byte in frame %d: %d frames, err = %v; want %d frames and a CRC mismatch", mid, len(got), err, mid)
		}
	})
}
