package bat

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
)

// MonetDB persists BATs as memory-mapped files whose on-disk layout is the
// in-memory array layout (paper §3). Go cannot portably mmap without cgo or
// syscall use outside the stdlib-only constraint, so we substitute a direct
// binary codec with the same property that matters: the tail array is one
// contiguous blob, written and read back positionally with no per-tuple
// framing.

const persistMagic = uint32(0xBA7BA700)

// WriteTo serializes the BAT. The format is:
//
//	magic u32 | version u8 | type u8 | hseq u64 | tseq u64 | n u64 |
//	props u8 | name len+bytes | tail blob | (str only) heap len+bytes |
//	crc32 u32
//
// This is version 2, the only one read: the trailing CRC-32 (IEEE) is
// over every preceding byte.
func (b *BAT) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countWriter{w: bw, h: crc32.NewIEEE()}
	le := binary.LittleEndian
	var hdr [8]byte

	le.PutUint32(hdr[:4], persistMagic)
	hdr[4] = 2 // version
	hdr[5] = byte(b.ttyp)
	if _, err := cw.Write(hdr[:6]); err != nil {
		return cw.n, err
	}
	for _, v := range []uint64{uint64(b.hseq), uint64(b.tseq), uint64(b.Len())} {
		le.PutUint64(hdr[:], v)
		if _, err := cw.Write(hdr[:]); err != nil {
			return cw.n, err
		}
	}
	var pb byte
	if b.props.Sorted {
		pb |= 1
	}
	if b.props.RevSorted {
		pb |= 2
	}
	if b.props.Key {
		pb |= 4
	}
	if b.props.NoNil {
		pb |= 8
	}
	if _, err := cw.Write([]byte{pb}); err != nil {
		return cw.n, err
	}
	if err := writeBytes(cw, []byte(b.name)); err != nil {
		return cw.n, err
	}

	switch b.ttyp {
	case TypeVoid:
		// length already encoded
	case TypeOID:
		for _, v := range b.oids {
			le.PutUint64(hdr[:], uint64(v))
			if _, err := cw.Write(hdr[:]); err != nil {
				return cw.n, err
			}
		}
	case TypeInt:
		for _, v := range b.ints {
			le.PutUint64(hdr[:], uint64(v))
			if _, err := cw.Write(hdr[:]); err != nil {
				return cw.n, err
			}
		}
	case TypeFloat:
		for _, v := range b.floats {
			le.PutUint64(hdr[:], math.Float64bits(v))
			if _, err := cw.Write(hdr[:]); err != nil {
				return cw.n, err
			}
		}
	case TypeBool:
		for _, v := range b.bools {
			x := byte(0)
			if v {
				x = 1
			}
			if _, err := cw.Write([]byte{x}); err != nil {
				return cw.n, err
			}
		}
	case TypeStr:
		for _, v := range b.offs {
			le.PutUint32(hdr[:4], v)
			if _, err := cw.Write(hdr[:4]); err != nil {
				return cw.n, err
			}
		}
		if err := writeBytes(cw, b.heap); err != nil {
			return cw.n, err
		}
	}
	le.PutUint32(hdr[:4], cw.h.Sum32())
	cw.h = nil // the checksum itself is not checksummed
	if _, err := cw.Write(hdr[:4]); err != nil {
		return cw.n, err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadFrom deserializes a BAT previously written with WriteTo. The
// trailing CRC-32 is verified; a mismatch (silent corruption the length
// fields cannot catch) is an error.
func ReadFrom(r io.Reader) (*BAT, error) {
	hr := &hashReader{r: bufio.NewReader(r), h: crc32.NewIEEE()}
	br := io.Reader(hr)
	le := binary.LittleEndian
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:6]); err != nil {
		return nil, fmt.Errorf("bat: read header: %w", err)
	}
	if le.Uint32(hdr[:4]) != persistMagic {
		return nil, fmt.Errorf("bat: bad magic %#x", le.Uint32(hdr[:4]))
	}
	if hdr[4] != 2 {
		return nil, fmt.Errorf("bat: unsupported version %d", hdr[4])
	}
	b := &BAT{ttyp: Type(hdr[5])}
	var nums [3]uint64
	for i := range nums {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return nil, err
		}
		nums[i] = le.Uint64(hdr[:])
	}
	b.hseq, b.tseq = OID(nums[0]), OID(nums[1])
	n := int(nums[2])
	if _, err := io.ReadFull(br, hdr[:1]); err != nil {
		return nil, err
	}
	pb := hdr[0]
	b.props = Props{Sorted: pb&1 != 0, RevSorted: pb&2 != 0, Key: pb&4 != 0, NoNil: pb&8 != 0}
	name, err := readBytes(br)
	if err != nil {
		return nil, err
	}
	b.name = string(name)

	switch b.ttyp {
	case TypeVoid:
		b.voidN = n
	case TypeOID:
		b.oids = make([]OID, n)
		for i := range b.oids {
			if _, err := io.ReadFull(br, hdr[:]); err != nil {
				return nil, err
			}
			b.oids[i] = OID(le.Uint64(hdr[:]))
		}
	case TypeInt:
		b.ints = make([]int64, n)
		for i := range b.ints {
			if _, err := io.ReadFull(br, hdr[:]); err != nil {
				return nil, err
			}
			b.ints[i] = int64(le.Uint64(hdr[:]))
		}
	case TypeFloat:
		b.floats = make([]float64, n)
		for i := range b.floats {
			if _, err := io.ReadFull(br, hdr[:]); err != nil {
				return nil, err
			}
			b.floats[i] = math.Float64frombits(le.Uint64(hdr[:]))
		}
	case TypeBool:
		b.bools = make([]bool, n)
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, err
		}
		for i, x := range buf {
			b.bools[i] = x != 0
		}
	case TypeStr:
		b.offs = make([]uint32, n)
		for i := range b.offs {
			if _, err := io.ReadFull(br, hdr[:4]); err != nil {
				return nil, err
			}
			b.offs[i] = le.Uint32(hdr[:4])
		}
		b.heap, err = readBytes(br)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("bat: unknown tail type %d", hdr[5])
	}
	want := hr.h.Sum32()
	if _, err := io.ReadFull(hr.r, hdr[:4]); err != nil {
		return nil, fmt.Errorf("bat: read checksum: %w", err)
	}
	if got := le.Uint32(hdr[:4]); got != want {
		return nil, fmt.Errorf("bat: checksum mismatch (file %#08x, computed %#08x)", got, want)
	}
	return b, nil
}

func writeBytes(w io.Writer, p []byte) error {
	var lenb [4]byte
	binary.LittleEndian.PutUint32(lenb[:], uint32(len(p)))
	if _, err := w.Write(lenb[:]); err != nil {
		return err
	}
	_, err := w.Write(p)
	return err
}

func readBytes(r io.Reader) ([]byte, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lenb[:])
	p := make([]byte, n)
	if _, err := io.ReadFull(r, p); err != nil {
		return nil, err
	}
	return p, nil
}

type countWriter struct {
	w io.Writer
	n int64
	h hash.Hash32 // nil once the checksum trailer is being written
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	if c.h != nil {
		c.h.Write(p[:n])
	}
	return n, err
}

// hashReader folds every byte read into h, so the checksum trailer can
// be verified against exactly the bytes that were parsed. The trailer
// itself is read from the underlying reader, bypassing the hash.
type hashReader struct {
	r io.Reader
	h hash.Hash32
}

func (c *hashReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.h.Write(p[:n])
	return n, err
}
