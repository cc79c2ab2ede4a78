package bat

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewVoidVirtual(t *testing.T) {
	b := NewVoid(10, 5)
	if b.Len() != 5 {
		t.Fatalf("Len = %d, want 5", b.Len())
	}
	if b.HeapBytes() != 0 {
		t.Fatalf("void BAT should take no tail storage, got %d bytes", b.HeapBytes())
	}
	for i := 0; i < 5; i++ {
		if got := b.OIDAt(i); got != OID(10+i) {
			t.Fatalf("OIDAt(%d) = %d, want %d", i, got, 10+i)
		}
	}
	if !b.Props().Sorted || !b.Props().Key {
		t.Fatalf("void tail must be sorted and key, got %+v", b.Props())
	}
}

func TestVoidMaterialize(t *testing.T) {
	b := NewVoid(3, 4).materialize()
	want := []OID{3, 4, 5, 6}
	if !reflect.DeepEqual(b.OIDs(), want) {
		t.Fatalf("materialized = %v, want %v", b.OIDs(), want)
	}
	if b.TailType() != TypeOID {
		t.Fatalf("type = %v, want oid", b.TailType())
	}
}

func TestAppendIntProps(t *testing.T) {
	b := New(TypeInt)
	for _, v := range []int64{1, 2, 3} {
		b.AppendInt(v)
	}
	if p := b.Props(); !p.Sorted || !p.Key || p.RevSorted {
		t.Fatalf("ascending run props = %+v", p)
	}
	b.AppendInt(0)
	if p := b.Props(); p.Sorted {
		t.Fatalf("props after out-of-order append = %+v", p)
	}
}

func TestAppendIntDuplicateKillsKey(t *testing.T) {
	b := New(TypeInt)
	b.AppendInt(5)
	b.AppendInt(5)
	if b.Props().Key {
		t.Fatal("duplicate append must clear Key")
	}
}

func TestAppendNilClearsNoNil(t *testing.T) {
	b := New(TypeInt)
	b.AppendInt(NilInt)
	if b.Props().NoNil {
		t.Fatal("nil append must clear NoNil")
	}
}

func TestStringsRoundTrip(t *testing.T) {
	vals := []string{"John Wayne", "Roger Moore", "", "Bob Fosse", "Will Smith"}
	b := FromStrings(vals)
	if b.Len() != len(vals) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(vals))
	}
	for i, want := range vals {
		if got := b.StrAt(i); got != want {
			t.Fatalf("StrAt(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestSlicePreservesHeadOIDs(t *testing.T) {
	b := FromInts([]int64{10, 20, 30, 40, 50})
	s := b.Slice(2, 4)
	if s.Len() != 2 {
		t.Fatalf("slice len = %d, want 2", s.Len())
	}
	if s.HSeq() != 2 {
		t.Fatalf("slice hseq = %d, want 2", s.HSeq())
	}
	if s.IntAt(0) != 30 || s.IntAt(1) != 40 {
		t.Fatalf("slice values = %d,%d", s.IntAt(0), s.IntAt(1))
	}
}

func TestSliceString(t *testing.T) {
	b := FromStrings([]string{"aa", "bb", "cc", "dd"})
	s := b.Slice(1, 3)
	if s.StrAt(0) != "bb" || s.StrAt(1) != "cc" {
		t.Fatalf("string slice got %q,%q", s.StrAt(0), s.StrAt(1))
	}
}

func TestSliceVoid(t *testing.T) {
	b := NewVoid(100, 10)
	s := b.Slice(4, 8)
	if s.Len() != 4 || s.OIDAt(0) != 104 {
		t.Fatalf("void slice: len=%d first=%d", s.Len(), s.OIDAt(0))
	}
}

func TestSliceOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromInts([]int64{1}).Slice(0, 2)
}

func TestFindSorted(t *testing.T) {
	b := FromInts([]int64{2, 4, 6, 8})
	if i, ok := b.FindSorted(6); !ok || i != 2 {
		t.Fatalf("FindSorted(6) = %d,%v", i, ok)
	}
	if i, ok := b.FindSorted(5); ok || i != 2 {
		t.Fatalf("FindSorted(5) = %d,%v; want insertion point 2, not found", i, ok)
	}
	if _, ok := b.FindSorted(9); ok {
		t.Fatal("FindSorted(9) should not find")
	}
}

func TestCopyIsDeep(t *testing.T) {
	b := FromInts([]int64{1, 2, 3})
	c := b.Copy()
	c.Ints()[0] = 99
	if b.IntAt(0) != 1 {
		t.Fatal("Copy must not share storage")
	}
}

func TestValueBoxing(t *testing.T) {
	cases := []struct {
		b    *BAT
		want any
	}{
		{FromInts([]int64{7}), int64(7)},
		{FromFloats([]float64{1.5}), 1.5},
		{FromBools([]bool{true}), true},
		{FromStrings([]string{"x"}), "x"},
		{FromOIDs([]OID{3}), OID(3)},
		{NewVoid(9, 1), OID(9)},
	}
	for _, c := range cases {
		if got := c.b.Value(0); got != c.want {
			t.Errorf("Value(0) on %s = %v, want %v", c.b.TailType(), got, c.want)
		}
	}
}

func TestAppendBoxed(t *testing.T) {
	b := New(TypeInt)
	if err := b.Append(int64(4)); err != nil {
		t.Fatal(err)
	}
	if err := b.Append("no"); err == nil {
		t.Fatal("expected type error")
	}
	s := New(TypeStr)
	if err := s.Append("yes"); err != nil {
		t.Fatal(err)
	}
	if s.StrAt(0) != "yes" {
		t.Fatalf("got %q", s.StrAt(0))
	}
}

func TestRecomputeOIDProps(t *testing.T) {
	b := FromOIDs([]OID{1, 2, 3})
	if p := b.Props(); !p.Sorted || !p.Key {
		t.Fatalf("props = %+v", p)
	}
	b2 := FromOIDs([]OID{3, 1, 2})
	if p := b2.Props(); p.Sorted || p.RevSorted {
		t.Fatalf("props = %+v", p)
	}
}

func TestPersistRoundTripInt(t *testing.T) {
	b := FromInts([]int64{5, -3, NilInt, 42}).SetName("t_a")
	b.SetHSeq(7)
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "t_a" || got.HSeq() != 7 {
		t.Fatalf("name/hseq = %q/%d", got.Name(), got.HSeq())
	}
	if !reflect.DeepEqual(got.Ints(), b.Ints()) {
		t.Fatalf("ints = %v, want %v", got.Ints(), b.Ints())
	}
	if got.Props() != b.Props() {
		t.Fatalf("props = %+v, want %+v", got.Props(), b.Props())
	}
}

func TestPersistRoundTripAllTypes(t *testing.T) {
	bats := []*BAT{
		NewVoid(4, 9),
		FromOIDs([]OID{9, 8, 7}),
		FromFloats([]float64{1.25, -2.5}),
		FromBools([]bool{true, false, true}),
		FromStrings([]string{"alpha", "", "gamma"}),
	}
	for _, b := range bats {
		var buf bytes.Buffer
		if _, err := b.WriteTo(&buf); err != nil {
			t.Fatalf("%s: %v", b.TailType(), err)
		}
		got, err := ReadFrom(&buf)
		if err != nil {
			t.Fatalf("%s: %v", b.TailType(), err)
		}
		if got.Len() != b.Len() || got.TailType() != b.TailType() {
			t.Fatalf("%s: len/type mismatch", b.TailType())
		}
		for i := 0; i < b.Len(); i++ {
			if got.Value(i) != b.Value(i) {
				t.Fatalf("%s: value %d = %v, want %v", b.TailType(), i, got.Value(i), b.Value(i))
			}
		}
	}
}

func TestPersistBadMagic(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6})); err == nil {
		t.Fatal("expected error on garbage input")
	}
}

// Property: persistence round-trips arbitrary int slices exactly.
func TestQuickPersistInts(t *testing.T) {
	f := func(vals []int64, hseq uint32) bool {
		b := FromInts(vals)
		b.SetHSeq(OID(hseq))
		var buf bytes.Buffer
		if _, err := b.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadFrom(&buf)
		if err != nil {
			return false
		}
		if got.Len() != len(vals) || got.HSeq() != OID(hseq) {
			return false
		}
		for i, v := range vals {
			if got.IntAt(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Slice(lo,hi) agrees with the underlying values and preserves
// head OIDs, for arbitrary bounds.
func TestQuickSlice(t *testing.T) {
	f := func(vals []int64, a, b uint8) bool {
		bb := FromInts(vals)
		lo, hi := int(a), int(b)
		if len(vals) == 0 {
			lo, hi = 0, 0
		} else {
			lo %= len(vals) + 1
			hi %= len(vals) + 1
			if lo > hi {
				lo, hi = hi, lo
			}
		}
		s := bb.Slice(lo, hi)
		if s.Len() != hi-lo || s.HSeq() != OID(lo) {
			return false
		}
		for i := 0; i < s.Len(); i++ {
			if s.IntAt(i) != vals[lo+i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: property flags computed by FromInts are truthful.
func TestQuickIntProps(t *testing.T) {
	f := func(vals []int64) bool {
		b := FromInts(vals)
		p := b.Props()
		sorted, rev := true, true
		for i := 1; i < len(vals); i++ {
			if vals[i] < vals[i-1] {
				sorted = false
			}
			if vals[i] > vals[i-1] {
				rev = false
			}
		}
		// Sorted/RevSorted must be exact; Key may be conservatively false.
		if p.Sorted != sorted || p.RevSorted != rev {
			return false
		}
		if p.Key {
			seen := map[int64]bool{}
			for _, v := range vals {
				if seen[v] {
					return false // claimed key but has duplicate
				}
				seen[v] = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeapBytes(t *testing.T) {
	if got := FromInts(make([]int64, 10)).HeapBytes(); got != 80 {
		t.Fatalf("int heap = %d, want 80", got)
	}
	s := FromStrings([]string{"abc", "de"})
	if got := s.HeapBytes(); got != 4*2+5 {
		t.Fatalf("str heap = %d, want 13", got)
	}
}

func TestAccessorPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"Ints on str", func() { FromStrings([]string{"x"}).Ints() }},
		{"Floats on int", func() { FromInts([]int64{1}).Floats() }},
		{"Bools on int", func() { FromInts([]int64{1}).Bools() }},
		{"StrAt on int", func() { FromInts([]int64{1}).StrAt(0) }},
		{"OIDs on int", func() { FromInts([]int64{1}).OIDs() }},
		{"FindSorted unsorted", func() { FromInts([]int64{2, 1}).FindSorted(1) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			c.f()
		}()
	}
}

func TestWrapIntsConservativeProps(t *testing.T) {
	b := WrapInts([]int64{1, 2, 3})
	if p := b.Props(); p.Sorted || p.Key || p.NoNil {
		t.Fatalf("wrap props should be all-false, got %+v", p)
	}
	if b.Len() != 3 || b.IntAt(2) != 3 {
		t.Fatal("wrap content wrong")
	}
}

func TestAppendOIDAndFloatProps(t *testing.T) {
	b := New(TypeOID)
	b.AppendOID(5)
	b.AppendOID(3)
	if b.Props().Sorted {
		t.Fatal("descending OIDs should clear Sorted")
	}
	b.AppendOID(NilOID)
	if b.Props().NoNil {
		t.Fatal("NilOID should clear NoNil")
	}
	f := New(TypeFloat)
	f.AppendFloat(1)
	f.AppendFloat(1)
	if f.Props().Key {
		t.Fatal("duplicate float should clear Key")
	}
	bb := New(TypeBool)
	bb.AppendBool(true)
	bb.AppendBool(false)
	if bb.Len() != 2 || bb.bools[1] {
		t.Fatal("bool append wrong")
	}
}

func TestAppendBoxedAllTypes(t *testing.T) {
	o := New(TypeOID)
	if err := o.Append(OID(4)); err != nil {
		t.Fatal(err)
	}
	if err := o.Append(7); err == nil {
		t.Fatal("expected oid type error")
	}
	f := New(TypeFloat)
	if err := f.Append(1.5); err != nil {
		t.Fatal(err)
	}
	if err := f.Append("x"); err == nil {
		t.Fatal("expected float type error")
	}
	bb := New(TypeBool)
	if err := bb.Append(true); err != nil {
		t.Fatal(err)
	}
	if err := bb.Append(1); err == nil {
		t.Fatal("expected bool type error")
	}
	v := NewVoid(0, 3)
	if err := v.Append(OID(9)); err == nil {
		t.Fatal("expected void append error")
	}
}

func TestTypeStrings(t *testing.T) {
	for typ, want := range map[Type]string{
		TypeVoid: "void", TypeOID: "oid", TypeInt: "int",
		TypeFloat: "flt", TypeBool: "bit", TypeStr: "str",
	} {
		if typ.String() != want {
			t.Fatalf("%d.String() = %q", typ, typ.String())
		}
	}
	if Type(99).String() == "" {
		t.Fatal("unknown type should render")
	}
	if FromInts(nil).String() == "" {
		t.Fatal("BAT.String empty")
	}
}

func TestPersistTruncatedStream(t *testing.T) {
	b := FromInts([]int64{1, 2, 3, 4, 5, 6, 7, 8})
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	// Every truncation point must produce an error, not a panic or a
	// silently short BAT.
	for cut := 1; cut < len(blob); cut += 7 {
		if _, err := ReadFrom(bytes.NewReader(blob[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes: expected error", cut)
		}
	}
}

// Only version 2 is read. Version 1 — the same bytes minus the checksum
// trailer, which no writer in the tree produces — is refused by its
// header like any other unknown version, not read unchecked.
func TestPersistUnknownVersion(t *testing.T) {
	b := FromInts([]int64{10, 20, 30})
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, blob := range [][]byte{
		append([]byte(nil), buf.Bytes()...),
		append([]byte(nil), buf.Bytes()[:buf.Len()-4]...),
	} {
		for _, version := range []byte{1, 99} {
			blob[4] = version
			_, err := ReadFrom(bytes.NewReader(blob))
			if err == nil || !strings.Contains(err.Error(), "unsupported version") {
				t.Fatalf("version %d, %d bytes: err = %v, want unsupported version", version, len(blob), err)
			}
		}
	}
}

func TestPersistChecksumDetectsBitFlip(t *testing.T) {
	b := FromStrings([]string{"alpha", "beta", "gamma"})
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	// Flip one bit in the heap, keeping every length field intact — only
	// the checksum can see this.
	blob[len(blob)-7] ^= 0x10
	_, err := ReadFrom(bytes.NewReader(blob))
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("err = %v, want checksum mismatch", err)
	}
}

func TestMaterializeNonVoidIdentity(t *testing.T) {
	b := FromInts([]int64{1})
	if b.materialize() != b {
		t.Fatal("materialize of non-void should be identity")
	}
}

func TestVoidOIDsAndHeapBytes(t *testing.T) {
	v := NewVoid(5, 3)
	if got := v.OIDs(); len(got) != 3 || got[2] != 7 {
		t.Fatalf("void OIDs = %v", got)
	}
	if FromOIDs([]OID{1, 2}).HeapBytes() != 16 {
		t.Fatal("oid heap bytes wrong")
	}
	if FromBools([]bool{true}).HeapBytes() != 1 {
		t.Fatal("bool heap bytes wrong")
	}
	if FromFloats([]float64{1}).HeapBytes() != 8 {
		t.Fatal("float heap bytes wrong")
	}
}
