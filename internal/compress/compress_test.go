package compress

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPFORRoundTripSmallDomain(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = 100 + r.Int63n(16)
	}
	p := CompressPFOR(vals)
	got := p.Decompress(nil)
	if !reflect.DeepEqual(got, vals) {
		t.Fatal("round trip failed")
	}
	if p.Ratio() < 10 {
		t.Fatalf("4-bit domain should compress >10x, got %.1fx", p.Ratio())
	}
}

func TestPFORWithOutliers(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = r.Int63n(64)
	}
	// 2% outliers that would force 40-bit frames without patching.
	for i := 0; i < 20; i++ {
		vals[r.Intn(len(vals))] = r.Int63n(1 << 40)
	}
	p := CompressPFOR(vals)
	if !reflect.DeepEqual(p.Decompress(nil), vals) {
		t.Fatal("round trip failed")
	}
	if p.Ratio() < 5 {
		t.Fatalf("patching should preserve ratio despite outliers, got %.1fx", p.Ratio())
	}
}

func TestPFORAblationPatchingHelps(t *testing.T) {
	// The E7 ablation claim: with outliers present, the patched width
	// chosen per block must beat the unpatched (max-width) encoding.
	r := rand.New(rand.NewSource(3))
	vals := make([]int64, BlockSize)
	for i := range vals {
		vals[i] = r.Int63n(16)
	}
	vals[7] = 1 << 50 // one outlier
	p := CompressPFOR(vals)
	b := p.blocks[0]
	if b.width > 8 {
		t.Fatalf("block width %d; patching should keep it small", b.width)
	}
	if len(b.exc) != 1 {
		t.Fatalf("exceptions = %d, want 1", len(b.exc))
	}
}

func TestPFORNegativeValues(t *testing.T) {
	vals := []int64{-100, -50, 0, 50, 100}
	p := CompressPFOR(vals)
	if !reflect.DeepEqual(p.Decompress(nil), vals) {
		t.Fatal("negative round trip failed")
	}
}

func TestPFORExtremes(t *testing.T) {
	vals := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}
	p := CompressPFOR(vals)
	if !reflect.DeepEqual(p.Decompress(nil), vals) {
		t.Fatal("extreme round trip failed")
	}
}

func TestPFOREmpty(t *testing.T) {
	p := CompressPFOR(nil)
	if p.Len() != 0 || len(p.Decompress(nil)) != 0 {
		t.Fatal("empty compress failed")
	}
}

func TestPFORConstantColumn(t *testing.T) {
	vals := make([]int64, 500)
	for i := range vals {
		vals[i] = 42
	}
	p := CompressPFOR(vals)
	if !reflect.DeepEqual(p.Decompress(nil), vals) {
		t.Fatal("constant round trip failed")
	}
	if p.Ratio() < 50 {
		t.Fatalf("constant column ratio = %.1f, want huge", p.Ratio())
	}
}

func TestPFORDeltaSorted(t *testing.T) {
	vals := make([]int64, 10000)
	acc := int64(1000000)
	r := rand.New(rand.NewSource(4))
	for i := range vals {
		acc += r.Int63n(4)
		vals[i] = acc
	}
	pd := CompressPFORDelta(vals)
	if !reflect.DeepEqual(pd.Decompress(nil), vals) {
		t.Fatal("delta round trip failed")
	}
	plain := CompressPFOR(vals)
	if pd.CompressedBytes() >= plain.CompressedBytes() {
		t.Fatalf("delta (%d B) should beat plain PFOR (%d B) on sorted data",
			pd.CompressedBytes(), plain.CompressedBytes())
	}
	if pd.Ratio() < 10 {
		t.Fatalf("delta ratio on sorted data = %.1f, want > 10", pd.Ratio())
	}
}

func TestPFORDeltaDescending(t *testing.T) {
	vals := []int64{100, 90, 80, 70}
	pd := CompressPFORDelta(vals)
	if !reflect.DeepEqual(pd.Decompress(nil), vals) {
		t.Fatal("descending delta round trip failed")
	}
}

func TestDecompressBlockGranularity(t *testing.T) {
	vals := make([]int64, BlockSize*2+10)
	for i := range vals {
		vals[i] = int64(i * 3)
	}
	p := CompressPFOR(vals)
	if p.NumBlocks() != 3 {
		t.Fatalf("blocks = %d", p.NumBlocks())
	}
	buf := make([]int64, BlockSize)
	got, err := p.DecompressBlock(1, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, vals[BlockSize:2*BlockSize]) {
		t.Fatal("block 1 mismatch")
	}
	got, err = p.DecompressBlock(2, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("tail block len = %d", len(got))
	}
	if _, err := p.DecompressBlock(3, buf); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := CompressPFORDelta(vals).DecompressBlock(0, buf); err == nil {
		t.Fatal("expected delta-stream error")
	}
}

// Property: PFOR and PFOR-DELTA round-trip arbitrary data exactly.
func TestQuickPFORRoundTrip(t *testing.T) {
	f := func(vals []int64) bool {
		if !eqVals(CompressPFOR(vals).Decompress(nil), vals) {
			return false
		}
		return eqVals(CompressPFORDelta(vals).Decompress(nil), vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// eqVals compares slices element-wise, treating nil and empty as equal.
func eqVals(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPDICTRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	domain := []int64{1 << 40, -7, 0, 999999999, 12}
	vals := make([]int64, 2000)
	for i := range vals {
		vals[i] = domain[r.Intn(len(domain))]
	}
	p := CompressPDICT(vals)
	if !reflect.DeepEqual(p.Decompress(nil), vals) {
		t.Fatal("pdict round trip failed")
	}
	// 5 distinct values -> 3-bit codes: ratio near 64/3.
	if p.Ratio() < 10 {
		t.Fatalf("pdict ratio = %.1f, want > 10", p.Ratio())
	}
}

func TestPDICTSkewWithRareValues(t *testing.T) {
	// zipf-ish: two hot values + rare heavy tail; the rare values must not
	// blow up the code width when the dictionary is capped.
	vals := make([]int64, 5000)
	r := rand.New(rand.NewSource(6))
	for i := range vals {
		switch {
		case i%2 == 0:
			vals[i] = 7
		case i%3 == 0:
			vals[i] = 11
		default:
			vals[i] = r.Int63()
		}
	}
	p := CompressPDICT(vals)
	if !reflect.DeepEqual(p.Decompress(nil), vals) {
		t.Fatal("skew round trip failed")
	}
}

func TestPDICTEmptyAndConstant(t *testing.T) {
	if got := CompressPDICT(nil).Decompress(nil); len(got) != 0 {
		t.Fatal("empty pdict")
	}
	vals := []int64{9, 9, 9}
	p := CompressPDICT(vals)
	if !reflect.DeepEqual(p.Decompress(nil), vals) {
		t.Fatal("constant pdict round trip failed")
	}
	if p.width != 0 {
		t.Fatalf("constant dict width = %d, want 0", p.width)
	}
}

// Property: PDICT round-trips arbitrary data.
func TestQuickPDICTRoundTrip(t *testing.T) {
	f := func(vals []int64) bool {
		return eqVals(CompressPDICT(vals).Decompress(nil), vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitPacking(t *testing.T) {
	buf := make([]uint64, 4)
	vals := []uint64{5, 0, 31, 17, 9, 30, 1, 2}
	for i, v := range vals {
		putBits(buf, i*5, 5, v)
	}
	for i, v := range vals {
		if got := getBits(buf, i*5, 5); got != v {
			t.Fatalf("bit %d: got %d, want %d", i, got, v)
		}
	}
	// spanning a word boundary
	putBits(buf, 60, 33, 0x1FFFFFFFF)
	if got := getBits(buf, 60, 33); got != 0x1FFFFFFFF {
		t.Fatalf("spanning read = %x", got)
	}
}

func TestFORRoundTripAndAblation(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	vals := make([]int64, 2000)
	for i := range vals {
		vals[i] = r.Int63n(64)
	}
	// Clean data: FOR and PFOR are equally good.
	for_ := CompressFOR(vals)
	if !reflect.DeepEqual(for_.Decompress(nil), vals) {
		t.Fatal("FOR round trip failed")
	}
	pfor := CompressPFOR(vals)
	if float64(for_.CompressedBytes()) > 1.1*float64(pfor.CompressedBytes()) {
		t.Fatalf("clean data: FOR %dB should match PFOR %dB", for_.CompressedBytes(), pfor.CompressedBytes())
	}
	// 1% outliers: FOR blocks blow up to ~full width, PFOR patches.
	for i := 0; i < 20; i++ {
		vals[r.Intn(len(vals))] = r.Int63n(1 << 50)
	}
	for2 := CompressFOR(vals)
	pfor2 := CompressPFOR(vals)
	if !reflect.DeepEqual(for2.Decompress(nil), vals) {
		t.Fatal("FOR outlier round trip failed")
	}
	if for2.CompressedBytes() < 3*pfor2.CompressedBytes() {
		t.Fatalf("outliers should blow up FOR (%dB) vs PFOR (%dB)",
			for2.CompressedBytes(), pfor2.CompressedBytes())
	}
}

// Property: unpatched FOR round-trips arbitrary data too.
func TestQuickFORRoundTrip(t *testing.T) {
	f := func(vals []int64) bool {
		return eqVals(CompressFOR(vals).Decompress(nil), vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
