package vector

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bat"
)

// The selection primitives' two flavours must select the same rows:
// the same as each other and as the predicate evaluated row by row. The
// vectors are drawn fresh for every call, never replayed, so the
// branch predictor cannot learn one and flatter the branching flavour.

// flavourOps lists every predicate code with its row-by-row meaning.
var flavourOps = []struct {
	op  PredOp
	ref func(p *Pred, c *Col, i int32) bool
}{
	{PredGe, func(p *Pred, c *Col, i int32) bool { return c.Ints[i] >= p.IntVal }},
	{PredGt, func(p *Pred, c *Col, i int32) bool { return c.Ints[i] > p.IntVal }},
	{PredLe, func(p *Pred, c *Col, i int32) bool { return c.Ints[i] <= p.IntVal }},
	{PredLt, func(p *Pred, c *Col, i int32) bool { return c.Ints[i] < p.IntVal }},
	{PredEq, func(p *Pred, c *Col, i int32) bool { return c.Ints[i] == p.IntVal }},
	{PredNe, func(p *Pred, c *Col, i int32) bool { return c.Ints[i] != p.IntVal }},
	{PredLtNil, func(p *Pred, c *Col, i int32) bool { return c.Ints[i] < p.IntVal && c.Ints[i] != bat.NilInt }},
	{PredLeNil, func(p *Pred, c *Col, i int32) bool { return c.Ints[i] <= p.IntVal && c.Ints[i] != bat.NilInt }},
	{PredNeNil, func(p *Pred, c *Col, i int32) bool { return c.Ints[i] != p.IntVal && c.Ints[i] != bat.NilInt }},
	{PredIsNull, func(p *Pred, c *Col, i int32) bool { return c.Ints[i] == bat.NilInt }},
	{PredIsNotNull, func(p *Pred, c *Col, i int32) bool { return c.Ints[i] != bat.NilInt }},
	{PredGeF, func(p *Pred, c *Col, i int32) bool { return c.Floats[i] >= p.FltVal }},
	{PredGtF, func(p *Pred, c *Col, i int32) bool { return c.Floats[i] > p.FltVal }},
	{PredLeF, func(p *Pred, c *Col, i int32) bool { return c.Floats[i] <= p.FltVal }},
	{PredLtF, func(p *Pred, c *Col, i int32) bool { return c.Floats[i] < p.FltVal }},
	{PredEqF, func(p *Pred, c *Col, i int32) bool { return c.Floats[i] == p.FltVal }},
	{PredNeF, func(p *Pred, c *Col, i int32) bool { return c.Floats[i] != p.FltVal && !bat.IsNilFloat(c.Floats[i]) }},
	{PredIsNullF, func(p *Pred, c *Col, i int32) bool { return bat.IsNilFloat(c.Floats[i]) }},
	{PredIsNotNullF, func(p *Pred, c *Col, i int32) bool { return !bat.IsNilFloat(c.Floats[i]) }},
	{PredInBits, nil}, // membership in the key set the bitmap was built from
}

// flavourSpan is the value range of the ordinary cells: a threshold of
// pct·flavourSpan/100 passes about pct % of them.
const flavourSpan = 10000

// flavourGen draws the vectors and predicates of the property test.
type flavourGen struct {
	rng  *rand.Rand
	keys map[int64]bool // the bitmap predicate's key set
}

// cell draws one INT cell: an ordinary value in [0, flavourSpan), or
// rarely an edge: nil, the extreme non-nil values, or a value below the
// bitmap's base (which is 0).
func (g *flavourGen) cell(edges bool) int64 {
	if edges && g.rng.Intn(16) == 0 {
		return []int64{bat.NilInt, bat.NilInt + 1, math.MaxInt64, -1, -flavourSpan}[g.rng.Intn(5)]
	}
	return g.rng.Int63n(flavourSpan)
}

// column draws an n-row column of the predicate's kind.
func (g *flavourGen) column(op PredOp, n int, edges bool) Col {
	if op >= PredLeF && op <= PredGeF || op >= PredLtF && op <= PredNeF || op == PredIsNullF || op == PredIsNotNullF {
		c := Col{Kind: KindFloat, Floats: make([]float64, n)}
		for i := range c.Floats {
			c.Floats[i] = float64(g.cell(false))
			if edges && g.rng.Intn(16) == 0 {
				c.Floats[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1}[g.rng.Intn(4)]
			}
		}
		return c
	}
	c := Col{Kind: KindInt, Ints: make([]int64, n)}
	for i := range c.Ints {
		c.Ints[i] = g.cell(edges)
	}
	return c
}

// pred builds op with a constant that passes about pct % of the
// ordinary cells (the nil tests ignore it: pass rates there come from
// how many nils the column holds).
func (g *flavourGen) pred(op PredOp, pct int) Pred {
	v := int64(pct * flavourSpan / 100)
	p := Pred{Op: op, IntVal: v, FltVal: float64(v)}
	switch op {
	case PredGe, PredGeF:
		p.IntVal, p.FltVal = flavourSpan-v, float64(flavourSpan-v)
	case PredGt, PredGtF:
		p.IntVal, p.FltVal = flavourSpan-v-1, float64(flavourSpan-v-1)
	case PredLe, PredLeF, PredLeNil:
		p.IntVal, p.FltVal = v-1, float64(v-1)
	case PredEq, PredEqF, PredNe, PredNeF, PredNeNil:
		p.IntVal = g.rng.Int63n(flavourSpan)
		p.FltVal = float64(p.IntVal)
	case PredInBits:
		// Keys drawn at pct % density over [0, flavourSpan), so base 0.
		g.keys = map[int64]bool{}
		p.IntVal, p.Bits = 0, make([]uint64, flavourSpan/64+1)
		for k := int64(0); k < flavourSpan; k++ {
			if g.rng.Intn(100) < pct {
				g.keys[k] = true
				p.Bits[k>>6] |= 1 << (k & 63)
			}
		}
	}
	return p
}

// sel draws a selection over n rows keeping about keep of 1, or nil.
func (g *flavourGen) sel(n int, keep float64) []int32 {
	if keep >= 1 {
		return nil
	}
	s := []int32{}
	for i := 0; i < n; i++ {
		if g.rng.Float64() < keep {
			s = append(s, int32(i))
		}
	}
	return s
}

// want evaluates p row by row over the candidates of sel.
func (g *flavourGen) want(p *Pred, ref func(*Pred, *Col, int32) bool, c *Col, sel []int32, n int) []int32 {
	out := []int32{}
	test := func(i int32) {
		ok := false
		if ref != nil {
			ok = ref(p, c, i)
		} else {
			ok = g.keys[c.Ints[i]]
		}
		if ok {
			out = append(out, i)
		}
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			test(int32(i))
		}
	} else {
		for _, i := range sel {
			test(i)
		}
	}
	return out
}

func TestSelFlavoursAgree(t *testing.T) {
	g := &flavourGen{rng: rand.New(rand.NewSource(36))}
	const n = 1024
	for _, fo := range flavourOps {
		for _, pct := range []int{0, 1, 5, 50, 95, 99, 100} {
			for _, keep := range []float64{1, 0.5, 0.03} {
				for _, edges := range []bool{false, true} {
					for rep := 0; rep < 3; rep++ { // a fresh vector each time
						p := g.pred(fo.op, pct)
						c := g.column(fo.op, n, edges)
						sel := g.sel(n, keep)
						want := g.want(&p, fo.ref, &c, sel, n)
						name := fmt.Sprintf("op %d, %d%% pass, sel %v, edges %v", fo.op, pct, keep, edges)
						for _, bf := range []bool{false, true} {
							// Existing indexes ahead of the candidates must survive.
							out := append(make([]int32, 0, 3+n), -7, -8, -9)
							got, err := p.sel(&c, sel, out, bf)
							if err != nil {
								t.Fatal(err)
							}
							if !slices.Equal(got[:3], []int32{-7, -8, -9}) || !slices.Equal(got[3:], want) {
								t.Fatalf("%s, branch-free %v: got %d rows, want %d", name, bf, len(got)-3, len(want))
							}
						}
					}
				}
			}
		}
	}
}

// sliceOp streams prepared batches.
type sliceOp struct {
	bs []*Batch
	at int
}

func (o *sliceOp) Open() error { o.at = 0; return nil }
func (o *sliceOp) Next() (*Batch, error) {
	if o.at == len(o.bs) {
		return nil, nil
	}
	o.at++
	return o.bs[o.at-1], nil
}
func (o *sliceOp) Close() error { return nil }

// One Filter, and so one adaptive state and one pair of selection
// buffers, meets batches growing from 1 to 1024 rows whose pass rates
// swing between the ends and the middle: whichever flavour the last
// batch chose, out must hold every candidate of the next.
func TestFilterFlavourGrowingBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const half = flavourSpan / 2
	even := make([]uint64, (flavourSpan+63)/64)
	for w := range even {
		even[w] = 0x5555555555555555 // the even values of [0, flavourSpan)
	}
	preds := []Pred{
		{ColIdx: 0, Op: PredLtNil, IntVal: half},
		{ColIdx: 1, Op: PredInBits, Bits: even},
		{ColIdx: 2, Op: PredGeF, FltVal: half},
	}
	pass := []func(c *Col, i int32) bool{
		func(c *Col, i int32) bool { return c.Ints[i] < half && c.Ints[i] != bat.NilInt },
		func(c *Col, i int32) bool { x := c.Ints[i]; return x >= 0 && x < flavourSpan && x%2 == 0 },
		func(c *Col, i int32) bool { return c.Floats[i] >= half },
	}
	// draw yields a value that passes its predicate with probability pct %.
	draw := func(col, pct int) (int64, float64) {
		ok := rng.Intn(100) < pct
		if rng.Intn(32) == 0 { // an edge: nil, NaN, or below the bitmap base
			return []int64{bat.NilInt, -2, -flavourSpan}[rng.Intn(3)], math.NaN()
		}
		x := rng.Int63n(half)
		switch {
		case col == 1 && ok:
			x = 2 * x
		case col == 1:
			x = 2*x + 1
		case col == 0 && !ok, col == 2 && ok:
			x += half
		}
		return x, float64(x)
	}
	var bs []*Batch
	var want [][]int32
	for n := 1; n <= 1024; n += 1 + n/8 {
		pcts := []int{0, 100, 50, 1, 99, 5, 95}
		b := &Batch{N: n, Cols: []Col{{Kind: KindInt}, {Kind: KindInt}, {Kind: KindFloat}}}
		for c := range b.Cols {
			pct := pcts[(len(bs)+c)%len(pcts)]
			for i := 0; i < n; i++ {
				x, f := draw(c, pct)
				b.Cols[c].Ints, b.Cols[c].Floats = append(b.Cols[c].Ints, x), append(b.Cols[c].Floats, f)
			}
		}
		if len(bs)%3 == 2 {
			b.Sel = []int32{}
			for i := 0; i < n; i++ {
				if rng.Intn(5) > 0 {
					b.Sel = append(b.Sel, int32(i))
				}
			}
		}
		var w []int32
		for i := int32(0); i < int32(n); i++ {
			if (b.Sel == nil || slices.Contains(b.Sel, i)) && pass[0](&b.Cols[0], i) && pass[1](&b.Cols[1], i) && pass[2](&b.Cols[2], i) {
				w = append(w, i)
			}
		}
		bs, want = append(bs, b), append(want, w)
	}
	f := &Filter{Child: &sliceOp{bs: bs}, Preds: preds}
	if err := f.Open(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var seen [2]int // vectors after which the first predicate went branch-free, branching
	for bi := range bs {
		if len(want[bi]) == 0 {
			continue // the Filter skips a batch nothing passes
		}
		b, err := f.Next()
		seen[f.branchy&1]++
		if err != nil {
			t.Fatal(err)
		}
		if b != bs[bi] || !slices.Equal(b.Sel, want[bi]) {
			t.Fatalf("batch %d (%d rows): got %v, want %v", bi, bs[bi].N, b.Sel, want[bi])
		}
	}
	if b, err := f.Next(); b != nil || err != nil {
		t.Fatalf("after the last batch: got %v, %v", b, err)
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Fatalf("the first predicate never switched flavour: %v", seen)
	}
}
