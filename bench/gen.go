package main

import (
	"fmt"
	"math/rand"
	"strconv"
)

// The generator owns every input: tables are columns of plain Go slices built
// from the seed, and the same slices are what the oracle reads. FLOAT cells
// are generated as integer cents, rendered as 2-decimal literals, and the
// float64 the oracle uses is parsed back from that literal, so engine and
// oracle start from the same bits.

type colKind uint8

const (
	kInt colKind = iota
	kFloat
	kText
)

type column struct {
	name string
	kind colKind
	ints []int64   // kInt: the value; kFloat: the value in cents
	flts []float64 // kFloat: ParseFloat of the rendered literal
	null []bool    // nil when the column has no NULLs
	strs []string  // kText
}

type table struct {
	name string
	n    int
	cols []*column
}

func (t *table) col(name string) *column {
	for _, c := range t.cols {
		if c.name == name {
			return c
		}
	}
	panic("bench: no column " + t.name + "." + name)
}

func (t *table) ddl() string {
	b := []byte("CREATE TABLE " + t.name + " (")
	for i, c := range t.cols {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, c.name...)
		b = append(b, [...]string{" INT", " FLOAT", " TEXT"}[c.kind]...)
	}
	return string(append(b, ')'))
}

func appendCents(b []byte, cents int64) []byte {
	b = strconv.AppendInt(b, cents/100, 10)
	b = append(b, '.')
	if cents%100 < 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, cents%100, 10)
}

func centsToFloat(cents int64) float64 {
	f, err := strconv.ParseFloat(string(appendCents(nil, cents)), 64)
	if err != nil {
		panic(err)
	}
	return f
}

// appendRow renders row i as a VALUES tuple.
func (t *table) appendRow(b []byte, i int) []byte {
	b = append(b, '(')
	for j, c := range t.cols {
		if j > 0 {
			b = append(b, ',')
		}
		switch {
		case c.null != nil && c.null[i]:
			b = append(b, "NULL"...)
		case c.kind == kInt:
			b = strconv.AppendInt(b, c.ints[i], 10)
		case c.kind == kFloat:
			b = appendCents(b, c.ints[i])
		default:
			b = append(b, '\'')
			b = append(b, c.strs[i]...)
			b = append(b, '\'')
		}
	}
	return append(b, ')')
}

// userBytes is the size of the values as the engine stores them: 8 bytes per
// INT or FLOAT cell, the string length per TEXT cell.
func (t *table) userBytes() int64 {
	var n int64
	for _, c := range t.cols {
		if c.kind != kText {
			n += 8 * int64(t.n)
			continue
		}
		for _, s := range c.strs {
			n += int64(len(s))
		}
	}
	return n
}

const loadBatch = 2048 // rows per INSERT statement

// load creates t and inserts its rows through exec, one multi-row INSERT per
// loadBatch rows.
func load(exec func(sql string) error, t *table) error {
	if err := exec(t.ddl()); err != nil {
		return fmt.Errorf("create %s: %w", t.name, err)
	}
	b := make([]byte, 0, 64*loadBatch)
	for lo := 0; lo < t.n; lo += loadBatch {
		b = append(b[:0], "INSERT INTO "...)
		b = append(b, t.name...)
		b = append(b, " VALUES "...)
		for i := lo; i < lo+loadBatch && i < t.n; i++ {
			if i > lo {
				b = append(b, ',')
			}
			b = t.appendRow(b, i)
		}
		if err := exec(string(b)); err != nil {
			return fmt.Errorf("insert into %s: %w", t.name, err)
		}
	}
	return nil
}

func intCol(name string, n int, f func(i int) int64) *column {
	c := &column{name: name, kind: kInt, ints: make([]int64, n)}
	for i := range c.ints {
		c.ints[i] = f(i)
	}
	return c
}

func centsCol(name string, n int, f func(i int) int64) *column {
	c := intCol(name, n, f)
	c.kind = kFloat
	c.flts = make([]float64, n)
	for i, v := range c.ints {
		c.flts[i] = centsToFloat(v)
	}
	return c
}

func scaled(n int, scale float64) int {
	if m := int(float64(n) * scale); m > 64 {
		return m
	}
	return 64
}

// Domain sizes. The dimension tables use their key as row index, so the
// oracle joins by array lookup.
const (
	nDays   = 2048
	nDim1   = 1000
	nDim2   = 10000
	nDim3   = 100
	nRegion = 25
	nFlags  = 6
)

var flagNames = [nFlags]string{"AIR", "MAIL", "RAIL", "SHIP", "TRUCK", "FOB"}

// genFact is the OLAP fact table: id is the row index, day rises with id
// (clustered, the property a zone map exploits), d1/d2 are uniform foreign
// keys, d3 is skewed towards 0, disc is NULL in about 2 % of the rows.
func genFact(seed int64, n int) *table {
	r := rand.New(rand.NewSource(seed*7919 + 1))
	t := &table{name: "fact", n: n}
	disc := centsCol("disc", n, func(int) int64 { return int64(r.Intn(11)) })
	disc.null = make([]bool, n)
	for i := range disc.null {
		disc.null[i] = r.Intn(50) == 0
	}
	t.cols = []*column{
		intCol("id", n, func(i int) int64 { return int64(i) }),
		intCol("day", n, func(i int) int64 { return int64(i) * nDays / int64(n) }),
		intCol("d1", n, func(int) int64 { return int64(r.Intn(nDim1)) }),
		intCol("d2", n, func(int) int64 { return int64(r.Intn(nDim2)) }),
		intCol("d3", n, func(int) int64 { u := r.Float64(); return int64(u * u * nDim3) }),
		intCol("qty", n, func(int) int64 { return int64(1 + r.Intn(50)) }),
		centsCol("price", n, func(int) int64 { return int64(100 + r.Intn(99900)) }),
		disc,
	}
	return t
}

// genFactSmall is the table of the TEXT-grouped template and of the
// out-of-core workload; bk is a foreign key into a dim_big of nBig rows.
func genFactSmall(seed int64, n, nBig int) *table {
	r := rand.New(rand.NewSource(seed*7919 + 2))
	t := &table{name: "fact_small", n: n}
	flag := &column{name: "flag", kind: kText, strs: make([]string, n)}
	for i := range flag.strs {
		flag.strs[i] = flagNames[r.Intn(nFlags)]
	}
	t.cols = []*column{
		intCol("id", n, func(i int) int64 { return int64(i) }),
		intCol("d1", n, func(int) int64 { return int64(r.Intn(nDim1)) }),
		intCol("d2", n, func(int) int64 { return int64(r.Intn(nDim2)) }),
		intCol("bk", n, func(int) int64 { return int64(r.Intn(nBig)) }),
		intCol("qty", n, func(int) int64 { return int64(1 + r.Intn(50)) }),
		centsCol("price", n, func(int) int64 { return int64(100 + r.Intn(99900)) }),
		flag,
	}
	return t
}

func genDims(seed int64) (dim1, dim2, region, dim3 *table) {
	r := rand.New(rand.NewSource(seed*7919 + 3))
	key := func(name string, n int) *column { return intCol(name, n, func(i int) int64 { return int64(i) }) }
	uni := func(name string, n, dom int) *column {
		return intCol(name, n, func(int) int64 { return int64(r.Intn(dom)) })
	}
	dim1 = &table{name: "dim1", n: nDim1, cols: []*column{key("k1", nDim1), uni("cat", nDim1, 20), uni("w1", nDim1, 100)}}
	dim2 = &table{name: "dim2", n: nDim2, cols: []*column{key("k2", nDim2), uni("reg", nDim2, nRegion), uni("tier", nDim2, 5)}}
	region = &table{name: "region", n: nRegion, cols: []*column{key("r", nRegion), intCol("zone", nRegion, func(i int) int64 { return int64(i % 5) })}}
	dim3 = &table{name: "dim3", n: nDim3, cols: []*column{key("k3", nDim3), intCol("band", nDim3, func(i int) int64 { return int64(i % 10) })}}
	return
}

func genDimBig(seed int64, n int) *table {
	r := rand.New(rand.NewSource(seed*7919 + 4))
	return &table{name: "dim_big", n: n, cols: []*column{
		intCol("kb", n, func(i int) int64 { return int64(i) }),
		intCol("v", n, func(int) int64 { return int64(r.Intn(1000000)) }),
	}}
}

// genSmall is the table of the ad-hoc workload: small enough that executing
// a query costs less than parsing and planning it.
func genSmall(seed int64, n int) *table {
	r := rand.New(rand.NewSource(seed*7919 + 5))
	return &table{name: "small", n: n, cols: []*column{
		intCol("k", n, func(i int) int64 { return int64(i) }),
		intCol("a", n, func(int) int64 { return int64(r.Intn(64)) }),
		intCol("b", n, func(int) int64 { return int64(r.Intn(1000)) }),
		centsCol("f", n, func(int) int64 { return int64(r.Intn(100000)) }),
	}}
}

const acctPerGrp = 200

// genAcct is the served table: id is the row index, grp groups acctPerGrp
// consecutive ids.
func genAcct(seed int64, n int) *table {
	r := rand.New(rand.NewSource(seed*7919 + 6))
	return &table{name: "acct", n: n, cols: []*column{
		intCol("id", n, func(i int) int64 { return int64(i) }),
		intCol("grp", n, func(i int) int64 { return int64(i / acctPerGrp) }),
		intCol("bal", n, func(int) int64 { return int64(r.Intn(1000000)) }),
		centsCol("rate", n, func(int) int64 { return int64(r.Intn(1000)) }),
	}}
}
