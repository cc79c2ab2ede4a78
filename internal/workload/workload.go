// Package workload generates the synthetic datasets and query logs the
// experiment harness uses in place of the paper's benchmark data
// (the experiments of cmd/experiments, E1–E15): uniform/zipf/sorted integer
// columns, a TPC-H-lineitem-shaped table for the analytical queries, and a
// Skyserver-shaped query log (overlapping range predicates over few
// columns) for the recycler experiment.
package workload

import (
	"math"
	"math/rand"

	"repro/internal/bat"
)

// UniformInts returns n uniform values in [0, domain).
func UniformInts(n int, domain int64, seed int64) []int64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int63n(domain)
	}
	return out
}

// SortedInts returns n values with non-decreasing order and average gap g.
func SortedInts(n int, g int64, seed int64) []int64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	acc := int64(0)
	for i := range out {
		acc += r.Int63n(2*g + 1)
		out[i] = acc
	}
	return out
}

// ZipfInts returns n zipf-distributed values over [0, domain) with skew s
// (s > 1).
func ZipfInts(n int, domain uint64, s float64, seed int64) []int64 {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, s, 1, domain-1)
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(z.Uint64())
	}
	return out
}

// ClusteredInts returns n values from k clusters with the given spread —
// the shape that makes PFOR shine and simple frames fail.
func ClusteredInts(n, k int, spread int64, seed int64) []int64 {
	r := rand.New(rand.NewSource(seed))
	centers := make([]int64, k)
	for i := range centers {
		centers[i] = r.Int63n(1 << 40)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = centers[r.Intn(k)] + r.Int63n(spread)
	}
	return out
}

// LineItem is a TPC-H-lineitem-shaped analytical table, decomposed by
// column (quantities scaled for laptop memory).
type LineItem struct {
	Quantity  []int64   // 1..50
	Price     []float64 // extendedprice
	Discount  []float64 // 0.00..0.10
	Tax       []float64 // 0.00..0.08
	ShipDate  []int64   // days since epoch-ish, 1..2526
	OrderKey  []int64
	ReturnFlg []int64 // 0..2 (the 3 return-flag classes)
	Status    []int64 // 0..1
}

// GenLineItem generates n rows.
func GenLineItem(n int, seed int64) *LineItem {
	r := rand.New(rand.NewSource(seed))
	li := &LineItem{
		Quantity:  make([]int64, n),
		Price:     make([]float64, n),
		Discount:  make([]float64, n),
		Tax:       make([]float64, n),
		ShipDate:  make([]int64, n),
		OrderKey:  make([]int64, n),
		ReturnFlg: make([]int64, n),
		Status:    make([]int64, n),
	}
	for i := 0; i < n; i++ {
		li.Quantity[i] = 1 + r.Int63n(50)
		li.Price[i] = 900 + 100*float64(r.Intn(1000))/10
		li.Discount[i] = float64(r.Intn(11)) / 100
		li.Tax[i] = float64(r.Intn(9)) / 100
		li.ShipDate[i] = 1 + r.Int63n(2526)
		li.OrderKey[i] = r.Int63n(int64(n) / 4)
		li.ReturnFlg[i] = r.Int63n(3)
		li.Status[i] = r.Int63n(2)
	}
	return li
}

// Len returns the row count.
func (li *LineItem) Len() int { return len(li.Quantity) }

// QuantityBAT returns the quantity column as a BAT.
func (li *LineItem) QuantityBAT() *bat.BAT { return bat.FromInts(li.Quantity) }

// ShipDateBAT returns the shipdate column as a BAT.
func (li *LineItem) ShipDateBAT() *bat.BAT { return bat.FromInts(li.ShipDate) }

// RangeQuery is one log entry: a range predicate over one column.
type RangeQuery struct {
	Col    int // column id
	Lo, Hi int64
}

// SkyserverLog generates a query log with the property the recycler
// exploits (§6.1, [19]): many queries share identical or overlapping range
// predicates over a small set of hot columns. repeatProb is the chance a
// query repeats a previously issued predicate exactly.
func SkyserverLog(n int, cols int, domain int64, repeatProb float64, seed int64) []RangeQuery {
	r := rand.New(rand.NewSource(seed))
	var log []RangeQuery
	for i := 0; i < n; i++ {
		if len(log) > 0 && r.Float64() < repeatProb {
			log = append(log, log[r.Intn(len(log))])
			continue
		}
		width := domain / 20
		lo := r.Int63n(domain - width)
		// Hot columns: zipf-ish choice biased to column 0.
		col := int(math.Floor(math.Pow(r.Float64(), 2) * float64(cols)))
		if col >= cols {
			col = cols - 1
		}
		log = append(log, RangeQuery{Col: col, Lo: lo, Hi: lo + width})
	}
	return log
}

// CrackQueries generates a sequence of range queries for the cracking
// experiment: random ranges of the given selectivity over [0, domain),
// optionally focused on a hot region (fraction of the domain).
func CrackQueries(n int, domain int64, selectivity float64, hotFrac float64, seed int64) []RangeQuery {
	r := rand.New(rand.NewSource(seed))
	width := int64(float64(domain) * selectivity)
	if width < 1 {
		width = 1
	}
	out := make([]RangeQuery, n)
	for i := range out {
		space := domain - width
		if hotFrac > 0 && hotFrac < 1 {
			space = int64(float64(domain)*hotFrac) - width
			if space < 1 {
				space = 1
			}
		}
		lo := r.Int63n(space)
		out[i] = RangeQuery{Lo: lo, Hi: lo + width}
	}
	return out
}
