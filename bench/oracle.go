package main

import (
	"fmt"
	"math"
	"sort"
)

// The oracle computes every expected result in plain Go from the generated
// columns. It never calls the engine.

// rowKey identifies a result row: up to two INT key columns or one TEXT one.
type rowKey struct {
	a, b int64
	s    string
}

// expected is the answer one statement must give.
//
// Unordered results are compared as multisets: every result has a unique key
// in its leading nk columns (group keys, or a row id), so "same multiset" is
// "same number of rows, every key found once, every cell equal".
//
// ORDER BY .. LIMIT results are compared by the exact sequence of sort-key
// values plus membership: rows that tie at the cut-off may legally differ, so
// each returned row only has to be a row the query could return.
type expected struct {
	nk     int
	total  int                          // rows the result must have
	rows   map[rowKey][]any             // the legal rows by key, or
	lookup func(k rowKey) ([]any, bool) // a function of the key when there are many
	ordCol int                          // column of the sort key
	order  []any                        // exact sort-key sequence; nil when unordered
}

const floatTol = 1e-9 // relative; morsel-parallel summation order varies

func cellEqual(got, want any) bool {
	switch w := want.(type) {
	case nil:
		return got == nil
	case int64:
		g, ok := got.(int64)
		return ok && g == w
	case float64:
		g, ok := got.(float64)
		if !ok {
			return false
		}
		return g == w || math.Abs(g-w) <= floatTol*math.Max(math.Abs(g), math.Abs(w))
	case string:
		g, ok := got.(string)
		return ok && g == w
	}
	return false
}

func keyOf(row []any, nk int) (rowKey, error) {
	var k rowKey
	for i := 0; i < nk; i++ {
		switch v := row[i].(type) {
		case int64:
			if i == 0 {
				k.a = v
			} else {
				k.b = v
			}
		case string:
			k.s = v
		default:
			return k, fmt.Errorf("key column %d is %T", i, row[i])
		}
	}
	return k, nil
}

// result is a drained result set: ncols cells per row, row-major.
type result struct {
	ncols int
	cells []any
}

func (r *result) nrows() int {
	if r.ncols == 0 {
		return 0
	}
	return len(r.cells) / r.ncols
}

func (r *result) row(i int) []any { return r.cells[i*r.ncols : (i+1)*r.ncols] }

// check reports the first difference between got and the expectation.
func (e *expected) check(got *result) error {
	if got.nrows() != e.total {
		return fmt.Errorf("got %d rows, want %d", got.nrows(), e.total)
	}
	var seen map[rowKey]struct{}
	if e.nk > 0 {
		seen = make(map[rowKey]struct{}, e.total)
	}
	for i := 0; i < e.total; i++ {
		row := got.row(i)
		k, err := keyOf(row, e.nk)
		if err != nil {
			return err
		}
		if seen != nil {
			if _, dup := seen[k]; dup {
				return fmt.Errorf("row %d: key %v returned twice", i, k)
			}
			seen[k] = struct{}{}
		}
		var want []any
		var ok bool
		if e.lookup != nil {
			want, ok = e.lookup(k)
		} else {
			want, ok = e.rows[k]
		}
		if !ok {
			return fmt.Errorf("row %d: key %v is not in the expected result", i, k)
		}
		if len(want) != len(row) {
			return fmt.Errorf("row %d: got %d columns, want %d", i, len(row), len(want))
		}
		for c := range want {
			if !cellEqual(row[c], want[c]) {
				return fmt.Errorf("row %d (key %v) column %d: got %v, want %v", i, k, c, row[c], want[c])
			}
		}
		if e.order != nil && !cellEqual(row[e.ordCol], e.order[i]) {
			return fmt.Errorf("row %d: sort key %v, want %v", i, row[e.ordCol], e.order[i])
		}
	}
	return nil
}

// perturb changes one expected cell, so that a run can prove the checks bite.
func (e *expected) perturb() {
	bump := func(row []any) {
		c := len(row) - 1
		switch v := row[c].(type) {
		case int64:
			row[c] = v + 1
		case float64:
			row[c] = v*(1+1e-6) + 1
		default:
			row[c] = int64(1)
		}
	}
	if e.lookup != nil {
		inner := e.lookup
		e.lookup = func(k rowKey) ([]any, bool) {
			row, ok := inner(k)
			if ok {
				bump(row)
			}
			return row, ok
		}
		return
	}
	for _, row := range e.rows {
		bump(row)
		return
	}
}

// one wraps a single-row, keyless answer (an ungrouped aggregate).
func one(cells ...any) *expected {
	return &expected{total: 1, rows: map[rowKey][]any{{}: cells}}
}

// sumF accumulates a nullable FLOAT aggregate: SQL sum and avg skip NULL and
// are NULL over no values.
type sumF struct {
	s float64
	n int64
}

func (a *sumF) add(v float64) { a.s += v; a.n++ }
func (a sumF) sum() any {
	if a.n == 0 {
		return nil
	}
	return a.s
}
func (a sumF) avg() any {
	if a.n == 0 {
		return nil
	}
	return a.s / float64(a.n)
}

func sumI(s, n int64) any {
	if n == 0 {
		return nil
	}
	return s
}

// --- olap_scan ---

const q6Qty = 24

// SELECT sum(price * disc), count(*) FROM fact WHERE day >= lo AND day < hi AND qty < q6Qty
func oracleQ6(f *table, lo, hi int64) *expected {
	day, qty, price, disc := f.col("day").ints, f.col("qty").ints, f.col("price").flts, f.col("disc")
	var rev sumF
	var cnt int64
	for i := 0; i < f.n; i++ {
		if day[i] >= lo && day[i] < hi && qty[i] < q6Qty {
			cnt++
			if !disc.null[i] {
				rev.add(price[i] * disc.flts[i])
			}
		}
	}
	return one(rev.sum(), cnt)
}

// SELECT d3, count(*), sum(qty), sum(price), avg(disc) FROM fact WHERE day < hi GROUP BY d3
func oracleQ1(f *table, hi int64) *expected {
	day, d3, qty, price, disc := f.col("day").ints, f.col("d3").ints, f.col("qty").ints, f.col("price").flts, f.col("disc")
	var cnt, sq [nDim3]int64
	var sp, sd [nDim3]sumF
	for i := 0; i < f.n; i++ {
		if day[i] < hi {
			g := d3[i]
			cnt[g]++
			sq[g] += qty[i]
			sp[g].add(price[i])
			if !disc.null[i] {
				sd[g].add(disc.flts[i])
			}
		}
	}
	e := &expected{nk: 1, rows: map[rowKey][]any{}}
	for g := range cnt {
		if cnt[g] > 0 {
			e.rows[rowKey{a: int64(g)}] = []any{int64(g), cnt[g], sq[g], sp[g].sum(), sd[g].avg()}
		}
	}
	e.total = len(e.rows)
	return e
}

// groupCountSum answers SELECT key, count(*), sum(val) .. WHERE keep GROUP BY
// key for a dense INT key domain.
func groupCountSum(n, dom int, key, val []int64, keep func(i int) bool) *expected {
	cnt, sum := make([]int64, dom), make([]int64, dom)
	for i := 0; i < n; i++ {
		if keep(i) {
			cnt[key[i]]++
			sum[key[i]] += val[i]
		}
	}
	e := &expected{nk: 1}
	for _, c := range cnt {
		if c > 0 {
			e.total++
		}
	}
	// 10 000 groups times every variant is too much to keep as rows.
	e.lookup = func(k rowKey) ([]any, bool) {
		if k.a < 0 || k.a >= int64(dom) || cnt[k.a] == 0 {
			return nil, false
		}
		return []any{k.a, cnt[k.a], sum[k.a]}, true
	}
	return e
}

// SELECT d2, count(*), sum(qty) FROM fact WHERE qty >= q GROUP BY d2
func oracleGroup10k(f *table, q int64) *expected {
	qty := f.col("qty").ints
	return groupCountSum(f.n, nDim2, f.col("d2").ints, qty, func(i int) bool { return qty[i] >= q })
}

const topN = 100

// SELECT id, price FROM fact WHERE d1 >= lo AND d1 < hi ORDER BY price DESC LIMIT topN
func oracleTopN(f *table, lo, hi int64) *expected {
	d1, price := f.col("d1").ints, f.col("price")
	// Prices are below 1000.00: count the qualifying rows per cent and read
	// the top from the high end.
	var perCent [100000]int32
	for i := 0; i < f.n; i++ {
		if d1[i] >= lo && d1[i] < hi {
			perCent[price.ints[i]]++
		}
	}
	var keys []float64
	for c := len(perCent) - 1; c >= 0 && len(keys) < topN; c-- {
		for k := perCent[c]; k > 0 && len(keys) < topN; k-- {
			keys = append(keys, centsToFloat(int64(c)))
		}
	}
	e := &expected{nk: 1, total: len(keys), ordCol: 1, order: make([]any, len(keys))}
	for i, k := range keys {
		e.order[i] = k
	}
	e.lookup = func(k rowKey) ([]any, bool) {
		if k.a < 0 || k.a >= int64(f.n) || d1[k.a] < lo || d1[k.a] >= hi {
			return nil, false
		}
		return []any{k.a, price.flts[k.a]}, true
	}
	return e
}

// SELECT flag, count(*), sum(qty) FROM fact_small WHERE qty >= q GROUP BY flag
func oracleTextGroup(fs *table, q int64) *expected {
	flag, qty := fs.col("flag").strs, fs.col("qty").ints
	type acc struct{ cnt, sum int64 }
	m := map[string]*acc{}
	for i := 0; i < fs.n; i++ {
		if qty[i] >= q {
			a := m[flag[i]]
			if a == nil {
				a = &acc{}
				m[flag[i]] = a
			}
			a.cnt++
			a.sum += qty[i]
		}
	}
	e := &expected{nk: 1, total: len(m), rows: map[rowKey][]any{}}
	for s, a := range m {
		e.rows[rowKey{s: s}] = []any{s, a.cnt, a.sum}
	}
	return e
}

// --- olap_join ---

// SELECT dim1.cat, count(*), sum(fact.qty) FROM fact JOIN dim1 .. JOIN dim3 ..
// WHERE dim3.band < band AND dim1.w1 < w GROUP BY dim1.cat
func oracleStar3(f, dim1, dim3 *table, band, w int64) *expected {
	d1, d3 := f.col("d1").ints, f.col("d3").ints
	cat, w1, bnd := dim1.col("cat").ints, dim1.col("w1").ints, dim3.col("band").ints
	key := make([]int64, f.n)
	for i := range key {
		key[i] = cat[d1[i]]
	}
	return groupCountSum(f.n, 20, key, f.col("qty").ints, func(i int) bool { return bnd[d3[i]] < band && w1[d1[i]] < w })
}

const starTop = 10

// SELECT dim2.reg, sum(fact.qty) AS s, count(*) FROM fact JOIN dim1 .. JOIN dim2 .. JOIN dim3 ..
// WHERE dim1.w1 < w AND dim3.band >= band GROUP BY dim2.reg ORDER BY s DESC LIMIT starTop
func oracleStar4Top(f, dim1, dim2, dim3 *table, w, band int64) *expected {
	d1, d2, d3, qty := f.col("d1").ints, f.col("d2").ints, f.col("d3").ints, f.col("qty").ints
	w1, reg, bnd := dim1.col("w1").ints, dim2.col("reg").ints, dim3.col("band").ints
	var cnt, sum [nRegion]int64
	for i := 0; i < f.n; i++ {
		if w1[d1[i]] < w && bnd[d3[i]] >= band {
			g := reg[d2[i]]
			cnt[g]++
			sum[g] += qty[i]
		}
	}
	e := &expected{nk: 1, ordCol: 1, rows: map[rowKey][]any{}}
	var sums []int64
	for g := range cnt {
		if cnt[g] > 0 {
			e.rows[rowKey{a: int64(g)}] = []any{int64(g), sum[g], cnt[g]}
			sums = append(sums, sum[g])
		}
	}
	sort.Slice(sums, func(i, j int) bool { return sums[i] > sums[j] })
	if len(sums) > starTop {
		sums = sums[:starTop]
	}
	e.total = len(sums)
	e.order = make([]any, len(sums))
	for i, s := range sums {
		e.order[i] = s
	}
	return e
}

// SELECT region.zone, count(*), sum(fact.price) FROM fact JOIN dim2 .. JOIN region ..
// WHERE region.zone < z AND fact.qty >= q GROUP BY region.zone
func oracleSnowChain(f, dim2, region *table, z, q int64) *expected {
	d2, qty, price := f.col("d2").ints, f.col("qty").ints, f.col("price").flts
	reg, zone := dim2.col("reg").ints, region.col("zone").ints
	var cnt [5]int64
	var sum [5]sumF
	for i := 0; i < f.n; i++ {
		if g := zone[reg[d2[i]]]; g < z && qty[i] >= q {
			cnt[g]++
			sum[g].add(price[i])
		}
	}
	e := &expected{nk: 1, rows: map[rowKey][]any{}}
	for g := range cnt {
		if cnt[g] > 0 {
			e.rows[rowKey{a: int64(g)}] = []any{int64(g), cnt[g], sum[g].sum()}
		}
	}
	e.total = len(e.rows)
	return e
}

// --- oocore ---

// SELECT id, d2, price FROM fact_small WHERE qty >= q ORDER BY d2
func oracleSortAll(fs *table, q int64) *expected {
	d2, qty, price := fs.col("d2").ints, fs.col("qty").ints, fs.col("price").flts
	var keys []int64
	for i := 0; i < fs.n; i++ {
		if qty[i] >= q {
			keys = append(keys, d2[i])
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	e := &expected{nk: 1, total: len(keys), ordCol: 1, order: make([]any, len(keys))}
	for i, k := range keys {
		e.order[i] = k
	}
	e.lookup = func(k rowKey) ([]any, bool) {
		if k.a < 0 || k.a >= int64(fs.n) || qty[k.a] < q {
			return nil, false
		}
		return []any{k.a, d2[k.a], price[k.a]}, true
	}
	return e
}

// SELECT d2, d1, count(*), sum(qty) FROM fact_small WHERE qty >= q GROUP BY d2, d1
func oracleGroupPairs(fs *table, q int64) *expected {
	d1, d2, qty := fs.col("d1").ints, fs.col("d2").ints, fs.col("qty").ints
	e := &expected{nk: 2, rows: map[rowKey][]any{}}
	for i := 0; i < fs.n; i++ {
		if qty[i] >= q {
			k := rowKey{a: d2[i], b: d1[i]}
			row := e.rows[k]
			if row == nil {
				row = []any{d2[i], d1[i], int64(0), int64(0)}
				e.rows[k] = row
			}
			row[2] = row[2].(int64) + 1
			row[3] = row[3].(int64) + qty[i]
		}
	}
	e.total = len(e.rows)
	return e
}

// SELECT fact_small.id, dim_big.v FROM fact_small JOIN dim_big ON bk = kb WHERE fact_small.qty >= q
func oracleJoinBig(fs, big *table, q int64) *expected {
	bk, qty, v := fs.col("bk").ints, fs.col("qty").ints, big.col("v").ints
	e := &expected{nk: 1}
	for i := 0; i < fs.n; i++ {
		if qty[i] >= q {
			e.total++
		}
	}
	e.lookup = func(k rowKey) ([]any, bool) {
		if k.a < 0 || k.a >= int64(fs.n) || qty[k.a] < q {
			return nil, false
		}
		return []any{k.a, v[bk[k.a]]}, true
	}
	return e
}

// --- adhoc_sql ---

// SELECT count(*), sum(b) FROM small WHERE k >= lo AND k < hi
func oracleAdhocRange(s *table, lo, hi int64) *expected {
	b := s.col("b").ints
	var cnt, sum int64
	for i := max(lo, 0); i < hi && i < int64(s.n); i++ {
		cnt++
		sum += b[i]
	}
	return one(cnt, sumI(sum, cnt))
}

// SELECT a, count(*) FROM small WHERE b < x GROUP BY a
func oracleAdhocGroup(s *table, x int64) *expected {
	a, b := s.col("a").ints, s.col("b").ints
	var cnt [64]int64
	for i := 0; i < s.n; i++ {
		if b[i] < x {
			cnt[a[i]]++
		}
	}
	e := &expected{nk: 1, rows: map[rowKey][]any{}}
	for g := range cnt {
		if cnt[g] > 0 {
			e.rows[rowKey{a: int64(g)}] = []any{int64(g), cnt[g]}
		}
	}
	e.total = len(e.rows)
	return e
}

const adhocTop = 5

// SELECT k, b FROM small WHERE a = av AND b >= x ORDER BY b DESC LIMIT adhocTop
func oracleAdhocTop(s *table, av, x int64) *expected {
	a, b := s.col("a").ints, s.col("b").ints
	var keys []int64
	for i := 0; i < s.n; i++ {
		if a[i] == av && b[i] >= x {
			keys = append(keys, b[i])
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] > keys[j] })
	if len(keys) > adhocTop {
		keys = keys[:adhocTop]
	}
	e := &expected{nk: 1, total: len(keys), ordCol: 1, order: make([]any, len(keys))}
	for i, k := range keys {
		e.order[i] = k
	}
	e.lookup = func(k rowKey) ([]any, bool) {
		if k.a < 0 || k.a >= int64(s.n) || a[k.a] != av || b[k.a] < x {
			return nil, false
		}
		return []any{k.a, b[k.a]}, true
	}
	return e
}

// SELECT sum(f * 2.5), count(*) FROM small WHERE b >= lo AND b < hi
func oracleAdhocExpr(s *table, lo, hi int64) *expected {
	b, f := s.col("b").ints, s.col("f").flts
	var sum sumF
	for i := 0; i < s.n; i++ {
		if b[i] >= lo && b[i] < hi {
			sum.add(f[i] * 2.5)
		}
	}
	return one(sum.sum(), sum.n)
}
