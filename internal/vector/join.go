package vector

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bat"
	"repro/internal/memgov"
	"repro/internal/radix"
)

// JoinBuild is the build side of a hash join: the build keys and the
// payload columns, and once Index has run, the key table over them.
// Indexed, it is read-only and safe to share across concurrent probe
// pipelines. The key table is the shared open-addressing core
// (radix.Table), one flat layout at every build size, with nil keys
// (bat.NilInt) never matching. A build too large for the query's memory
// is partitioned above it, by the physical layer's grace-hash re-plan.
type JoinBuild struct {
	table *radix.Table // nil until Index
	keys  []int64      // the build keys by row id, nils included

	// Payload storage (DSM): one column per payload column.
	cols  []Col
	nrows int

	res     *memgov.Reservation
	charged int64
}

// Rows returns the number of build rows.
func (jb *JoinBuild) Rows() int { return jb.nrows }

// ReleaseMem hands the build's reservation charge back. Grace-hash
// joins call it after each per-partition build is probed out; for the
// usual one-build-per-query case the charge simply dies with the
// query's reservation.
func (jb *JoinBuild) ReleaseMem() {
	if jb.charged != 0 {
		jb.res.Release(jb.charged)
		jb.charged = 0
	}
}

// BuildJoinTable drains op (opening and closing it) into an indexed
// JoinBuild: key column key, payload columns carried into join output.
// The last argument is ignored: payloads are always kept columnar (the
// paper's §5 NSM/DSM trade-off is reproduced on internal/layout by
// experiment E12); it stays so existing callers compile.
func BuildJoinTable(op Operator, key int, payload []int, _ bool) (*JoinBuild, error) {
	jb, err := BuildJoinTableGov(op, key, payload, nil)
	if err != nil {
		return nil, err
	}
	return jb, jb.Index()
}

// BuildJoinTableGov drains op like BuildJoinTable but builds no key
// table: it materializes the keys and the payload cells, charging them
// against res, and Index adds the table. A denied charge returns the
// query's memgov.ErrExceeded with the partial build's memory already
// handed back; the physical layer may answer by re-planning to a
// grace-hash join.
func BuildJoinTableGov(op Operator, key int, payload []int, res *memgov.Reservation) (*JoinBuild, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()

	jb := &JoinBuild{cols: make([]Col, len(payload)), res: res}
	var keys []int64
	for {
		b, err := op.Next()
		if err != nil {
			jb.ReleaseMem()
			return nil, err
		}
		if b == nil {
			break
		}
		if res != nil {
			// 8 bytes of key plus 8 per payload cell for every row.
			add := int64(b.Rows()) * int64(8+8*len(payload))
			if err := res.Acquire(add); err != nil {
				jb.ReleaseMem()
				return nil, err
			}
			jb.charged += add
		}
		if key >= len(b.Cols) || b.Cols[key].Kind != KindInt {
			jb.ReleaseMem()
			return nil, fmt.Errorf("vector: build key column %d out of range or not int", key)
		}
		// A column at a time: one gather over the batch's selection each.
		keys = appendAt(keys, b.Cols[key].Ints, b.Sel, b.N)
		for pi, pc := range payload {
			if pc >= len(b.Cols) {
				jb.ReleaseMem()
				return nil, fmt.Errorf("vector: build payload column %d out of range", pc)
			}
			c, col := &b.Cols[pc], &jb.cols[pi]
			col.Kind = c.Kind
			switch c.Kind {
			case KindInt:
				col.Ints = appendAt(col.Ints, c.Ints, b.Sel, b.N)
			case KindFloat:
				col.Floats = appendAt(col.Floats, c.Floats, b.Sel, b.N)
			default:
				jb.ReleaseMem()
				return nil, errors.New("vector: join payload must be int or float")
			}
		}
	}
	jb.nrows = len(keys)
	jb.keys = keys
	return jb, nil
}

// Index builds the key table over the build's keys, charging exactly
// radix.TableBytes to the build's reservation first. A denied charge
// hands back everything the build holds and returns the error.
func (jb *JoinBuild) Index() error {
	add := int64(radix.TableBytes(len(jb.keys)))
	if err := jb.res.Acquire(add); err != nil {
		jb.ReleaseMem()
		return err
	}
	jb.charged += add
	jb.table = radix.BuildTable(jb.keys)
	return nil
}

// bitmapSpanPerKey bounds the exact key filter: a build publishes a
// bitmap while its keys span at most this many values per key, i.e. at
// most 8 bytes of bitmap per key, the size of the key itself.
const bitmapSpanPerKey = 64

// KeyFilter returns the predicates over a probe leaf's key column col
// that drop rows no build key can match, whether they are an exact
// bitmap, the step's multiplier: the output rows one probe row that
// passes them yields, on average, and whether the bitmap found every
// non-nil build key distinct. Dense keys get one PredInBits
// over [min, max], its bytes charged to res; sparse keys, or a bitmap
// res denies, get the range [min, max] as PredGe and the nil-skipping
// PredLeNil. Neither lets a nil key through, and a build without keys
// passes nothing.
//
// A bitmap passes only rows that match, each meeting the build's
// fan-out, non-nil keys ÷ distinct non-nil keys (the bitmap's
// population). A range passes distinct ÷ (max − min + 1) of its rows,
// taking probe keys as spread evenly over it, so its multiplier is
// non-nil keys ÷ (max − min + 1): the distinct count cancels and is
// never taken, so a range never reports its keys unique. Nil keys
// match nothing, so they neither count, nor repeat, nor add output.
func (jb *JoinBuild) KeyFilter(col int, res *memgov.Reservation) (preds []Pred, bitmap bool, mult float64, unique bool) {
	lo, hi, n := int64(math.MaxInt64), bat.NilInt, uint64(0) // nil sorts below every key
	for _, k := range jb.keys {
		if k != bat.NilInt {
			lo, hi, n = min(lo, k), max(hi, k), n+1
		}
	}
	if n == 0 {
		return []Pred{{ColIdx: col, Op: PredInBits}}, true, 0, true
	}
	span := uint64(hi-lo) + 1
	if span <= bitmapSpanPerKey*n {
		words := (span + 63) / 64
		if res.Acquire(int64(8*words)) == nil {
			bits := make([]uint64, words)
			distinct := 0
			for _, k := range jb.keys {
				if k != bat.NilInt {
					d := uint64(k - lo)
					if bits[d>>6]&(1<<(d&63)) == 0 {
						bits[d>>6] |= 1 << (d & 63)
						distinct++
					}
				}
			}
			return []Pred{{ColIdx: col, Op: PredInBits, IntVal: lo, Bits: bits}}, true, float64(n) / float64(distinct), uint64(distinct) == n
		}
	}
	return []Pred{{ColIdx: col, Op: PredGe, IntVal: lo}, {ColIdx: col, Op: PredLeNil, IntVal: hi}}, false, float64(n) / float64(span), false
}

// HashJoinOp is a vectorized equi-join on int64 keys: probe batches
// stream through a pre-built, read-only build side, emitting joined
// batches of the kept probe columns ++ build payload columns. Sharing
// the build is how morsel-parallel probe pipelines use one table (see
// parallel.go). The output columns are the operator's own buffers,
// refilled by every Next: a batch is valid until the next call.
type HashJoinOp struct {
	Probe    Operator
	ProbeKey int        // key column index in probe batches
	Shared   *JoinBuild // the build side, indexed (JoinBuild.Index)
	// Keep lists the probe columns carried into the output, in order;
	// nil carries every one. A column nothing downstream reads is never
	// copied.
	Keep []int

	probeRows, buildRows []int32 // the current batch's matches, pairwise
	cols                 []Col
	out                  Batch
}

// Open implements Operator.
func (j *HashJoinOp) Open() error { return j.Probe.Open() }

// Next implements Operator: pulls probe batches until one produces
// output. It first lists the batch's matches as (probe row, build row)
// pairs, then gathers each output column from them in one pass.
func (j *HashJoinOp) Next() (*Batch, error) {
	jb := j.Shared
	for {
		b, err := j.Probe.Next()
		if err != nil || b == nil {
			return nil, err
		}
		keys := b.Cols[j.ProbeKey].Ints
		// The match lists hold one pair per candidate when build keys are
		// unique: size them for that, write by index, and grow only for a
		// batch whose duplicates overflow them.
		if n := b.Rows(); len(j.probeRows) < n {
			j.probeRows, j.buildRows = make([]int32, n), make([]int32, n)
		}
		// Walk each key's chain inline: no closure call per candidate in
		// the hottest probe loop. Over unique keys a chain is one row, so
		// that loop neither walks nor grows.
		m, ht := 0, jb.table
		pr, br := j.probeRows, j.buildRows
		if ht.Unique() {
			for k, n := 0, b.Rows(); k < n; k++ {
				i := int32(k)
				if b.Sel != nil {
					i = b.Sel[k]
				}
				if bid := ht.First(keys[i]); bid >= 0 {
					pr[m], br[m] = i, bid
					m++
				}
			}
		} else {
			for k, n := 0, b.Rows(); k < n; k++ {
				i := int32(k)
				if b.Sel != nil {
					i = b.Sel[k]
				}
				for bid := ht.First(keys[i]); bid >= 0; bid = ht.Next(bid) {
					if m == len(pr) {
						pr, br = j.grow()
					}
					pr[m], br[m] = i, bid
					m++
				}
			}
		}
		pr, br = pr[:m], br[:m]
		if m == 0 {
			continue
		}
		np := len(b.Cols)
		if j.Keep != nil {
			np = len(j.Keep)
		}
		if len(j.cols) != np+len(jb.cols) {
			j.cols = make([]Col, np+len(jb.cols))
		}
		for c := 0; c < np; c++ {
			src := c
			if j.Keep != nil {
				src = j.Keep[c]
			}
			gather(&j.cols[c], &b.Cols[src], pr)
		}
		for c := range jb.cols {
			gather(&j.cols[np+c], &jb.cols[c], br)
		}
		j.out = Batch{N: len(pr), Cols: j.cols}
		return &j.out, nil
	}
}

// grow doubles the match lists, keeping the pairs already written.
func (j *HashJoinOp) grow() (pr, br []int32) {
	j.probeRows = append(j.probeRows, make([]int32, len(j.probeRows)+1)...)
	j.buildRows = append(j.buildRows, make([]int32, len(j.buildRows)+1)...)
	return j.probeRows, j.buildRows
}

// Close implements Operator.
func (j *HashJoinOp) Close() error { return j.Probe.Close() }

// gather overwrites dst with src's cells at rows, reusing dst's storage.
func gather(dst, src *Col, rows []int32) {
	dst.Kind = src.Kind
	switch src.Kind {
	case KindInt:
		dst.Ints = appendAt(dst.Ints[:0], src.Ints, rows, 0)
	case KindFloat:
		dst.Floats = appendAt(dst.Floats[:0], src.Floats, rows, 0)
	case KindBool:
		dst.Bools = appendAt(dst.Bools[:0], src.Bools, rows, 0)
	}
}

// appendAt appends src's cells at rows to dst, or its first n cells
// when rows is nil, growing dst once and writing by index.
func appendAt[T any](dst, src []T, rows []int32, n int) []T {
	if rows == nil {
		return append(dst, src[:n]...)
	}
	m := len(dst)
	if cap(dst) < m+len(rows) {
		dst = append(make([]T, 0, max(2*cap(dst), m+len(rows))), dst...)
	}
	dst = dst[:m+len(rows)]
	out := dst[m:]
	for k, i := range rows {
		out[k] = src[i]
	}
	return dst
}
