package vector

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/memgov"
	"repro/internal/radix"
)

// JoinBuild is a fully-built, read-only build side of a hash join: the
// key table plus the payload columns, safe to share across concurrent
// probe pipelines (it is never mutated after BuildJoinTable returns).
// The key table is the shared open-addressing core (radix.JoinTable):
// flat for small builds, radix-partitioned past radix.PartitionRows rows so
// each probe stays inside one cache-sized cluster (§4.2), and nil keys
// (bat.NilInt) never matching.
type JoinBuild struct {
	table *radix.JoinTable

	// DSM payload storage: one slice per payload column.
	cols  []Col
	kinds []Kind
	// NSM payload storage: rows[i*np .. i*np+np) holds row i (int64
	// cells; float bits stored via the column kind).
	rows      []int64
	np        int
	rowLayout bool
	nrows     int

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

// joinTableBytesPerRow approximates radix.NewJoinTable's per-row
// footprint (slot array at load <= ½ plus the next-chain), charged
// BEFORE the table is built.
const joinTableBytesPerRow = 48

// BuildJoinTable drains op (opening and closing it) into a JoinBuild:
// key column key, payload columns carried into join output, laid out
// row-wise when rowLayout is set.
func BuildJoinTable(op Operator, key int, payload []int, rowLayout bool) (*JoinBuild, error) {
	return BuildJoinTableGov(op, key, payload, rowLayout, nil)
}

// BuildJoinTableGov is BuildJoinTable charging the materialized build
// side (keys, payload cells, then the hash table itself) against res.
// A denied charge returns the query's memgov.ErrExceeded with the
// partial build's memory already handed back; the physical layer may
// answer by re-planning to a grace-hash join.
func BuildJoinTableGov(op Operator, key int, payload []int, rowLayout bool, res *memgov.Reservation) (*JoinBuild, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()

	jb := &JoinBuild{
		cols:      make([]Col, len(payload)),
		kinds:     make([]Kind, len(payload)),
		np:        len(payload),
		rowLayout: rowLayout,
		res:       res,
	}
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
		if key >= len(b.Cols) {
			return nil, fmt.Errorf("vector: build key column %d out of range", key)
		}
		kcol := b.Cols[key].Ints
		var innerErr error
		b.ForEach(func(i int32) {
			if innerErr != nil {
				return
			}
			keys = append(keys, kcol[i])
			for pi, pc := range payload {
				if pc >= len(b.Cols) {
					innerErr = fmt.Errorf("vector: build payload column %d out of range", pc)
					return
				}
				c := &b.Cols[pc]
				jb.kinds[pi] = c.Kind
				var cell int64
				switch c.Kind {
				case KindInt:
					cell = c.Ints[i]
				case KindFloat:
					cell = int64(floatBits(c.Floats[i]))
				default:
					innerErr = errors.New("vector: join payload must be int or float")
					return
				}
				if rowLayout {
					jb.rows = append(jb.rows, cell)
				} else {
					col := &jb.cols[pi]
					col.Kind = c.Kind
					switch c.Kind {
					case KindInt:
						col.Ints = append(col.Ints, cell)
					case KindFloat:
						col.Floats = append(col.Floats, c.Floats[i])
					}
				}
			}
		})
		if innerErr != nil {
			jb.ReleaseMem()
			return nil, innerErr
		}
	}
	if res != nil {
		add := int64(len(keys)) * joinTableBytesPerRow
		if err := res.Acquire(add); err != nil {
			jb.ReleaseMem()
			return nil, err
		}
		jb.charged += add
	}
	jb.nrows = len(keys)
	jb.table = radix.NewJoinTable(keys)
	return jb, nil
}

// ForEach calls f with each build row id matching key.
func (jb *JoinBuild) ForEach(key int64, f func(row int32)) {
	jb.table.ForEach(key, f)
}

// HashJoinOp is a vectorized equi-join on int64 keys: the build child is
// drained into a JoinBuild, then probe batches stream through, emitting
// joined batches of probe payload columns ++ build payload columns.
//
// The build-side payload can be kept in two in-execution layouts (paper §5,
// [46]): columnar (DSM — one array per column, so fetching a match touches
// one cache line *per column*) or row-wise re-grouped (NSM — matched
// payloads contiguous, one line per match). The layout choice is exactly
// the "tuple-layout planning" the paper proposes as a new query-optimizer
// task; benchmark BenchmarkJoinLayout measures the tradeoff.
type HashJoinOp struct {
	Build, Probe Operator
	BuildKey     int // key column index in build batches
	ProbeKey     int // key column index in probe batches
	// BuildPayload lists build columns to carry into the output.
	BuildPayload []int
	// RowLayout re-groups build payloads row-wise (NSM) instead of
	// keeping them columnar (DSM).
	RowLayout bool
	// Shared, when set, is a pre-built build side (from BuildJoinTable);
	// Build is then ignored. This is how morsel-parallel probe pipelines
	// share one read-only table (see parallel.go).
	Shared *JoinBuild

	jb  *JoinBuild
	out Batch
}

// Open implements Operator: drains the build side into the hash table
// (unless a Shared build was injected).
func (j *HashJoinOp) Open() error {
	if err := j.Probe.Open(); err != nil {
		return err
	}
	if j.Shared != nil {
		j.jb = j.Shared
		return nil
	}
	jb, err := BuildJoinTable(j.Build, j.BuildKey, j.BuildPayload, j.RowLayout)
	if err != nil {
		return err
	}
	j.jb = jb
	return nil
}

// Next implements Operator: pulls probe batches until one produces output.
func (j *HashJoinOp) Next() (*Batch, error) {
	jb := j.jb
	np := jb.np
	for {
		b, err := j.Probe.Next()
		if err != nil || b == nil {
			return nil, err
		}
		keys := b.Cols[j.ProbeKey].Ints
		// Output: probe columns gathered per match + build payloads.
		outCols := make([]Col, len(b.Cols)+np)
		for c := range b.Cols {
			outCols[c].Kind = b.Cols[c].Kind
		}
		for pi := range outCols[len(b.Cols):] {
			outCols[len(b.Cols)+pi].Kind = jb.kinds[pi]
		}
		n := 0
		emit := func(i, bid int32) {
			for c := range b.Cols {
				appendCell(&outCols[c], &b.Cols[c], i)
			}
			for pi := 0; pi < np; pi++ {
				oc := &outCols[len(b.Cols)+pi]
				if jb.rowLayout {
					cell := jb.rows[int(bid)*np+pi]
					switch jb.kinds[pi] {
					case KindInt:
						oc.Ints = append(oc.Ints, cell)
					case KindFloat:
						oc.Floats = append(oc.Floats, floatFromBits(uint64(cell)))
					}
				} else {
					switch jb.kinds[pi] {
					case KindInt:
						oc.Ints = append(oc.Ints, jb.cols[pi].Ints[bid])
					case KindFloat:
						oc.Floats = append(oc.Floats, jb.cols[pi].Floats[bid])
					}
				}
			}
			n++
		}
		if ht := jb.table.Flat(); ht != nil {
			// Flat build: iterate First/Next inline instead of paying a
			// nested closure call per match in the hottest probe loop.
			b.ForEach(func(i int32) {
				for bid := ht.First(keys[i]); bid >= 0; bid = ht.Next(bid) {
					emit(i, bid)
				}
			})
		} else {
			b.ForEach(func(i int32) {
				jb.table.ForEach(keys[i], func(bid int32) { emit(i, bid) })
			})
		}
		if n == 0 {
			continue
		}
		j.out = Batch{N: n, Cols: outCols}
		return &j.out, nil
	}
}

// Close implements Operator. The build child is not closed here:
// BuildJoinTable already closed it when Open drained it.
func (j *HashJoinOp) Close() error {
	return j.Probe.Close()
}

func appendCell(dst *Col, src *Col, i int32) {
	switch src.Kind {
	case KindInt:
		dst.Ints = append(dst.Ints, src.Ints[i])
	case KindFloat:
		dst.Floats = append(dst.Floats, src.Floats[i])
	case KindBool:
		dst.Bools = append(dst.Bools, src.Bools[i])
	}
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
