package sqlfe

import "repro/internal/bat"

// ZoneRows is the zone length: a zone map summarizes a column in
// fixed runs of this many rows (the last one may be shorter).
const ZoneRows = 1024

const (
	zoneHasNil uint8 = 1 << iota // at least one stored nil
	zoneAllNil                   // nothing but nils: min/max are meaningless
)

// ZoneMap is the data-skipping summary of one INT or FLOAT column: per
// zone, the minimum and maximum over the non-nil values and whether the
// zone holds some / only nils. It is built in one pass where the column
// is born (Load, vacuum), is immutable and shared by snapshots, lives
// and dies with its Table, and is never persisted. Rows appended later
// lie past Table.ZonedRows, where no zone speaks for them.
type ZoneMap struct {
	imin, imax []int64   // INT column
	fmin, fmax []float64 // FLOAT column
	flags      []uint8
	// lo and hi bound every zone of an INT column (ok: some zone holds a
	// non-nil value).
	lo, hi int64
	ok     bool
}

// buildZoneMap summarizes a column; nil for TEXT.
func buildZoneMap(b *bat.BAT) *ZoneMap {
	z := &ZoneMap{}
	switch b.TailType() {
	case bat.TypeInt:
		z.imin, z.imax, z.flags = zoneStats(b.Ints(), func(v int64) bool { return v == bat.NilInt })
		for i, f := range z.flags {
			if f&zoneAllNil == 0 {
				if !z.ok {
					z.lo, z.hi, z.ok = z.imin[i], z.imax[i], true
				}
				z.lo, z.hi = min(z.lo, z.imin[i]), max(z.hi, z.imax[i])
			}
		}
	case bat.TypeFloat:
		z.fmin, z.fmax, z.flags = zoneStats(b.Floats(), bat.IsNilFloat)
	default:
		return nil
	}
	return z
}

func zoneStats[T int64 | float64](vals []T, isNil func(T) bool) (lo, hi []T, flags []uint8) {
	nz := (len(vals) + ZoneRows - 1) / ZoneRows
	lo, hi, flags = make([]T, nz), make([]T, nz), make([]uint8, nz)
	for z := range flags {
		zone := vals[z*ZoneRows : min((z+1)*ZoneRows, len(vals))]
		seen := false
		for _, v := range zone {
			switch {
			case isNil(v):
				flags[z] |= zoneHasNil
			case !seen:
				lo[z], hi[z], seen = v, v, true
			case v < lo[z]:
				lo[z] = v
			case v > hi[z]:
				hi[z] = v
			}
		}
		if !seen {
			flags[z] |= zoneAllNil
		}
	}
	return lo, hi, flags
}

// Zones is the number of zones.
func (z *ZoneMap) Zones() int { return len(z.flags) }

// IntBounds returns the smallest and largest non-nil value of an INT
// column's zoned rows; ok is false for a FLOAT column, or when those
// rows hold nothing but nils.
func (z *ZoneMap) IntBounds() (lo, hi int64, ok bool) { return z.lo, z.hi, z.ok }

// Prune clears keep[i] for every zone i that provably holds no row
// satisfying `column op value` (op as in Pred.Op; an INT column compares
// against iv, a FLOAT column against fv; the nil tests ignore both). A
// stored nil satisfies no comparison, so an all-nil zone survives IS
// NULL only. A nil-sentinel constant prunes nothing: the scan's own
// primitives define what it matches.
func (z *ZoneMap) Prune(keep []bool, op string, iv int64, fv float64) {
	nilTest := op == "isnull" || op == "isnotnull"
	if z.imin != nil {
		if nilTest || iv != bat.NilInt {
			pruneZones(keep, z.imin, z.imax, z.flags, op, iv)
		}
	} else if nilTest || !bat.IsNilFloat(fv) {
		pruneZones(keep, z.fmin, z.fmax, z.flags, op, fv)
	}
}

func pruneZones[T int64 | float64](keep []bool, lo, hi []T, flags []uint8, op string, v T) {
	for z, f := range flags {
		if !keep[z] {
			continue
		}
		allNil := f&zoneAllNil != 0
		switch op {
		case "isnull":
			keep[z] = f&zoneHasNil != 0
		case "isnotnull":
			keep[z] = !allNil
		case "=":
			keep[z] = !allNil && lo[z] <= v && v <= hi[z]
		case "<>":
			keep[z] = !allNil && !(lo[z] == v && hi[z] == v)
		case "<":
			keep[z] = !allNil && lo[z] < v
		case "<=":
			keep[z] = !allNil && lo[z] <= v
		case ">":
			keep[z] = !allNil && hi[z] > v
		case ">=":
			keep[z] = !allNil && hi[z] >= v
		}
	}
}
