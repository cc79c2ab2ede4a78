package batalg

import (
	"repro/internal/bat"
	"repro/internal/radix"
)

// Join computes the natural equi-join of two int-tailed BATs on their tail
// values. It returns two aligned candidate BATs (left head OIDs, right head
// OIDs) — the join index of §4.3. The implementation picks merge join when
// both inputs are sorted, otherwise a hash join on the smaller input
// through the shared open-addressing core (radix.Table), which
// auto-partitions builds past radix.PartitionRows rows.
//
// Nil tail values (bat.NilInt) never match on either side, in any path —
// the SQL NULL rule, enforced once inside radix.Table.
func Join(l, r *bat.BAT) (lo, ro *bat.BAT) {
	if l.Props().Sorted && r.Props().Sorted {
		return mergeJoin(l, r)
	}
	if l.Len() <= r.Len() {
		a, b := hashJoin(l, r)
		return a, b
	}
	b, a := hashJoin(r, l)
	return a, b
}

// mergeJoin joins two sorted int BATs positionally. Nil values sort to
// the front (bat.NilInt is the smallest int64) and are skipped: nil
// never equals nil.
func mergeJoin(l, r *bat.BAT) (*bat.BAT, *bat.BAT) {
	lt, rt := l.Ints(), r.Ints()
	lh, rh := l.HSeq(), r.HSeq()
	var lout, rout []bat.OID
	i, j := 0, 0
	for i < len(lt) && lt[i] == bat.NilInt {
		i++
	}
	for j < len(rt) && rt[j] == bat.NilInt {
		j++
	}
	for i < len(lt) && j < len(rt) {
		switch {
		case lt[i] < rt[j]:
			i++
		case lt[i] > rt[j]:
			j++
		default:
			v := lt[i]
			// Emit the cross product of the equal runs.
			jStart := j
			for i < len(lt) && lt[i] == v {
				for j = jStart; j < len(rt) && rt[j] == v; j++ {
					lout = append(lout, lh+bat.OID(i))
					rout = append(rout, rh+bat.OID(j))
				}
				i++
			}
		}
	}
	return bat.FromOIDs(lout), bat.FromOIDs(rout)
}

// hashJoin builds the shared open-addressing table (radix.Table) on build
// (the smaller side) and probes with probe. Small builds stay flat and
// cache-resident; past radix.PartitionRows rows the build is
// radix-partitioned (§4.2) so each probe touches one cache-sized cluster.
func hashJoin(build, probe *bat.BAT) (*bat.BAT, *bat.BAT) {
	bt, pt := build.Ints(), probe.Ints()
	bh, ph := build.HSeq(), probe.HSeq()
	jt := radix.NewJoinTable(bt)
	var bout, pout []bat.OID
	if ht := jt.Flat(); ht != nil {
		// Flat build: probe First/Next inline, no per-match closure.
		for j, v := range pt {
			for e := ht.First(v); e >= 0; e = ht.Next(e) {
				bout = append(bout, bh+bat.OID(e))
				pout = append(pout, ph+bat.OID(j))
			}
		}
	} else {
		for j, v := range pt {
			jt.ForEach(v, func(i int32) {
				bout = append(bout, bh+bat.OID(i))
				pout = append(pout, ph+bat.OID(j))
			})
		}
	}
	return bat.FromOIDs(bout), bat.FromOIDs(pout)
}

// JoinStr equi-joins two string-tailed BATs through an open-addressing
// string table (radix.StrTable) built on the right side — the same
// slot-array-plus-chain layout the int64 joins use, probed with a
// cached hash compare before any string compare. Strings are rare in
// inner loops (MonetDB routes them through hash heaps), but the index
// still must not be a Go map: hotpathmap bans maps from this package.
func JoinStr(l, r *bat.BAT) (*bat.BAT, *bat.BAT) {
	keys := make([]string, r.Len())
	for j := range keys {
		keys[j] = r.StrAt(j)
	}
	st := radix.BuildStrTable(keys)
	var lout, rout []bat.OID
	for i := 0; i < l.Len(); i++ {
		k := l.StrAt(i)
		if bat.IsNilStr(k) {
			continue // NULL never equals NULL: nil keys produce no matches
		}
		for j := st.First(k); j >= 0; j = st.Next(j) {
			lout = append(lout, l.HSeq()+bat.OID(i))
			rout = append(rout, r.HSeq()+bat.OID(j))
		}
	}
	return bat.FromOIDs(lout), bat.FromOIDs(rout)
}
