package vector

// Vectorized primitives: each is one tight loop over a vector, optionally
// driven by a selection vector. These are the X100 equivalents of the BAT
// algebra's bulk operators; all per-tuple interpretation decisions are
// hoisted out of these loops.

import (
	"math"

	"repro/internal/bat"
)

// SelGeInt appends to out the indexes i (drawn from sel, or 0..n-1) with
// col[i] >= v, returning the filled slice.
func SelGeInt(col []int64, sel []int32, v int64, out []int32) []int32 {
	if sel == nil {
		for i, x := range col {
			if x >= v {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if col[i] >= v {
			out = append(out, i)
		}
	}
	return out
}

// SelLtInt appends indexes with col[i] < v.
func SelLtInt(col []int64, sel []int32, v int64, out []int32) []int32 {
	if sel == nil {
		for i, x := range col {
			if x < v {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if col[i] < v {
			out = append(out, i)
		}
	}
	return out
}

// SelEqInt appends indexes with col[i] == v.
func SelEqInt(col []int64, sel []int32, v int64, out []int32) []int32 {
	if sel == nil {
		for i, x := range col {
			if x == v {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if col[i] == v {
			out = append(out, i)
		}
	}
	return out
}

// SelLeFloat appends indexes with col[i] <= v.
func SelLeFloat(col []float64, sel []int32, v float64, out []int32) []int32 {
	if sel == nil {
		for i, x := range col {
			if x <= v {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if col[i] <= v {
			out = append(out, i)
		}
	}
	return out
}

// SelGeFloat appends indexes with col[i] >= v.
func SelGeFloat(col []float64, sel []int32, v float64, out []int32) []int32 {
	if sel == nil {
		for i, x := range col {
			if x >= v {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if col[i] >= v {
			out = append(out, i)
		}
	}
	return out
}

// SelLeInt appends indexes with col[i] <= v.
func SelLeInt(col []int64, sel []int32, v int64, out []int32) []int32 {
	if sel == nil {
		for i, x := range col {
			if x <= v {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if col[i] <= v {
			out = append(out, i)
		}
	}
	return out
}

// SelGtInt appends indexes with col[i] > v.
func SelGtInt(col []int64, sel []int32, v int64, out []int32) []int32 {
	if sel == nil {
		for i, x := range col {
			if x > v {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if col[i] > v {
			out = append(out, i)
		}
	}
	return out
}

// SelNeInt appends indexes with col[i] != v.
func SelNeInt(col []int64, sel []int32, v int64, out []int32) []int32 {
	if sel == nil {
		for i, x := range col {
			if x != v {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if col[i] != v {
			out = append(out, i)
		}
	}
	return out
}

// SelLtFloat appends indexes with col[i] < v.
func SelLtFloat(col []float64, sel []int32, v float64, out []int32) []int32 {
	if sel == nil {
		for i, x := range col {
			if x < v {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if col[i] < v {
			out = append(out, i)
		}
	}
	return out
}

// SelGtFloat appends indexes with col[i] > v.
func SelGtFloat(col []float64, sel []int32, v float64, out []int32) []int32 {
	if sel == nil {
		for i, x := range col {
			if x > v {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if col[i] > v {
			out = append(out, i)
		}
	}
	return out
}

// SelEqFloat appends indexes with col[i] == v (never NaN, the float nil).
func SelEqFloat(col []float64, sel []int32, v float64, out []int32) []int32 {
	if sel == nil {
		for i, x := range col {
			if x == v {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if col[i] == v {
			out = append(out, i)
		}
	}
	return out
}

// SelNeFloat appends indexes with col[i] != v, excluding NaN (the float
// nil: NULL <> v is unknown, not true).
func SelNeFloat(col []float64, sel []int32, v float64, out []int32) []int32 {
	if sel == nil {
		for i, x := range col {
			if x != v && !bat.IsNilFloat(x) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		x := col[i]
		if x != v && !bat.IsNilFloat(x) {
			out = append(out, i)
		}
	}
	return out
}

// --- nil-aware selections ---
//
// bat.NilInt is the domain MINIMUM, so the plain <, <=, <> loops would
// let stored NULLs qualify. These variants skip the sentinel first; the
// remaining int comparisons (=, >, >=) and all float comparisons are
// already nil-correct (NilInt can only satisfy them when compared
// against the sentinel value itself, mirroring the BAT algebra's
// ThetaSelect; NaN, the float nil, fails every float comparison). The
// physical plan picks the nil-aware variant exactly when the column's
// NoNil property is unset — the same property-driven dispatch §3.1
// describes — so nil-free columns keep the tight three-instruction loop.

// SelLtIntNil appends indexes with col[i] < v, skipping nils.
func SelLtIntNil(col []int64, sel []int32, v int64, out []int32) []int32 {
	if sel == nil {
		for i, x := range col {
			if x < v && x != bat.NilInt {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if x := col[i]; x < v && x != bat.NilInt {
			out = append(out, i)
		}
	}
	return out
}

// SelLeIntNil appends indexes with col[i] <= v, skipping nils.
func SelLeIntNil(col []int64, sel []int32, v int64, out []int32) []int32 {
	if sel == nil {
		for i, x := range col {
			if x <= v && x != bat.NilInt {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if x := col[i]; x <= v && x != bat.NilInt {
			out = append(out, i)
		}
	}
	return out
}

// SelNeIntNil appends indexes with col[i] != v, skipping nils (NULL <> v
// is unknown, not true).
func SelNeIntNil(col []int64, sel []int32, v int64, out []int32) []int32 {
	if sel == nil {
		for i, x := range col {
			if x != v && x != bat.NilInt {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if x := col[i]; x != v && x != bat.NilInt {
			out = append(out, i)
		}
	}
	return out
}

// SelNilInt appends indexes whose int value IS the nil sentinel.
func SelNilInt(col []int64, sel []int32, out []int32) []int32 {
	if sel == nil {
		for i, x := range col {
			if x == bat.NilInt {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if col[i] == bat.NilInt {
			out = append(out, i)
		}
	}
	return out
}

// SelNotNilInt appends indexes whose int value is NOT nil.
func SelNotNilInt(col []int64, sel []int32, out []int32) []int32 {
	if sel == nil {
		for i, x := range col {
			if x != bat.NilInt {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if col[i] != bat.NilInt {
			out = append(out, i)
		}
	}
	return out
}

// SelNilFloat appends indexes whose float value is NaN (the float nil).
func SelNilFloat(col []float64, sel []int32, out []int32) []int32 {
	if sel == nil {
		for i, x := range col {
			if bat.IsNilFloat(x) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if x := col[i]; bat.IsNilFloat(x) {
			out = append(out, i)
		}
	}
	return out
}

// SelNotNilFloat appends indexes whose float value is not NaN.
func SelNotNilFloat(col []float64, sel []int32, out []int32) []int32 {
	if sel == nil {
		for i, x := range col {
			if !bat.IsNilFloat(x) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if x := col[i]; !bat.IsNilFloat(x) {
			out = append(out, i)
		}
	}
	return out
}

// MapAddInt computes out[i] = a[i] + b[i] for qualifying i.
func MapAddInt(a, b []int64, sel []int32, out []int64) {
	if sel == nil {
		for i := range a {
			out[i] = a[i] + b[i]
		}
		return
	}
	for _, i := range sel {
		out[i] = a[i] + b[i]
	}
}

// MapMulInt computes out[i] = a[i] * b[i].
func MapMulInt(a, b []int64, sel []int32, out []int64) {
	if sel == nil {
		for i := range a {
			out[i] = a[i] * b[i]
		}
		return
	}
	for _, i := range sel {
		out[i] = a[i] * b[i]
	}
}

// MapAddIntConst computes out[i] = a[i] + v.
func MapAddIntConst(a []int64, v int64, sel []int32, out []int64) {
	if sel == nil {
		for i := range a {
			out[i] = a[i] + v
		}
		return
	}
	for _, i := range sel {
		out[i] = a[i] + v
	}
}

// MapMulFloat computes out[i] = a[i] * b[i].
func MapMulFloat(a, b []float64, sel []int32, out []float64) {
	if sel == nil {
		for i := range a {
			out[i] = a[i] * b[i]
		}
		return
	}
	for _, i := range sel {
		out[i] = a[i] * b[i]
	}
}

// MapSubConstFloat computes out[i] = v - a[i].
func MapSubConstFloat(v float64, a []float64, sel []int32, out []float64) {
	if sel == nil {
		for i := range a {
			out[i] = v - a[i]
		}
		return
	}
	for _, i := range sel {
		out[i] = v - a[i]
	}
}

// MapAddFloat computes out[i] = a[i] + b[i].
func MapAddFloat(a, b []float64, sel []int32, out []float64) {
	if sel == nil {
		for i := range a {
			out[i] = a[i] + b[i]
		}
		return
	}
	for _, i := range sel {
		out[i] = a[i] + b[i]
	}
}

// SumIntPerGroup folds col values into accs[gids[i]] for qualifying rows,
// growing accs to ngroups first. It returns accs.
func SumIntPerGroup(col []int64, sel []int32, gids []int32, accs []int64, ngroups int32) []int64 {
	for int32(len(accs)) < ngroups {
		accs = append(accs, 0)
	}
	if sel == nil {
		for i := range col {
			accs[gids[i]] += col[i]
		}
		return accs
	}
	for _, i := range sel {
		accs[gids[i]] += col[i]
	}
	return accs
}

// SumFloatPerGroup folds float col values per group.
func SumFloatPerGroup(col []float64, sel []int32, gids []int32, accs []float64, ngroups int32) []float64 {
	for int32(len(accs)) < ngroups {
		accs = append(accs, 0)
	}
	if sel == nil {
		for i := range col {
			accs[gids[i]] += col[i]
		}
		return accs
	}
	for _, i := range sel {
		accs[gids[i]] += col[i]
	}
	return accs
}

// CountPerGroup increments counts[gids[i]] for qualifying rows.
func CountPerGroup(sel []int32, n int, gids []int32, counts []int64, ngroups int32) []int64 {
	for int32(len(counts)) < ngroups {
		counts = append(counts, 0)
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			counts[gids[i]]++
		}
		return counts
	}
	for _, i := range sel {
		counts[gids[i]]++
	}
	return counts
}

// --- nil-aware per-group folds ---
//
// The nil sentinels are bat.NilInt for int vectors and NaN for float
// vectors (matching the BAT layer). Sums and counts SKIP nils; min/max
// accumulators START at the sentinel, so a group nothing contributed to
// reads back as nil — exactly SQL's all-NULL-group semantics, and the
// property that makes per-worker partials mergeable: a worker's nil
// partial is skipped by the merge fold like any other nil input.

// growInts pads accs to n entries initialized to init.
func growInts(accs []int64, n int32, init int64) []int64 {
	for int32(len(accs)) < n {
		accs = append(accs, init)
	}
	return accs
}

// growFloats pads accs to n entries initialized to init.
func growFloats(accs []float64, n int32, init float64) []float64 {
	for int32(len(accs)) < n {
		accs = append(accs, init)
	}
	return accs
}

// SumIntNilPerGroup folds col into accs[gids[i]], skipping nil values.
func SumIntNilPerGroup(col []int64, sel []int32, gids []int32, accs []int64, ngroups int32) []int64 {
	accs = growInts(accs, ngroups, 0)
	if sel == nil {
		for i, v := range col {
			if v != bat.NilInt {
				accs[gids[i]] += v
			}
		}
		return accs
	}
	for _, i := range sel {
		if v := col[i]; v != bat.NilInt {
			accs[gids[i]] += v
		}
	}
	return accs
}

// SumFloatNilPerGroup folds col per group, skipping NaN (the float nil).
func SumFloatNilPerGroup(col []float64, sel []int32, gids []int32, accs []float64, ngroups int32) []float64 {
	accs = growFloats(accs, ngroups, 0)
	if sel == nil {
		for i, v := range col {
			if !bat.IsNilFloat(v) {
				accs[gids[i]] += v
			}
		}
		return accs
	}
	for _, i := range sel {
		if v := col[i]; !bat.IsNilFloat(v) {
			accs[gids[i]] += v
		}
	}
	return accs
}

// CountNNIntPerGroup counts non-nil int values per group.
func CountNNIntPerGroup(col []int64, sel []int32, gids []int32, accs []int64, ngroups int32) []int64 {
	accs = growInts(accs, ngroups, 0)
	if sel == nil {
		for i, v := range col {
			if v != bat.NilInt {
				accs[gids[i]]++
			}
		}
		return accs
	}
	for _, i := range sel {
		if col[i] != bat.NilInt {
			accs[gids[i]]++
		}
	}
	return accs
}

// CountNNFloatPerGroup counts non-NaN float values per group.
func CountNNFloatPerGroup(col []float64, sel []int32, gids []int32, accs []int64, ngroups int32) []int64 {
	accs = growInts(accs, ngroups, 0)
	if sel == nil {
		for i, v := range col {
			if !bat.IsNilFloat(v) {
				accs[gids[i]]++
			}
		}
		return accs
	}
	for _, i := range sel {
		if v := col[i]; !bat.IsNilFloat(v) {
			accs[gids[i]]++
		}
	}
	return accs
}

// MinIntNilPerGroup folds the minimum per group; nil inputs are skipped
// and an untouched group stays at the nil sentinel.
func MinIntNilPerGroup(col []int64, sel []int32, gids []int32, accs []int64, ngroups int32) []int64 {
	accs = growInts(accs, ngroups, bat.NilInt)
	fold := func(i int32) {
		v := col[i]
		if v == bat.NilInt {
			return
		}
		g := gids[i]
		if accs[g] == bat.NilInt || v < accs[g] {
			accs[g] = v
		}
	}
	if sel == nil {
		for i := range col {
			fold(int32(i))
		}
		return accs
	}
	for _, i := range sel {
		fold(i)
	}
	return accs
}

// MaxIntNilPerGroup folds the maximum per group (nil-aware).
func MaxIntNilPerGroup(col []int64, sel []int32, gids []int32, accs []int64, ngroups int32) []int64 {
	accs = growInts(accs, ngroups, bat.NilInt)
	fold := func(i int32) {
		v := col[i]
		if v == bat.NilInt {
			return
		}
		g := gids[i]
		if accs[g] == bat.NilInt || v > accs[g] {
			accs[g] = v
		}
	}
	if sel == nil {
		for i := range col {
			fold(int32(i))
		}
		return accs
	}
	for _, i := range sel {
		fold(i)
	}
	return accs
}

// MinFloatNilPerGroup folds the float minimum per group, skipping NaN;
// an untouched group stays NaN.
func MinFloatNilPerGroup(col []float64, sel []int32, gids []int32, accs []float64, ngroups int32) []float64 {
	accs = growFloats(accs, ngroups, math.NaN())
	fold := func(i int32) {
		v := col[i]
		if bat.IsNilFloat(v) {
			return
		}
		g := gids[i]
		if bat.IsNilFloat(accs[g]) || v < accs[g] {
			accs[g] = v
		}
	}
	if sel == nil {
		for i := range col {
			fold(int32(i))
		}
		return accs
	}
	for _, i := range sel {
		fold(i)
	}
	return accs
}

// MaxFloatNilPerGroup folds the float maximum per group (NaN-aware).
func MaxFloatNilPerGroup(col []float64, sel []int32, gids []int32, accs []float64, ngroups int32) []float64 {
	accs = growFloats(accs, ngroups, math.NaN())
	fold := func(i int32) {
		v := col[i]
		if bat.IsNilFloat(v) {
			return
		}
		g := gids[i]
		if bat.IsNilFloat(accs[g]) || v > accs[g] {
			accs[g] = v
		}
	}
	if sel == nil {
		for i := range col {
			fold(int32(i))
		}
		return accs
	}
	for _, i := range sel {
		fold(i)
	}
	return accs
}

// SelInBitsInt appends indexes whose value x has bit x-base set in bits.
// The offset is taken modulo 2^64, so a set bit always names the value
// itself: values below base wrap far past the bitmap, and the nil
// sentinel, never a key, never has its bit set.
func SelInBitsInt(col []int64, sel []int32, base int64, bits []uint64, out []int32) []int32 {
	n := uint64(len(bits)) * 64
	if sel == nil {
		for i, x := range col {
			if d := uint64(x - base); d < n && bits[d>>6]&(1<<(d&63)) != 0 {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if d := uint64(col[i] - base); d < n && bits[d>>6]&(1<<(d&63)) != 0 {
			out = append(out, i)
		}
	}
	return out
}
