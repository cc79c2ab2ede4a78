package vector

// Vectorized primitives: each is one tight loop over a vector, optionally
// driven by a selection vector. These are the X100 equivalents of the BAT
// algebra's bulk operators; all per-tuple interpretation decisions are
// hoisted out of these loops.

import "repro/internal/bat"

// --- selection primitives ---
//
// Every selection comes in two flavours of one loop, and both append
// the qualifying indexes (drawn from sel, or 0..len(col)-1 when sel is
// nil) to out by index, into out's spare capacity, which must hold
// every candidate: the caller sizes it, and a short buffer panics at
// the slicing before the loop, never inside it.
//
//   - The branching flavour (bf false) tests the predicate and writes
//     the index only when it holds. It is the cheaper loop while the
//     branch predictor guesses right: a pass rate near 0 or near 1.
//   - The branch-free flavour (bf true) writes every candidate's index
//     and advances the write position by the predicate's truth value,
//     0 or 1 (b2i compiles to a SETcc), so no guess can miss. It costs
//     the same at every pass rate and wins in between.
//
// Filter picks the flavour per predicate per vector from the pass rate
// it saw on the previous one (branchy). The comparison is the same
// generic loop for INT and FLOAT columns; the choice of flavour and of
// comparison is made once per call, so no loop holds an indirect call
// or a per-row switch.

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// spare is the room out has for the candidates of col under sel.
func spare[T int64 | float64](out []int32, col []T, sel []int32) []int32 {
	n := len(col)
	if sel != nil {
		n = len(sel)
	}
	return out[len(out) : len(out)+n]
}

// selGe appends indexes with col[i] >= v.
func selGe[T int64 | float64](col []T, sel []int32, v T, out []int32, bf bool) []int32 {
	o, k := spare(out, col, sel), 0
	switch {
	case bf && sel == nil:
		for i, x := range col {
			o[k] = int32(i)
			k += b2i(x >= v)
		}
	case bf:
		for _, i := range sel {
			o[k] = i
			k += b2i(col[i] >= v)
		}
	case sel == nil:
		for i, x := range col {
			if x >= v {
				o[k] = int32(i)
				k++
			}
		}
	default:
		for _, i := range sel {
			if col[i] >= v {
				o[k] = i
				k++
			}
		}
	}
	return out[:len(out)+k]
}

// selGt appends indexes with col[i] > v.
func selGt[T int64 | float64](col []T, sel []int32, v T, out []int32, bf bool) []int32 {
	o, k := spare(out, col, sel), 0
	switch {
	case bf && sel == nil:
		for i, x := range col {
			o[k] = int32(i)
			k += b2i(x > v)
		}
	case bf:
		for _, i := range sel {
			o[k] = i
			k += b2i(col[i] > v)
		}
	case sel == nil:
		for i, x := range col {
			if x > v {
				o[k] = int32(i)
				k++
			}
		}
	default:
		for _, i := range sel {
			if col[i] > v {
				o[k] = i
				k++
			}
		}
	}
	return out[:len(out)+k]
}

// selLe appends indexes with col[i] <= v. Over an INT column that may
// hold nils use selLeNil: bat.NilInt is the domain minimum.
func selLe[T int64 | float64](col []T, sel []int32, v T, out []int32, bf bool) []int32 {
	o, k := spare(out, col, sel), 0
	switch {
	case bf && sel == nil:
		for i, x := range col {
			o[k] = int32(i)
			k += b2i(x <= v)
		}
	case bf:
		for _, i := range sel {
			o[k] = i
			k += b2i(col[i] <= v)
		}
	case sel == nil:
		for i, x := range col {
			if x <= v {
				o[k] = int32(i)
				k++
			}
		}
	default:
		for _, i := range sel {
			if col[i] <= v {
				o[k] = i
				k++
			}
		}
	}
	return out[:len(out)+k]
}

// selLt appends indexes with col[i] < v (selLtNil over nil-bearing INT).
func selLt[T int64 | float64](col []T, sel []int32, v T, out []int32, bf bool) []int32 {
	o, k := spare(out, col, sel), 0
	switch {
	case bf && sel == nil:
		for i, x := range col {
			o[k] = int32(i)
			k += b2i(x < v)
		}
	case bf:
		for _, i := range sel {
			o[k] = i
			k += b2i(col[i] < v)
		}
	case sel == nil:
		for i, x := range col {
			if x < v {
				o[k] = int32(i)
				k++
			}
		}
	default:
		for _, i := range sel {
			if col[i] < v {
				o[k] = i
				k++
			}
		}
	}
	return out[:len(out)+k]
}

// selEq appends indexes with col[i] == v (never NaN, the float nil).
func selEq[T int64 | float64](col []T, sel []int32, v T, out []int32, bf bool) []int32 {
	o, k := spare(out, col, sel), 0
	switch {
	case bf && sel == nil:
		for i, x := range col {
			o[k] = int32(i)
			k += b2i(x == v)
		}
	case bf:
		for _, i := range sel {
			o[k] = i
			k += b2i(col[i] == v)
		}
	case sel == nil:
		for i, x := range col {
			if x == v {
				o[k] = int32(i)
				k++
			}
		}
	default:
		for _, i := range sel {
			if col[i] == v {
				o[k] = i
				k++
			}
		}
	}
	return out[:len(out)+k]
}

// selNeInt appends indexes with col[i] != v. It lets the nil sentinel
// through: over a column that may hold nils use selNeIntNil.
func selNeInt(col []int64, sel []int32, v int64, out []int32, bf bool) []int32 {
	o, k := spare(out, col, sel), 0
	switch {
	case bf && sel == nil:
		for i, x := range col {
			o[k] = int32(i)
			k += b2i(x != v)
		}
	case bf:
		for _, i := range sel {
			o[k] = i
			k += b2i(col[i] != v)
		}
	case sel == nil:
		for i, x := range col {
			if x != v {
				o[k] = int32(i)
				k++
			}
		}
	default:
		for _, i := range sel {
			if col[i] != v {
				o[k] = i
				k++
			}
		}
	}
	return out[:len(out)+k]
}

// --- nil-aware selections ---
//
// bat.NilInt is the domain MINIMUM, so the plain <, <=, <> loops would
// let stored NULLs qualify. These variants skip the sentinel as well;
// the remaining int comparisons (=, >, >=) are already nil-correct
// (NilInt can only satisfy them when compared against the sentinel
// value itself, mirroring the BAT algebra's ThetaSelect), and so is
// every float comparison but <> (NaN, the float nil, fails each of
// them). The physical plan picks the nil-aware variant exactly when the
// column's NoNil property is unset — the same property-driven dispatch
// §3.1 describes — so a nil-free column tests one comparison per row,
// not two.

// selLtIntNil appends indexes with col[i] < v, skipping nils.
func selLtIntNil(col []int64, sel []int32, v int64, out []int32, bf bool) []int32 {
	o, k := spare(out, col, sel), 0
	switch {
	case bf && sel == nil:
		for i, x := range col {
			o[k] = int32(i)
			k += b2i(x < v) & b2i(x != bat.NilInt)
		}
	case bf:
		for _, i := range sel {
			x := col[i]
			o[k] = i
			k += b2i(x < v) & b2i(x != bat.NilInt)
		}
	case sel == nil:
		for i, x := range col {
			if x < v && x != bat.NilInt {
				o[k] = int32(i)
				k++
			}
		}
	default:
		for _, i := range sel {
			if x := col[i]; x < v && x != bat.NilInt {
				o[k] = i
				k++
			}
		}
	}
	return out[:len(out)+k]
}

// selLeIntNil appends indexes with col[i] <= v, skipping nils.
func selLeIntNil(col []int64, sel []int32, v int64, out []int32, bf bool) []int32 {
	o, k := spare(out, col, sel), 0
	switch {
	case bf && sel == nil:
		for i, x := range col {
			o[k] = int32(i)
			k += b2i(x <= v) & b2i(x != bat.NilInt)
		}
	case bf:
		for _, i := range sel {
			x := col[i]
			o[k] = i
			k += b2i(x <= v) & b2i(x != bat.NilInt)
		}
	case sel == nil:
		for i, x := range col {
			if x <= v && x != bat.NilInt {
				o[k] = int32(i)
				k++
			}
		}
	default:
		for _, i := range sel {
			if x := col[i]; x <= v && x != bat.NilInt {
				o[k] = i
				k++
			}
		}
	}
	return out[:len(out)+k]
}

// selNeIntNil appends indexes with col[i] != v, skipping nils (NULL <> v
// is unknown, not true). With v the sentinel it is IS NOT NULL.
func selNeIntNil(col []int64, sel []int32, v int64, out []int32, bf bool) []int32 {
	o, k := spare(out, col, sel), 0
	switch {
	case bf && sel == nil:
		for i, x := range col {
			o[k] = int32(i)
			k += b2i(x != v) & b2i(x != bat.NilInt)
		}
	case bf:
		for _, i := range sel {
			x := col[i]
			o[k] = i
			k += b2i(x != v) & b2i(x != bat.NilInt)
		}
	case sel == nil:
		for i, x := range col {
			if x != v && x != bat.NilInt {
				o[k] = int32(i)
				k++
			}
		}
	default:
		for _, i := range sel {
			if x := col[i]; x != v && x != bat.NilInt {
				o[k] = i
				k++
			}
		}
	}
	return out[:len(out)+k]
}

// selNeFloat appends indexes with col[i] != v, excluding NaN (the float
// nil: NULL <> v is unknown, not true).
func selNeFloat(col []float64, sel []int32, v float64, out []int32, bf bool) []int32 {
	o, k := spare(out, col, sel), 0
	switch {
	case bf && sel == nil:
		for i, x := range col {
			o[k] = int32(i)
			k += b2i(x != v) & b2i(!bat.IsNilFloat(x))
		}
	case bf:
		for _, i := range sel {
			x := col[i]
			o[k] = i
			k += b2i(x != v) & b2i(!bat.IsNilFloat(x))
		}
	case sel == nil:
		for i, x := range col {
			if x != v && !bat.IsNilFloat(x) {
				o[k] = int32(i)
				k++
			}
		}
	default:
		for _, i := range sel {
			if x := col[i]; x != v && !bat.IsNilFloat(x) {
				o[k] = i
				k++
			}
		}
	}
	return out[:len(out)+k]
}

// selNilFloat appends indexes whose float value is NaN (the float nil)
// when want is set, and those whose value is not when it is clear. The
// INT nil tests are selEq and selNeIntNil against bat.NilInt.
func selNilFloat(col []float64, sel []int32, want bool, out []int32, bf bool) []int32 {
	o, k := spare(out, col, sel), 0
	switch {
	case bf && sel == nil:
		for i, x := range col {
			o[k] = int32(i)
			k += b2i(bat.IsNilFloat(x) == want)
		}
	case bf:
		for _, i := range sel {
			o[k] = i
			k += b2i(bat.IsNilFloat(col[i]) == want)
		}
	case sel == nil:
		for i, x := range col {
			if bat.IsNilFloat(x) == want {
				o[k] = int32(i)
				k++
			}
		}
	default:
		for _, i := range sel {
			if bat.IsNilFloat(col[i]) == want {
				o[k] = i
				k++
			}
		}
	}
	return out[:len(out)+k]
}

// selInBits appends indexes whose value x has bit x-base set in bits.
// The offset is taken modulo 2^64, so a set bit always names the value
// itself: values below base wrap far past the bitmap, and the nil
// sentinel, never a key, never has its bit set. The branch-free flavour
// reads word 0 for an offset past the bitmap and masks the bit off.
func selInBits(col []int64, sel []int32, base int64, bits []uint64, out []int32, bf bool) []int32 {
	if len(bits) == 0 {
		return out // no key: nothing passes
	}
	n := uint64(len(bits)) * 64
	o, k := spare(out, col, sel), 0
	switch {
	case bf && sel == nil:
		for i, x := range col {
			d := uint64(x - base)
			in := b2i(d < n)
			o[k] = int32(i)
			k += int(bits[(d>>6)&-uint64(in)]>>(d&63)) & in
		}
	case bf:
		for _, i := range sel {
			d := uint64(col[i] - base)
			in := b2i(d < n)
			o[k] = i
			k += int(bits[(d>>6)&-uint64(in)]>>(d&63)) & in
		}
	case sel == nil:
		for i, x := range col {
			if d := uint64(x - base); d < n && bits[d>>6]&(1<<(d&63)) != 0 {
				o[k] = int32(i)
				k++
			}
		}
	default:
		for _, i := range sel {
			if d := uint64(col[i] - base); d < n && bits[d>>6]&(1<<(d&63)) != 0 {
				o[k] = i
				k++
			}
		}
	}
	return out[:len(out)+k]
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

// The per-group folds below fold the qualifying rows of one batch into
// accs[gids[i]]; the caller has sized accs to every group gids names.

// SumIntPerGroup folds col values into accs[gids[i]] for qualifying rows.
func SumIntPerGroup(col []int64, sel []int32, gids []int32, accs []int64) {
	if sel == nil {
		for i := range col {
			accs[gids[i]] += col[i]
		}
		return
	}
	for _, i := range sel {
		accs[gids[i]] += col[i]
	}
}

// SumFloatPerGroup folds float col values per group.
func SumFloatPerGroup(col []float64, sel []int32, gids []int32, accs []float64) {
	if sel == nil {
		for i := range col {
			accs[gids[i]] += col[i]
		}
		return
	}
	for _, i := range sel {
		accs[gids[i]] += col[i]
	}
}

// CountPerGroup increments counts[gids[i]] for qualifying rows.
func CountPerGroup(sel []int32, n int, gids []int32, counts []int64) {
	if sel == nil {
		for i := 0; i < n; i++ {
			counts[gids[i]]++
		}
		return
	}
	for _, i := range sel {
		counts[gids[i]]++
	}
}

// --- nil-aware per-group folds ---
//
// The nil sentinels are bat.NilInt for int vectors and NaN for float
// vectors (matching the BAT layer). Sums and counts SKIP nils; min/max
// accumulators START at the sentinel, so a group nothing contributed to
// reads back as nil — exactly SQL's all-NULL-group semantics, and the
// property that makes per-worker partials mergeable: a worker's nil
// partial is skipped by the merge fold like any other nil input.

// SumIntNilPerGroup folds col into accs[gids[i]], skipping nil values.
func SumIntNilPerGroup(col []int64, sel []int32, gids []int32, accs []int64) {
	if sel == nil {
		for i, v := range col {
			if v != bat.NilInt {
				accs[gids[i]] += v
			}
		}
		return
	}
	for _, i := range sel {
		if v := col[i]; v != bat.NilInt {
			accs[gids[i]] += v
		}
	}
}

// SumFloatNilPerGroup folds col per group, skipping NaN (the float nil).
func SumFloatNilPerGroup(col []float64, sel []int32, gids []int32, accs []float64) {
	if sel == nil {
		for i, v := range col {
			if !bat.IsNilFloat(v) {
				accs[gids[i]] += v
			}
		}
		return
	}
	for _, i := range sel {
		if v := col[i]; !bat.IsNilFloat(v) {
			accs[gids[i]] += v
		}
	}
}

// CountNNIntPerGroup counts non-nil int values per group.
func CountNNIntPerGroup(col []int64, sel []int32, gids []int32, accs []int64) {
	if sel == nil {
		for i, v := range col {
			if v != bat.NilInt {
				accs[gids[i]]++
			}
		}
		return
	}
	for _, i := range sel {
		if col[i] != bat.NilInt {
			accs[gids[i]]++
		}
	}
}

// CountNNFloatPerGroup counts non-NaN float values per group.
func CountNNFloatPerGroup(col []float64, sel []int32, gids []int32, accs []int64) {
	if sel == nil {
		for i, v := range col {
			if !bat.IsNilFloat(v) {
				accs[gids[i]]++
			}
		}
		return
	}
	for _, i := range sel {
		if v := col[i]; !bat.IsNilFloat(v) {
			accs[gids[i]]++
		}
	}
}

// MinIntNilPerGroup folds the minimum per group; nil inputs are skipped
// and an untouched group stays at the nil sentinel.
func MinIntNilPerGroup(col []int64, sel []int32, gids []int32, accs []int64) {
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
		return
	}
	for _, i := range sel {
		fold(i)
	}
}

// MaxIntNilPerGroup folds the maximum per group (nil-aware).
func MaxIntNilPerGroup(col []int64, sel []int32, gids []int32, accs []int64) {
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
		return
	}
	for _, i := range sel {
		fold(i)
	}
}

// MinFloatNilPerGroup folds the float minimum per group, skipping NaN;
// an untouched group stays NaN.
func MinFloatNilPerGroup(col []float64, sel []int32, gids []int32, accs []float64) {
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
		return
	}
	for _, i := range sel {
		fold(i)
	}
}

// MaxFloatNilPerGroup folds the float maximum per group (NaN-aware).
func MaxFloatNilPerGroup(col []float64, sel []int32, gids []int32, accs []float64) {
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
		return
	}
	for _, i := range sel {
		fold(i)
	}
}
