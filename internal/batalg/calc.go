package batalg

import (
	"fmt"
	"math"

	"repro/internal/bat"
)

// Map-style arithmetic ("batcalc" in MonetDB). Each function is one tight
// loop over whole columns with zero degrees of freedom, so the Go compiler
// can eliminate bounds checks and the CPU can pipeline — the property §3 of
// the paper contrasts with the tuple-at-a-time expression interpreter.

// Int arithmetic propagates nil: bat.NilInt in, bat.NilInt out — the
// sentinel must not be transformed into a garbage non-nil value that
// downstream nil-skipping aggregates would then count. Nil-free inputs
// (the NoNil property, §3.1) take the branch-free fast path.

// AddScalar returns tail[i] + v (nil-propagating).
func AddScalar(b *bat.BAT, v int64) *bat.BAT {
	in := b.Ints()
	out := make([]int64, len(in))
	if b.Props().NoNil {
		for i, x := range in {
			out[i] = x + v
		}
	} else {
		for i, x := range in {
			if x == bat.NilInt {
				out[i] = bat.NilInt
			} else {
				out[i] = x + v
			}
		}
	}
	return bat.FromInts(out)
}

// MulScalar returns tail[i] * v (nil-propagating).
func MulScalar(b *bat.BAT, v int64) *bat.BAT {
	in := b.Ints()
	out := make([]int64, len(in))
	if b.Props().NoNil {
		for i, x := range in {
			out[i] = x * v
		}
	} else {
		for i, x := range in {
			if x == bat.NilInt {
				out[i] = bat.NilInt
			} else {
				out[i] = x * v
			}
		}
	}
	return bat.FromInts(out)
}

// Add returns a[i] + b[i] (nil-propagating); the BATs must be aligned
// (same length).
func Add(a, b *bat.BAT) *bat.BAT {
	x, y := a.Ints(), b.Ints()
	checkAligned(len(x), len(y))
	out := make([]int64, len(x))
	if a.Props().NoNil && b.Props().NoNil {
		for i := range x {
			out[i] = x[i] + y[i]
		}
	} else {
		for i := range x {
			if x[i] == bat.NilInt || y[i] == bat.NilInt {
				out[i] = bat.NilInt
			} else {
				out[i] = x[i] + y[i]
			}
		}
	}
	return bat.FromInts(out)
}

// Sub returns a[i] - b[i] (nil-propagating).
func Sub(a, b *bat.BAT) *bat.BAT {
	x, y := a.Ints(), b.Ints()
	checkAligned(len(x), len(y))
	out := make([]int64, len(x))
	if a.Props().NoNil && b.Props().NoNil {
		for i := range x {
			out[i] = x[i] - y[i]
		}
	} else {
		for i := range x {
			if x[i] == bat.NilInt || y[i] == bat.NilInt {
				out[i] = bat.NilInt
			} else {
				out[i] = x[i] - y[i]
			}
		}
	}
	return bat.FromInts(out)
}

// Mul returns a[i] * b[i] (nil-propagating).
func Mul(a, b *bat.BAT) *bat.BAT {
	x, y := a.Ints(), b.Ints()
	checkAligned(len(x), len(y))
	out := make([]int64, len(x))
	if a.Props().NoNil && b.Props().NoNil {
		for i := range x {
			out[i] = x[i] * y[i]
		}
	} else {
		for i := range x {
			if x[i] == bat.NilInt || y[i] == bat.NilInt {
				out[i] = bat.NilInt
			} else {
				out[i] = x[i] * y[i]
			}
		}
	}
	return bat.FromInts(out)
}

// AddFloat returns a[i] + b[i] for float tails.
func AddFloat(a, b *bat.BAT) *bat.BAT {
	x, y := a.Floats(), b.Floats()
	checkAligned(len(x), len(y))
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] + y[i]
	}
	return bat.FromFloats(out)
}

// SubFloatScalar returns v - tail[i] (used for 1-discount style terms).
func SubFloatScalar(v float64, b *bat.BAT) *bat.BAT {
	in := b.Floats()
	out := make([]float64, len(in))
	for i, x := range in {
		out[i] = v - x
	}
	return bat.FromFloats(out)
}

// AddFloatScalar returns tail[i] + v for float tails.
func AddFloatScalar(b *bat.BAT, v float64) *bat.BAT {
	in := b.Floats()
	out := make([]float64, len(in))
	for i, x := range in {
		out[i] = x + v
	}
	return bat.FromFloats(out)
}

// MulFloatScalar returns tail[i] * v for float tails.
func MulFloatScalar(b *bat.BAT, v float64) *bat.BAT {
	in := b.Floats()
	out := make([]float64, len(in))
	for i, x := range in {
		out[i] = x * v
	}
	return bat.FromFloats(out)
}

// SubFloat returns a[i] - b[i] for float tails.
func SubFloat(a, b *bat.BAT) *bat.BAT {
	x, y := a.Floats(), b.Floats()
	checkAligned(len(x), len(y))
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] - y[i]
	}
	return bat.FromFloats(out)
}

// DivFloat returns a[i] / b[i] for float tails (0 where b[i] == 0).
func DivFloat(a, b *bat.BAT) *bat.BAT {
	x, y := a.Floats(), b.Floats()
	checkAligned(len(x), len(y))
	out := make([]float64, len(x))
	for i := range x {
		if y[i] != 0 {
			out[i] = x[i] / y[i]
		}
	}
	return bat.FromFloats(out)
}

// DivFloatNil returns a[i] / b[i] for float tails, with NaN — the float
// stand-in for nil, lacking a dedicated sentinel — where b[i] == 0. It
// is the AVG denominator path: an all-nil group has a zero non-nil
// count and must yield NULL, not 0.
func DivFloatNil(a, b *bat.BAT) *bat.BAT {
	x, y := a.Floats(), b.Floats()
	checkAligned(len(x), len(y))
	out := make([]float64, len(x))
	for i := range x {
		if y[i] != 0 {
			out[i] = x[i] / y[i]
		} else {
			out[i] = math.NaN()
		}
	}
	return bat.FromFloats(out)
}

// MulFloat returns a[i] * b[i] for float tails.
func MulFloat(a, b *bat.BAT) *bat.BAT {
	x, y := a.Floats(), b.Floats()
	checkAligned(len(x), len(y))
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] * y[i]
	}
	return bat.FromFloats(out)
}

// IntToFloat converts an int tail to float; nil ints become NaN, the
// float nil stand-in (see DivFloatNil), so mixed-type expressions over
// nil-laden columns stay nil instead of turning into -2^63.
func IntToFloat(b *bat.BAT) *bat.BAT {
	in := b.Ints()
	out := make([]float64, len(in))
	if b.Props().NoNil {
		for i, x := range in {
			out[i] = float64(x)
		}
	} else {
		for i, x := range in {
			if x == bat.NilInt {
				out[i] = math.NaN()
			} else {
				out[i] = float64(x)
			}
		}
	}
	return bat.FromFloats(out)
}

func checkAligned(a, b int) {
	if a != b {
		panic(fmt.Sprintf("batalg: unaligned operands: %d vs %d", a, b))
	}
}
