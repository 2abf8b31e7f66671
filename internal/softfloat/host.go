package softfloat

import "math"

// The host path. Under the default environment (round to nearest, no
// FTZ, no DAZ), with normal operands and a result well inside the
// normal range, Inexact is the only flag an arithmetic op can raise, and
// the host FPU computes both the value and that flag exactly (DESIGN
// §4.1):
//
//   - binary64 ops take the hardware result; Inexact is a nonzero TwoSum
//     error (add, sub) or math.FMA residual (mul, div, sqrt);
//   - binary32 ops run in binary64, whose 53 bits make the second
//     rounding to 24 bits innocuous for +, -, *, / and sqrt; Inexact
//     comes from TwoSum or from multiplying back (z*y == x, z*z == x),
//     both exact in binary64. FMA32 refuses a binary64 sum that is a
//     binary32 midpoint, the one case a double rounding can differ.
//
// Each of Add, Sub, Mul, Div, Sqrt (both widths) and FMA32 begins with
// that guard, and everything it refuses runs the op's integer code
// (add64 and kin; a binary32 op runs the binary64 one through via64),
// which stays the reference the tests compare against.

// The host path's exponent-field bands, for operands and results alike.
// A binary32 field of at least 2 keeps the result from being tiny under
// tininess after rounding (a result rounded up to the smallest normal,
// field 1, may still be tiny). A binary64 field of at least 55
// (2^-968) keeps every residual's granularity at or above 2^-1074, so a
// nonzero residual never rounds to zero, and a field of at most 0x7FD
// keeps TwoSum's intermediates finite.
const (
	hostLo32, hostHi32 = 2, 0xFE
	hostLo64, hostHi64 = 55, 0x7FD
)

// host32 reports whether x's exponent field lies in the binary32 band.
func host32(x uint32) bool { return (x>>23&0xFF)-hostLo32 <= hostHi32-hostLo32 }

// host64 reports whether x's exponent field lies in the binary64 band.
func host64(x uint64) bool { return (x>>52&0x7FF)-hostLo64 <= hostHi64-hostLo64 }

// widen converts a binary32 pattern to binary64, exactly.
func widen(x uint32) float64 { return float64(math.Float32frombits(x)) }

// twoSum returns the error x + y - s of s = RN(x + y), exactly (Knuth's
// TwoSum, exact in binary64 whenever nothing overflows).
func twoSum(x, y, s float64) float64 {
	yv := s - x
	return (x - (s - yv)) + (y - yv)
}

// inexactIf returns FlagInexact when rounded is set.
func inexactIf(rounded bool) Flags {
	if rounded {
		return FlagInexact
	}
	return 0
}
