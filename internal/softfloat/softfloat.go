// Package softfloat implements IEEE 754 binary32 and binary64 arithmetic
// on the raw bit patterns, reproducing the floating point semantics of
// the x64 SSE/AVX execution units: the six MXCSR status flags, the four
// rounding modes of the RC field, the flush-to-zero (FTZ) and
// denormals-are-zero (DAZ) controls, and the SNaN/QNaN signaling rules.
//
// Every operation has an implementation in integer operations, and
// there is one integer core: binary64's. A binary32 op widens its
// operands exactly, runs the binary64 op rounding to odd, and narrows
// the result once (via64, DESIGN §4.1). The common case takes a
// shortcut: add, sub, mul, div and sqrt of either width, and binary32
// FMA, begin with a guard that passes only in the default environment
// (RN, no FTZ, no DAZ), for normal operands and a result well inside the
// normal range. There Inexact is the only flag the op can raise, and the
// host FPU computes the value and that flag exactly (host.go). Whatever
// the guard refuses runs the op's integer code (add64 and kin), which
// the tests call directly so that both paths stay pinned to the
// hardware and big.Float oracles, to vectors captured on an x64 FPU and
// to each other.
//
// The package is the foundation of the simulated FPU used by this
// repository's FPSpy reproduction: every floating point instruction the
// guest machine executes is evaluated here, so the condition codes FPSpy
// observes are genuine side effects of IEEE 754 arithmetic rather than
// scripted events.
//
// The rounding/packing structure follows the classic Berkeley SoftFloat
// design: operations compute an exact (or sticky-truncated) significand
// with guard bits and a single roundPack step applies the rounding mode,
// detects overflow/underflow/inexact, and assembles the result.
//
// Underflow semantics follow the masked-exception behavior of SSE with
// tininess detected after rounding: the underflow flag is raised only when
// the result is both tiny and inexact (or when FTZ flushes it).
package softfloat

// Flags is the set of floating point exception conditions an operation
// raised, in the bit positions used by the low six bits of x64 %mxcsr.
type Flags uint32

const (
	// FlagInvalid (IE) indicates an invalid operation: an SNaN operand,
	// inf-inf, 0*inf, 0/0, inf/inf, sqrt of a negative number, or an
	// unrepresentable float-to-int conversion.
	FlagInvalid Flags = 1 << 0
	// FlagDenormal (DE) indicates a denormalized operand. This condition
	// is x64-specific; it is suppressed when DAZ is in effect and, by
	// x64's exception priority, by a NaN operand, Invalid or
	// DivideByZero.
	FlagDenormal Flags = 1 << 1
	// FlagDivideByZero (ZE) indicates division of a finite nonzero value
	// by zero.
	FlagDivideByZero Flags = 1 << 2
	// FlagOverflow (OE) indicates the rounded result did not fit in the
	// destination format and became an infinity (or the largest finite
	// value, under directed rounding toward zero/away from the overflow).
	FlagOverflow Flags = 1 << 3
	// FlagUnderflow (UE) indicates a tiny and inexact result (masked
	// semantics, tininess after rounding), or an FTZ flush.
	FlagUnderflow Flags = 1 << 4
	// FlagInexact (PE) indicates the result is a rounded version of the
	// true result.
	FlagInexact Flags = 1 << 5
)

// String renders the flag set in the compact form used by trace dumps,
// e.g. "IE|PE". The empty set renders as "-".
func (f Flags) String() string {
	if f == 0 {
		return "-"
	}
	names := [...]struct {
		bit  Flags
		name string
	}{
		{FlagInvalid, "IE"},
		{FlagDenormal, "DE"},
		{FlagDivideByZero, "ZE"},
		{FlagOverflow, "OE"},
		{FlagUnderflow, "UE"},
		{FlagInexact, "PE"},
	}
	s := ""
	for _, n := range names {
		if f&n.bit != 0 {
			if s != "" {
				s += "|"
			}
			s += n.name
		}
	}
	return s
}

// RoundingMode selects how results are rounded, with the encoding of the
// x64 MXCSR.RC field.
type RoundingMode uint8

const (
	// RoundNearestEven rounds to the nearest representable value, ties to
	// the value with an even low-order significand bit (RC=00).
	RoundNearestEven RoundingMode = 0
	// RoundDown rounds toward negative infinity (RC=01).
	RoundDown RoundingMode = 1
	// RoundUp rounds toward positive infinity (RC=10).
	RoundUp RoundingMode = 2
	// RoundToZero truncates toward zero (RC=11).
	RoundToZero RoundingMode = 3
)

// roundOdd, OR'd into a rounding mode, makes roundPack64 round to odd:
// truncate, then set the last bit when anything was discarded. The mode
// it is OR'd into still signs an exact zero sum. Only via64 uses it.
const roundOdd RoundingMode = 4

// String returns the conventional abbreviation for the mode (RN, RD, RU, RZ).
func (m RoundingMode) String() string {
	switch m {
	case RoundNearestEven:
		return "RN"
	case RoundDown:
		return "RD"
	case RoundUp:
		return "RU"
	case RoundToZero:
		return "RZ"
	}
	return "R?"
}

// Env carries the pieces of floating point control state that alter the
// value or flags an operation produces. It corresponds to the RC, FTZ and
// DAZ fields of %mxcsr; exception masking is layered above this package
// (see internal/mxcsr), because masks affect trap delivery rather than
// arithmetic.
type Env struct {
	// RM is the active rounding mode.
	RM RoundingMode
	// FTZ flushes tiny results to signed zero, raising Underflow and
	// Inexact, instead of producing a denormal.
	FTZ bool
	// DAZ treats denormal operands as signed zeros and suppresses the
	// Denormal flag.
	DAZ bool
}

// Common bit patterns for binary64.
const (
	f64SignMask   = uint64(1) << 63
	f64ExpMask    = uint64(0x7FF) << 52
	f64FracMask   = (uint64(1) << 52) - 1
	f64QuietBit   = uint64(1) << 51
	f64DefaultNaN = uint64(0xFFF8000000000000) // x64 "real indefinite" QNaN
	f64PosInf     = uint64(0x7FF0000000000000)
	f64MaxFinite  = uint64(0x7FEFFFFFFFFFFFFF)
)

// Common bit patterns for binary32.
const (
	f32SignMask   = uint32(1) << 31
	f32ExpMask    = uint32(0xFF) << 23
	f32FracMask   = (uint32(1) << 23) - 1
	f32QuietBit   = uint32(1) << 22
	f32DefaultNaN = uint32(0xFFC00000)
	f32PosInf     = uint32(0x7F800000)
	f32MaxFinite  = uint32(0x7F7FFFFF)
)

// IsNaN64 reports whether the binary64 pattern is a NaN.
func IsNaN64(x uint64) bool {
	return x&f64ExpMask == f64ExpMask && x&f64FracMask != 0
}

// IsSNaN64 reports whether the binary64 pattern is a signaling NaN.
func IsSNaN64(x uint64) bool {
	return IsNaN64(x) && x&f64QuietBit == 0
}

// IsInf64 reports whether the binary64 pattern is an infinity.
func IsInf64(x uint64) bool {
	return x&^f64SignMask == f64PosInf
}

// IsDenormal64 reports whether the binary64 pattern is a nonzero
// denormalized number.
func IsDenormal64(x uint64) bool {
	return x&f64ExpMask == 0 && x&f64FracMask != 0
}

// IsZero64 reports whether the binary64 pattern is a signed zero.
func IsZero64(x uint64) bool {
	return x&^f64SignMask == 0
}

// IsNaN32 reports whether the binary32 pattern is a NaN.
func IsNaN32(x uint32) bool {
	return x&f32ExpMask == f32ExpMask && x&f32FracMask != 0
}

// IsSNaN32 reports whether the binary32 pattern is a signaling NaN.
func IsSNaN32(x uint32) bool {
	return IsNaN32(x) && x&f32QuietBit == 0
}

// IsInf32 reports whether the binary32 pattern is an infinity.
func IsInf32(x uint32) bool {
	return x&^f32SignMask == f32PosInf
}

// IsDenormal32 reports whether the binary32 pattern is a nonzero
// denormalized number.
func IsDenormal32(x uint32) bool {
	return x&f32ExpMask == 0 && x&f32FracMask != 0
}

// IsZero32 reports whether the binary32 pattern is a signed zero.
func IsZero32(x uint32) bool {
	return x&^f32SignMask == 0
}

// quiet64 converts a NaN pattern to its quiet form.
func quiet64(x uint64) uint64 { return x | f64QuietBit }

// quiet32 converts a NaN pattern to its quiet form.
func quiet32(x uint32) uint32 { return x | f32QuietBit }

// propagateNaN64 implements the SSE NaN propagation rule for two-operand
// instructions: if the first (destination) operand is a NaN, its quieted
// form is the result; otherwise the second operand's. An SNaN among the
// operands raises Invalid.
func propagateNaN64(a, b uint64, fl *Flags) uint64 {
	if IsSNaN64(a) || IsSNaN64(b) {
		*fl |= FlagInvalid
	}
	if IsNaN64(a) {
		return quiet64(a)
	}
	return quiet64(b)
}

// opClass is what the Denormal rule needs to know of an op's operands:
// whether one is denormal, and whether one is a NaN.
type opClass uint8

const (
	denormalOperand opClass = 1 << iota
	nanOperand
)

// class64 classifies a binary64 operand for the Denormal rule.
func class64(x uint64) opClass {
	switch {
	case IsNaN64(x):
		return nanOperand
	case IsDenormal64(x):
		return denormalOperand
	}
	return 0
}

// class32 classifies a binary32 operand for the Denormal rule.
func class32(x uint32) opClass {
	switch {
	case IsNaN32(x):
		return nanOperand
	case IsDenormal32(x):
		return denormalOperand
	}
	return 0
}

// denormal returns fl, the flags an op on operands of class ops raised,
// with Denormal added when x64 raises it. Intel's SIMD exception
// priority ranks an SNaN's Invalid first, then a QNaN operand, then the
// other Invalid cases and DivideByZero, then a denormal operand; so DE
// is raised only when some operand is denormal, none is a NaN and the
// op raised neither IE nor ZE. Under DAZ no operand is denormal.
func denormal(fl Flags, ops opClass, env Env) Flags {
	if ops == denormalOperand && !env.DAZ && fl&(FlagInvalid|FlagDivideByZero) == 0 {
		return fl | FlagDenormal
	}
	return fl
}
