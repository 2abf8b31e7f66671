package softfloat

import (
	"math"
	"math/bits"
)

// frac32 extracts the 23-bit fraction field.
func frac32(x uint32) uint32 { return x & f32FracMask }

// exp32 extracts the 8-bit biased exponent field.
func exp32(x uint32) int32 { return int32((x >> 23) & 0xFF) }

// sign32 extracts the sign bit.
func sign32(x uint32) bool { return x>>31 != 0 }

// pack32 assembles a binary32 value; a hidden bit in sig carries into the
// exponent field, as in pack64.
func pack32(sign bool, exp int32, sig uint32) uint32 {
	s := uint32(0)
	if sign {
		s = f32SignMask
	}
	return s + uint32(exp)<<23 + sig
}

// packZero32 returns a signed zero.
func packZero32(sign bool) uint32 {
	if sign {
		return f32SignMask
	}
	return 0
}

// packInf32 returns a signed infinity.
func packInf32(sign bool) uint32 {
	if sign {
		return f32SignMask | f32PosInf
	}
	return f32PosInf
}

// normSubnormal32 normalizes a denormal fraction to hidden-bit position 23.
func normSubnormal32(frac uint32) (exp int32, sig uint32) {
	shift := int32(bits.LeadingZeros32(frac)) - 8
	return 1 - shift, frac << uint(shift)
}

// roundPack32 rounds and packs a binary32 result. sig holds the
// significand with its leading bit at position 30 and seven guard/sticky
// bits; the represented value is (sig / 2^30) * 2^(exp+1-bias).
func roundPack32(sign bool, exp int32, sig uint32, env Env, fl *Flags) uint32 {
	var inc uint32
	switch env.RM {
	case RoundNearestEven:
		inc = 0x40
	case RoundToZero:
		inc = 0
	case RoundDown:
		if sign {
			inc = 0x7F
		}
	case RoundUp:
		if !sign {
			inc = 0x7F
		}
	}
	roundBits := sig & 0x7F
	if exp >= 0xFD {
		if exp > 0xFD || (exp == 0xFD && int32(sig+inc) < 0) {
			*fl |= FlagOverflow | FlagInexact
			if inc == 0 {
				return pack32(sign, 0xFE, f32FracMask)
			}
			return packInf32(sign)
		}
	}
	if exp < 0 {
		isTiny := exp < -1 || sig+inc < f32SignMask
		if env.FTZ && isTiny {
			*fl |= FlagUnderflow | FlagInexact
			return packZero32(sign)
		}
		sig = shiftRightJam32(sig, uint(-exp))
		exp = 0
		roundBits = sig & 0x7F
		if isTiny && roundBits != 0 {
			*fl |= FlagUnderflow
		}
	}
	if roundBits != 0 {
		*fl |= FlagInexact
	}
	sig = (sig + inc) >> 7
	if roundBits == 0x40 && env.RM == RoundNearestEven {
		sig &^= 1
	}
	if sig == 0 {
		exp = 0
	}
	return pack32(sign, exp, sig)
}

// daz32 applies denormals-are-zero to an operand, as daz64 does.
func daz32(x uint32, env Env) uint32 {
	if env.DAZ && IsDenormal32(x) {
		return x & f32SignMask
	}
	return x
}

// via64 is the integer code of every binary32 arithmetic op: DAZ
// applies to the operands, which widen exactly (a signaling NaN stays
// signaling, so the binary64 op raises Invalid for it); the binary64
// op computes the result rounded to odd; and one roundPack32 narrows
// it, deciding overflow, tininess and FTZ. Since 53 >= 24 + 2, a value
// rounded to odd at 53 bits rounds to binary32 in every mode as the
// exact value does, and binary32 operands can neither overflow nor
// underflow binary64 (DESIGN §4.1). An op of one or two operands passes
// a copy of one of them for the rest.
func via64(op Op, a, b, c uint32, env Env) (uint32, Flags) {
	x, y := widen32to64(daz32(a, env)), widen32to64(daz32(b, env))
	odd := Env{RM: env.RM | roundOdd}
	var z uint64
	var fl Flags
	switch op {
	case OpAdd:
		z, fl = add64(x, y, odd)
	case OpSub:
		z, fl = sub64(x, y, odd)
	case OpMul:
		z, fl = mul64(x, y, odd)
	case OpDiv:
		z, fl = div64(x, y, odd)
	case OpSqrt:
		z, fl = sqrt64(x, odd)
	default:
		z, fl = FMA64(x, y, widen32to64(daz32(c, env)), odd)
	}
	r := narrow(z, env, &fl)
	return r, denormal(fl, class32(a)|class32(b)|class32(c), env)
}

// Add32 computes a + b on binary32 bit patterns with SSE addss semantics.
func Add32(a, b uint32, env Env) (uint32, Flags) {
	if env == (Env{}) && host32(a) && host32(b) {
		x, y := widen(a), widen(b)
		s := x + y
		if z := math.Float32bits(float32(s)); host32(z) {
			return z, inexactIf(widen(z) != s || twoSum(x, y, s) != 0)
		}
	}
	return via64(OpAdd, a, b, b, env)
}

// Sub32 computes a - b with SSE subss semantics.
func Sub32(a, b uint32, env Env) (uint32, Flags) {
	if env == (Env{}) && host32(a) && host32(b) {
		x, y := widen(a), -widen(b)
		s := x + y
		if z := math.Float32bits(float32(s)); host32(z) {
			return z, inexactIf(widen(z) != s || twoSum(x, y, s) != 0)
		}
	}
	return via64(OpSub, a, b, b, env)
}

// Mul32 computes a * b with SSE mulss semantics.
func Mul32(a, b uint32, env Env) (uint32, Flags) {
	if env == (Env{}) && host32(a) && host32(b) {
		p := widen(a) * widen(b) // exact: 48 significant bits
		if z := math.Float32bits(float32(p)); host32(z) {
			return z, inexactIf(widen(z) != p)
		}
	}
	return via64(OpMul, a, b, b, env)
}

// Div32 computes a / b with SSE divss semantics.
func Div32(a, b uint32, env Env) (uint32, Flags) {
	if env == (Env{}) && host32(a) && host32(b) {
		x, y := widen(a), widen(b)
		if z := math.Float32bits(float32(x / y)); host32(z) {
			return z, inexactIf(widen(z)*y != x)
		}
	}
	return via64(OpDiv, a, b, b, env)
}

// Sqrt32 computes sqrt(a) with SSE sqrtss semantics.
func Sqrt32(a uint32, env Env) (uint32, Flags) {
	if env == (Env{}) && host32(a) {
		x := widen(a)
		if z := math.Float32bits(float32(math.Sqrt(x))); host32(z) {
			return z, inexactIf(widen(z)*widen(z) != x)
		}
	}
	return via64(OpSqrt, a, a, a, env)
}
