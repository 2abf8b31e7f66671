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
		if env.FTZ {
			*fl |= FlagUnderflow | FlagInexact
			return packZero32(sign)
		}
		isTiny := exp < -1 || sig+inc < f32SignMask
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

// normRoundPack32 left-normalizes sig to position 30 and rounds and packs.
func normRoundPack32(sign bool, exp int32, sig uint32, env Env, fl *Flags) uint32 {
	shift := int32(bits.LeadingZeros32(sig)) - 1
	return roundPack32(sign, exp-shift, sig<<uint(shift), env, fl)
}

// daz32 applies denormals-are-zero or raises the Denormal flag.
func daz32(x uint32, env Env, fl *Flags) uint32 {
	if IsDenormal32(x) {
		if env.DAZ {
			return x & f32SignMask
		}
		*fl |= FlagDenormal
	}
	return x
}

// addSigs32 adds the magnitudes of a and b (same effective sign zSign).
func addSigs32(a, b uint32, zSign bool, env Env, fl *Flags) uint32 {
	aSig, bSig := frac32(a), frac32(b)
	aExp, bExp := exp32(a), exp32(b)
	expDiff := aExp - bExp
	aSig <<= 6
	bSig <<= 6
	var zExp int32
	var zSig uint32
	switch {
	case expDiff > 0:
		if aExp == 0xFF {
			if aSig != 0 {
				return propagateNaN32(a, b, fl)
			}
			return a
		}
		if bExp == 0 {
			expDiff--
		} else {
			bSig |= uint32(1) << 29
		}
		bSig = shiftRightJam32(bSig, uint(expDiff))
		zExp = aExp
	case expDiff < 0:
		if bExp == 0xFF {
			if bSig != 0 {
				return propagateNaN32(a, b, fl)
			}
			return packInf32(zSign)
		}
		if aExp == 0 {
			expDiff++
		} else {
			aSig |= uint32(1) << 29
		}
		aSig = shiftRightJam32(aSig, uint(-expDiff))
		zExp = bExp
	default:
		if aExp == 0xFF {
			if aSig|bSig != 0 {
				return propagateNaN32(a, b, fl)
			}
			return a
		}
		if aExp == 0 {
			return pack32(zSign, 0, (aSig+bSig)>>6)
		}
		zSig = uint32(1)<<30 + aSig + bSig
		return roundPack32(zSign, aExp, zSig, env, fl)
	}
	aSig |= uint32(1) << 29
	zSig = (aSig + bSig) << 1
	zExp--
	if int32(zSig) < 0 {
		zSig = aSig + bSig
		zExp++
	}
	return roundPack32(zSign, zExp, zSig, env, fl)
}

// subSigs32 subtracts the magnitude of b from a.
func subSigs32(a, b uint32, zSign bool, env Env, fl *Flags) uint32 {
	aSig, bSig := frac32(a), frac32(b)
	aExp, bExp := exp32(a), exp32(b)
	expDiff := aExp - bExp
	aSig <<= 7
	bSig <<= 7
	var zExp int32
	var zSig uint32
	switch {
	case expDiff > 0:
		if aExp == 0xFF {
			if aSig != 0 {
				return propagateNaN32(a, b, fl)
			}
			return a
		}
		if bExp == 0 {
			expDiff--
		} else {
			bSig |= uint32(1) << 30
		}
		bSig = shiftRightJam32(bSig, uint(expDiff))
		aSig |= uint32(1) << 30
		zSig = aSig - bSig
		zExp = aExp
	case expDiff < 0:
		if bExp == 0xFF {
			if bSig != 0 {
				return propagateNaN32(a, b, fl)
			}
			return packInf32(!zSign)
		}
		if aExp == 0 {
			expDiff++
		} else {
			aSig |= uint32(1) << 30
		}
		aSig = shiftRightJam32(aSig, uint(-expDiff))
		bSig |= uint32(1) << 30
		zSig = bSig - aSig
		zExp = bExp
		zSign = !zSign
	default:
		if aExp == 0xFF {
			if aSig|bSig != 0 {
				return propagateNaN32(a, b, fl)
			}
			*fl |= FlagInvalid
			return f32DefaultNaN
		}
		if aExp == 0 {
			aExp = 1
			bExp = 1
		}
		switch {
		case bSig < aSig:
			zSig = aSig - bSig
			zExp = aExp
		case aSig < bSig:
			zSig = bSig - aSig
			zExp = aExp
			zSign = !zSign
		default:
			return packZero32(env.RM == RoundDown)
		}
	}
	return normRoundPack32(zSign, zExp-1, zSig, env, fl)
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
	return add32(a, b, env)
}

// add32 is Add32 in integer arithmetic.
func add32(a, b uint32, env Env) (uint32, Flags) {
	var fl Flags
	a = daz32(a, env, &fl)
	b = daz32(b, env, &fl)
	var z uint32
	if sign32(a) == sign32(b) {
		z = addSigs32(a, b, sign32(a), env, &fl)
	} else {
		z = subSigs32(a, b, sign32(a), env, &fl)
	}
	return z, fl
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
	return sub32(a, b, env)
}

// sub32 is Sub32 in integer arithmetic.
func sub32(a, b uint32, env Env) (uint32, Flags) {
	var fl Flags
	a = daz32(a, env, &fl)
	b = daz32(b, env, &fl)
	var z uint32
	if sign32(a) == sign32(b) {
		z = subSigs32(a, b, sign32(a), env, &fl)
	} else {
		z = addSigs32(a, b, sign32(a), env, &fl)
	}
	return z, fl
}

// Mul32 computes a * b with SSE mulss semantics.
func Mul32(a, b uint32, env Env) (uint32, Flags) {
	if env == (Env{}) && host32(a) && host32(b) {
		p := widen(a) * widen(b) // exact: 48 significant bits
		if z := math.Float32bits(float32(p)); host32(z) {
			return z, inexactIf(widen(z) != p)
		}
	}
	return mul32(a, b, env)
}

// mul32 is Mul32 in integer arithmetic.
func mul32(a, b uint32, env Env) (uint32, Flags) {
	var fl Flags
	a = daz32(a, env, &fl)
	b = daz32(b, env, &fl)
	aSig, bSig := frac32(a), frac32(b)
	aExp, bExp := exp32(a), exp32(b)
	zSign := sign32(a) != sign32(b)
	if aExp == 0xFF {
		if aSig != 0 || (bExp == 0xFF && bSig != 0) {
			return propagateNaN32(a, b, &fl), fl
		}
		if bExp|int32(bSig) == 0 {
			fl |= FlagInvalid
			return f32DefaultNaN, fl
		}
		return packInf32(zSign), fl
	}
	if bExp == 0xFF {
		if bSig != 0 {
			return propagateNaN32(a, b, &fl), fl
		}
		if aExp|int32(aSig) == 0 {
			fl |= FlagInvalid
			return f32DefaultNaN, fl
		}
		return packInf32(zSign), fl
	}
	if aExp == 0 {
		if aSig == 0 {
			return packZero32(zSign), fl
		}
		aExp, aSig = normSubnormal32(aSig)
	}
	if bExp == 0 {
		if bSig == 0 {
			return packZero32(zSign), fl
		}
		bExp, bSig = normSubnormal32(bSig)
	}
	zExp := aExp + bExp - 0x7F
	a64 := uint64(aSig|uint32(1)<<23) << 7
	b64 := uint64(bSig|uint32(1)<<23) << 8
	prod := a64 * b64 // at most 62 bits
	zSig := uint32(prod >> 32)
	if uint32(prod) != 0 {
		zSig |= 1
	}
	if int32(zSig<<1) >= 0 {
		zSig <<= 1
		zExp--
	}
	return roundPack32(zSign, zExp, zSig, env, &fl), fl
}

// Div32 computes a / b with SSE divss semantics.
func Div32(a, b uint32, env Env) (uint32, Flags) {
	if env == (Env{}) && host32(a) && host32(b) {
		x, y := widen(a), widen(b)
		if z := math.Float32bits(float32(x / y)); host32(z) {
			return z, inexactIf(widen(z)*y != x)
		}
	}
	return div32(a, b, env)
}

// div32 is Div32 in integer arithmetic.
func div32(a, b uint32, env Env) (uint32, Flags) {
	var fl Flags
	a = daz32(a, env, &fl)
	b = daz32(b, env, &fl)
	aSig, bSig := frac32(a), frac32(b)
	aExp, bExp := exp32(a), exp32(b)
	zSign := sign32(a) != sign32(b)
	if aExp == 0xFF {
		if aSig != 0 {
			return propagateNaN32(a, b, &fl), fl
		}
		if bExp == 0xFF {
			if bSig != 0 {
				return propagateNaN32(a, b, &fl), fl
			}
			fl |= FlagInvalid
			return f32DefaultNaN, fl
		}
		return packInf32(zSign), fl
	}
	if bExp == 0xFF {
		if bSig != 0 {
			return propagateNaN32(a, b, &fl), fl
		}
		return packZero32(zSign), fl
	}
	if bExp == 0 {
		if bSig == 0 {
			if aExp|int32(aSig) == 0 {
				fl |= FlagInvalid
				return f32DefaultNaN, fl
			}
			fl |= FlagDivideByZero
			return packInf32(zSign), fl
		}
		bExp, bSig = normSubnormal32(bSig)
	}
	if aExp == 0 {
		if aSig == 0 {
			return packZero32(zSign), fl
		}
		aExp, aSig = normSubnormal32(aSig)
	}
	zExp := aExp - bExp + 0x7D
	aS := uint64(aSig|uint32(1)<<23) << 7 // bit 30
	bS := uint64(bSig|uint32(1)<<23) << 8 // bit 31
	if bS <= aS+aS {
		aS >>= 1
		zExp++
	}
	// Exact quotient of (aS * 2^32) / bS lands in [2^30, 2^31).
	num := aS << 32
	q := num / bS
	rem := num % bS
	zSig := uint32(q)
	if rem != 0 {
		zSig |= 1
	}
	return roundPack32(zSign, zExp, zSig, env, &fl), fl
}

// Sqrt32 computes sqrt(a) with SSE sqrtss semantics.
func Sqrt32(a uint32, env Env) (uint32, Flags) {
	if env == (Env{}) && host32(a) {
		x := widen(a)
		if z := math.Float32bits(float32(math.Sqrt(x))); host32(z) {
			return z, inexactIf(widen(z)*widen(z) != x)
		}
	}
	return sqrt32(a, env)
}

// sqrt32 is Sqrt32 in integer arithmetic.
func sqrt32(a uint32, env Env) (uint32, Flags) {
	var fl Flags
	a = daz32(a, env, &fl)
	aSig := frac32(a)
	aExp := exp32(a)
	aSign := sign32(a)
	if aExp == 0xFF {
		if aSig != 0 {
			return propagateNaN32(a, a, &fl), fl
		}
		if !aSign {
			return a, fl
		}
		fl |= FlagInvalid
		return f32DefaultNaN, fl
	}
	if aSign {
		if aExp|int32(aSig) == 0 {
			return a, fl
		}
		fl |= FlagInvalid
		return f32DefaultNaN, fl
	}
	if aExp == 0 {
		if aSig == 0 {
			return a, fl
		}
		aExp, aSig = normSubnormal32(aSig)
	}
	e := aExp - 0x7F
	m := uint64(aSig | uint32(1)<<23)
	if e&1 != 0 {
		m <<= 1
		e--
	}
	// Radicand R = m << 37 spans [2^60, 2^62); floor(sqrt(R)) lands in
	// [2^30, 2^31), the hidden-bit position roundPack32 expects.
	r := m << 37
	q, exact := isqrt64(r)
	zSig := uint32(q)
	if !exact {
		zSig |= 1
	}
	zExp := e/2 + 0x7E
	return roundPack32(false, zExp, zSig, env, &fl), fl
}

// isqrt64 returns floor(sqrt(r)) and whether the root is exact.
func isqrt64(r uint64) (uint64, bool) {
	q, exact := isqrt128(0, r)
	return q, exact
}
