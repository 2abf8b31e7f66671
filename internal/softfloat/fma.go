package softfloat

import (
	"math"
	"math/bits"
)

// FMA64 computes a*b + c with a single rounding (vfmadd213sd semantics).
// NaN propagation prefers a, then b, then c; a 0*inf product raises
// Invalid even when c is a quiet NaN, matching x64 FMA behavior.
func FMA64(a, b, c uint64, env Env) (uint64, Flags) {
	var fl Flags
	a = daz64(a, env, &fl)
	b = daz64(b, env, &fl)
	c = daz64(c, env, &fl)
	pSign := sign64(a) != sign64(b)
	zeroTimesInf := (IsZero64(a) && IsInf64(b)) || (IsInf64(a) && IsZero64(b))
	if IsNaN64(a) || IsNaN64(b) || IsNaN64(c) {
		if IsSNaN64(a) || IsSNaN64(b) || IsSNaN64(c) || zeroTimesInf {
			fl |= FlagInvalid
		}
		switch {
		case IsNaN64(a):
			return quiet64(a), fl
		case IsNaN64(b):
			return quiet64(b), fl
		default:
			return quiet64(c), fl
		}
	}
	if zeroTimesInf {
		fl |= FlagInvalid
		return f64DefaultNaN, fl
	}
	if IsInf64(a) || IsInf64(b) {
		if IsInf64(c) && sign64(c) != pSign {
			fl |= FlagInvalid
			return f64DefaultNaN, fl
		}
		return packInf64(pSign), fl
	}
	if IsInf64(c) {
		return c, fl
	}
	if IsZero64(a) || IsZero64(b) {
		// The product is an exact signed zero; only zero+zero sign rules
		// can apply.
		if IsZero64(c) {
			if sign64(c) == pSign {
				return packZero64(pSign), fl
			}
			return packZero64(env.RM == RoundDown), fl
		}
		return c, fl
	}
	aSig, aExp := frac64(a), exp64(a)
	bSig, bExp := frac64(b), exp64(b)
	if aExp == 0 {
		aExp, aSig = normSubnormal64(aSig)
	} else {
		aSig |= uint64(1) << 52
	}
	if bExp == 0 {
		bExp, bSig = normSubnormal64(bSig)
	} else {
		bSig |= uint64(1) << 52
	}
	// Product significand as a 128-bit value with its leading bit at
	// position 126 or 125; the represented value is
	// (P / 2^126) * 2^(pExp+1-bias).
	pExp := aExp + bExp - 0x3FF
	pHi, pLo := bits.Mul64(aSig<<10, bSig<<11)
	if IsZero64(c) {
		// No addend: collapse and round like Mul64.
		zSig := pHi
		if pLo != 0 {
			zSig |= 1
		}
		if int64(zSig<<1) >= 0 {
			zSig <<= 1
			pExp--
		}
		return roundPack64(pSign, pExp, zSig, env, &fl), fl
	}
	cSig, cExp := frac64(c), exp64(c)
	cSign := sign64(c)
	if cExp == 0 {
		cExp, cSig = normSubnormal64(cSig)
	} else {
		cSig |= uint64(1) << 52
	}
	// Scale c to the same 128-bit fixed-point convention: leading bit at
	// position 126 with effective exponent cExp-1.
	cHi, cLo := shl128(cSig, 74)
	cAdjExp := cExp - 1
	zExp := pExp
	expDiff := pExp - cAdjExp
	switch {
	case expDiff > 0:
		cHi, cLo = shiftRightJam128(cHi, cLo, uint(expDiff))
	case expDiff < 0:
		pHi, pLo = shiftRightJam128(pHi, pLo, uint(-expDiff))
		zExp = cAdjExp
	}
	var zSign bool
	var zHi, zLo uint64
	if pSign == cSign {
		zSign = pSign
		zHi, zLo = add128(pHi, pLo, cHi, cLo)
	} else {
		switch {
		case lt128(cHi, cLo, pHi, pLo):
			zSign = pSign
			zHi, zLo = sub128(pHi, pLo, cHi, cLo)
		case lt128(pHi, pLo, cHi, cLo):
			zSign = cSign
			zHi, zLo = sub128(cHi, cLo, pHi, pLo)
		default:
			return packZero64(env.RM == RoundDown), fl
		}
	}
	// Normalize the leading bit to position 126 (bit 62 of zHi). Sticky
	// bits introduced by alignment jamming always stay below bit 64, so
	// the final collapse preserves them.
	if zHi == 0 {
		zHi, zLo = zLo, 0
		zExp -= 64
	}
	lz := bits.LeadingZeros64(zHi)
	if lz == 0 {
		zHi, zLo = shiftRightJam128(zHi, zLo, 1)
		zExp++
	} else if lz > 1 {
		zHi, zLo = shortShiftLeft128(zHi, zLo, uint(lz-1))
		zExp -= int32(lz - 1)
	}
	zSig := zHi
	if zLo != 0 {
		zSig |= 1
	}
	return roundPack64(zSign, zExp, zSig, env, &fl), fl
}

// FMA32 computes a*b + c with a single rounding (vfmadd213ss semantics).
func FMA32(a, b, c uint32, env Env) (uint32, Flags) {
	if env == (Env{}) && host32(a) && host32(b) && host32(c) {
		// The product is exact in binary64, and float64(...) keeps the
		// compiler from fusing it into the sum (DESIGN §4.1): s is
		// RN64(p + w) with p the product twoSum is given.
		p, w := float64(widen(a)*widen(b)), widen(c)
		s := p + w
		// A binary32 midpoint may be a double rounding; any other s
		// rounds to binary32 as a*b + c does.
		if m := math.Float64bits(s); m&(1<<29-1) != 1<<28 {
			if z := math.Float32bits(float32(s)); host32(z) {
				return z, inexactIf(widen(z) != s || twoSum(p, w, s) != 0)
			}
		}
	}
	return fma32(a, b, c, env)
}

// fma32 is FMA32 in integer arithmetic.
func fma32(a, b, c uint32, env Env) (uint32, Flags) {
	var fl Flags
	a = daz32(a, env, &fl)
	b = daz32(b, env, &fl)
	c = daz32(c, env, &fl)
	pSign := sign32(a) != sign32(b)
	zeroTimesInf := (IsZero32(a) && IsInf32(b)) || (IsInf32(a) && IsZero32(b))
	if IsNaN32(a) || IsNaN32(b) || IsNaN32(c) {
		if IsSNaN32(a) || IsSNaN32(b) || IsSNaN32(c) || zeroTimesInf {
			fl |= FlagInvalid
		}
		switch {
		case IsNaN32(a):
			return quiet32(a), fl
		case IsNaN32(b):
			return quiet32(b), fl
		default:
			return quiet32(c), fl
		}
	}
	if zeroTimesInf {
		fl |= FlagInvalid
		return f32DefaultNaN, fl
	}
	if IsInf32(a) || IsInf32(b) {
		if IsInf32(c) && sign32(c) != pSign {
			fl |= FlagInvalid
			return f32DefaultNaN, fl
		}
		return packInf32(pSign), fl
	}
	if IsInf32(c) {
		return c, fl
	}
	if IsZero32(a) || IsZero32(b) {
		if IsZero32(c) {
			if sign32(c) == pSign {
				return packZero32(pSign), fl
			}
			return packZero32(env.RM == RoundDown), fl
		}
		return c, fl
	}
	aSig, aExp := frac32(a), exp32(a)
	bSig, bExp := frac32(b), exp32(b)
	if aExp == 0 {
		aExp, aSig = normSubnormal32(aSig)
	} else {
		aSig |= uint32(1) << 23
	}
	if bExp == 0 {
		bExp, bSig = normSubnormal32(bSig)
	} else {
		bSig |= uint32(1) << 23
	}
	// 64-bit fixed-point product with leading bit at position 62 or 61;
	// the represented value is (P / 2^62) * 2^(pExp+1-bias).
	pExp := aExp + bExp - 0x7F
	p := (uint64(aSig) << 7) * (uint64(bSig) << 8)
	if IsZero32(c) {
		zSig := uint32(shiftRightJam64(p, 32))
		if int32(zSig<<1) >= 0 {
			zSig <<= 1
			pExp--
		}
		return roundPack32(pSign, pExp, zSig, env, &fl), fl
	}
	cSig, cExp := frac32(c), exp32(c)
	cSign := sign32(c)
	if cExp == 0 {
		cExp, cSig = normSubnormal32(cSig)
	} else {
		cSig |= uint32(1) << 23
	}
	cFix := uint64(cSig) << 39 // leading bit at position 62
	cAdjExp := cExp - 1
	zExp := pExp
	expDiff := pExp - cAdjExp
	switch {
	case expDiff > 0:
		cFix = shiftRightJam64(cFix, uint(expDiff))
	case expDiff < 0:
		p = shiftRightJam64(p, uint(-expDiff))
		zExp = cAdjExp
	}
	var zSign bool
	var z uint64
	if pSign == cSign {
		zSign = pSign
		z = p + cFix
	} else {
		switch {
		case cFix < p:
			zSign = pSign
			z = p - cFix
		case p < cFix:
			zSign = cSign
			z = cFix - p
		default:
			return packZero32(env.RM == RoundDown), fl
		}
	}
	// Normalize the leading bit to position 62.
	lz := bits.LeadingZeros64(z)
	if lz == 0 {
		z = shiftRightJam64(z, 1)
		zExp++
	} else if lz > 1 {
		z <<= uint(lz - 1)
		zExp -= int32(lz - 1)
	}
	zSig := uint32(shiftRightJam64(z, 32))
	return roundPack32(zSign, zExp, zSig, env, &fl), fl
}
