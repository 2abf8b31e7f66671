package softfloat

import (
	"math"
	"math/bits"
)

// FMA64 computes a*b + c with a single rounding, as x64's FMA forms do
// (vfmadd213sd computes xmm2*xmm1 + xmm3). NaN propagation follows the
// expression: a, then b, then c. A 0*inf product raises Invalid unless
// c is a quiet NaN, which x64 returns with no flag.
func FMA64(a, b, c uint64, env Env) (uint64, Flags) {
	var fl Flags
	z := fmaSigs64(daz64(a, env), daz64(b, env), daz64(c, env), env, &fl)
	return z, denormal(fl, class64(a)|class64(b)|class64(c), env)
}

// fmaSigs64 computes a*b + c, DAZ applied.
func fmaSigs64(a, b, c uint64, env Env, fl *Flags) uint64 {
	if IsNaN64(a) || IsNaN64(b) || IsNaN64(c) {
		if IsSNaN64(a) || IsSNaN64(b) || IsSNaN64(c) {
			*fl |= FlagInvalid
		}
		switch {
		case IsNaN64(a):
			return quiet64(a)
		case IsNaN64(b):
			return quiet64(b)
		default:
			return quiet64(c)
		}
	}
	pSign := sign64(a) != sign64(b)
	if (IsZero64(a) && IsInf64(b)) || (IsInf64(a) && IsZero64(b)) {
		*fl |= FlagInvalid
		return f64DefaultNaN
	}
	if IsInf64(a) || IsInf64(b) {
		if IsInf64(c) && sign64(c) != pSign {
			*fl |= FlagInvalid
			return f64DefaultNaN
		}
		return packInf64(pSign)
	}
	if IsInf64(c) {
		return c
	}
	if IsZero64(a) || IsZero64(b) {
		// The product is an exact signed zero; only zero+zero sign rules
		// can apply, and FTZ flushes a denormal c, exact as it is.
		switch {
		case IsZero64(c) && sign64(c) == pSign:
			return c
		case IsZero64(c):
			return zeroSum64(env)
		case env.FTZ && IsDenormal64(c):
			*fl |= FlagUnderflow | FlagInexact
			return packZero64(sign64(c))
		}
		return c
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
		return roundPack64(pSign, pExp, zSig, env, fl)
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
			return zeroSum64(env)
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
	return roundPack64(zSign, zExp, zSig, env, fl)
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
	return via64(OpFMAdd, a, b, c, env)
}
