package softfloat

import (
	"math"
	"math/bits"
)

// frac64 extracts the 52-bit fraction field.
func frac64(x uint64) uint64 { return x & f64FracMask }

// exp64 extracts the 11-bit biased exponent field.
func exp64(x uint64) int32 { return int32((x >> 52) & 0x7FF) }

// sign64 extracts the sign bit.
func sign64(x uint64) bool { return x>>63 != 0 }

// pack64 assembles a binary64 value. sig may include the hidden bit at
// position 52, in which case it carries into the exponent field; this is
// relied upon throughout the rounding paths.
func pack64(sign bool, exp int32, sig uint64) uint64 {
	s := uint64(0)
	if sign {
		s = f64SignMask
	}
	return s + uint64(exp)<<52 + sig
}

// packZero64 returns a signed zero.
func packZero64(sign bool) uint64 {
	if sign {
		return f64SignMask
	}
	return 0
}

// packInf64 returns a signed infinity.
func packInf64(sign bool) uint64 {
	if sign {
		return f64SignMask | f64PosInf
	}
	return f64PosInf
}

// normSubnormal64 normalizes a denormal fraction, returning the exponent
// and significand with the leading bit at position 52.
func normSubnormal64(frac uint64) (exp int32, sig uint64) {
	shift := int32(bits.LeadingZeros64(frac)) - 11
	return 1 - shift, frac << uint(shift)
}

// roundPack64 rounds and packs a binary64 result. sig holds the
// significand with its leading (hidden) bit at position 62 and ten
// guard/sticky bits in positions 9..0; the represented value is
// (sig / 2^62) * 2^(exp+1-bias). Overflow, underflow (tininess after
// rounding, masked semantics), inexactness and FTZ flushing are detected
// here. A mode with roundOdd truncates and then sets the last bit if
// the result is inexact.
func roundPack64(sign bool, exp int32, sig uint64, env Env, fl *Flags) uint64 {
	var inc uint64 // RZ and the round-to-odd modes truncate
	switch env.RM {
	case RoundNearestEven:
		inc = 0x200
	case RoundDown:
		if sign {
			inc = 0x3FF
		}
	case RoundUp:
		if !sign {
			inc = 0x3FF
		}
	}
	roundBits := sig & 0x3FF
	if exp >= 0x7FD {
		if exp > 0x7FD || (exp == 0x7FD && int64(sig+inc) < 0) {
			*fl |= FlagOverflow | FlagInexact
			if inc == 0 {
				return pack64(sign, 0x7FE, f64FracMask)
			}
			return packInf64(sign)
		}
	}
	if exp < 0 {
		isTiny := exp < -1 || sig+inc < f64SignMask
		if env.FTZ && isTiny {
			// Flush-to-zero: tiny results become signed zero with
			// underflow and inexact raised, matching masked-FTZ SSE.
			*fl |= FlagUnderflow | FlagInexact
			return packZero64(sign)
		}
		sig = shiftRightJam64(sig, uint(-exp))
		exp = 0
		roundBits = sig & 0x3FF
		if isTiny && roundBits != 0 {
			*fl |= FlagUnderflow
		}
	}
	if roundBits != 0 {
		*fl |= FlagInexact
	}
	sig = (sig + inc) >> 10
	if roundBits != 0 && env.RM&roundOdd != 0 {
		sig |= 1
	}
	if roundBits == 0x200 && env.RM == RoundNearestEven {
		sig &^= 1
	}
	if sig == 0 {
		exp = 0
	}
	return pack64(sign, exp, sig)
}

// normRoundPack64 left-normalizes sig (leading bit anywhere) to position
// 62 and then rounds and packs.
func normRoundPack64(sign bool, exp int32, sig uint64, env Env, fl *Flags) uint64 {
	shift := int32(bits.LeadingZeros64(sig)) - 1
	return roundPack64(sign, exp-shift, sig<<uint(shift), env, fl)
}

// daz64 applies denormals-are-zero to an operand: under DAZ a denormal
// becomes a zero of its sign. Whether a denormal operand raises DE is
// decided by denormal, once the op's other flags are known.
func daz64(x uint64, env Env) uint64 {
	if env.DAZ && IsDenormal64(x) {
		return x & f64SignMask
	}
	return x
}

// zeroSum64 is the exact zero sum of two opposite-signed values, negative
// only under RD.
func zeroSum64(env Env) uint64 { return packZero64(env.RM&^roundOdd == RoundDown) }

// addSigs64 adds the magnitudes of a and b (same effective sign zSign).
func addSigs64(a, b uint64, zSign bool, env Env, fl *Flags) uint64 {
	aSig, bSig := frac64(a), frac64(b)
	aExp, bExp := exp64(a), exp64(b)
	expDiff := aExp - bExp
	aSig <<= 9
	bSig <<= 9
	var zExp int32
	var zSig uint64
	switch {
	case expDiff > 0:
		if aExp == 0x7FF {
			if aSig != 0 {
				return propagateNaN64(a, b, fl)
			}
			return a
		}
		if bExp == 0 {
			expDiff--
		} else {
			bSig |= uint64(1) << 61
		}
		bSig = shiftRightJam64(bSig, uint(expDiff))
		zExp = aExp
	case expDiff < 0:
		if bExp == 0x7FF {
			if bSig != 0 {
				return propagateNaN64(a, b, fl)
			}
			return packInf64(zSign)
		}
		if aExp == 0 {
			expDiff++
		} else {
			aSig |= uint64(1) << 61
		}
		aSig = shiftRightJam64(aSig, uint(-expDiff))
		zExp = bExp
	default:
		if aExp == 0x7FF {
			if aSig|bSig != 0 {
				return propagateNaN64(a, b, fl)
			}
			return a
		}
		if aExp == 0 {
			// Both denormal (or zero): the sum cannot round and may
			// carry naturally into the smallest normal exponent. FTZ
			// flushes it when it stays denormal, exact or not.
			z := pack64(zSign, 0, (aSig+bSig)>>9)
			if env.FTZ && IsDenormal64(z) {
				*fl |= FlagUnderflow | FlagInexact
				return packZero64(zSign)
			}
			return z
		}
		zSig = uint64(1)<<62 + aSig + bSig
		return roundPack64(zSign, aExp, zSig, env, fl)
	}
	aSig |= uint64(1) << 61
	zSig = (aSig + bSig) << 1
	zExp--
	if int64(zSig) < 0 {
		zSig = aSig + bSig
		zExp++
	}
	return roundPack64(zSign, zExp, zSig, env, fl)
}

// subSigs64 subtracts the magnitude of b from a (result sign zSign when
// |a| > |b|, flipped when |b| > |a|).
func subSigs64(a, b uint64, zSign bool, env Env, fl *Flags) uint64 {
	aSig, bSig := frac64(a), frac64(b)
	aExp, bExp := exp64(a), exp64(b)
	expDiff := aExp - bExp
	aSig <<= 10
	bSig <<= 10
	var zExp int32
	var zSig uint64
	switch {
	case expDiff > 0:
		if aExp == 0x7FF {
			if aSig != 0 {
				return propagateNaN64(a, b, fl)
			}
			return a
		}
		if bExp == 0 {
			expDiff--
		} else {
			bSig |= uint64(1) << 62
		}
		bSig = shiftRightJam64(bSig, uint(expDiff))
		aSig |= uint64(1) << 62
		zSig = aSig - bSig
		zExp = aExp
	case expDiff < 0:
		if bExp == 0x7FF {
			if bSig != 0 {
				return propagateNaN64(a, b, fl)
			}
			return packInf64(!zSign)
		}
		if aExp == 0 {
			expDiff++
		} else {
			aSig |= uint64(1) << 62
		}
		aSig = shiftRightJam64(aSig, uint(-expDiff))
		bSig |= uint64(1) << 62
		zSig = bSig - aSig
		zExp = bExp
		zSign = !zSign
	default:
		if aExp == 0x7FF {
			if aSig|bSig != 0 {
				return propagateNaN64(a, b, fl)
			}
			// inf - inf
			*fl |= FlagInvalid
			return f64DefaultNaN
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
			return zeroSum64(env)
		}
	}
	return normRoundPack64(zSign, zExp-1, zSig, env, fl)
}

// Add64 computes a + b on binary64 bit patterns with SSE addsd semantics,
// returning the result pattern and raised flags.
func Add64(a, b uint64, env Env) (uint64, Flags) {
	if env == (Env{}) && host64(a) && host64(b) {
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		if s := x + y; host64(math.Float64bits(s)) {
			return math.Float64bits(s), inexactIf(twoSum(x, y, s) != 0)
		}
	}
	return add64(a, b, env)
}

// add64 is Add64 in integer arithmetic.
func add64(a, b uint64, env Env) (uint64, Flags) {
	var fl Flags
	x, y := daz64(a, env), daz64(b, env)
	var z uint64
	if sign64(x) == sign64(y) {
		z = addSigs64(x, y, sign64(x), env, &fl)
	} else {
		z = subSigs64(x, y, sign64(x), env, &fl)
	}
	return z, denormal(fl, class64(a)|class64(b), env)
}

// Sub64 computes a - b with SSE subsd semantics.
func Sub64(a, b uint64, env Env) (uint64, Flags) {
	if env == (Env{}) && host64(a) && host64(b) {
		x, y := math.Float64frombits(a), -math.Float64frombits(b)
		if s := x + y; host64(math.Float64bits(s)) {
			return math.Float64bits(s), inexactIf(twoSum(x, y, s) != 0)
		}
	}
	return sub64(a, b, env)
}

// sub64 is Sub64 in integer arithmetic.
func sub64(a, b uint64, env Env) (uint64, Flags) {
	var fl Flags
	x, y := daz64(a, env), daz64(b, env)
	var z uint64
	if sign64(x) == sign64(y) {
		z = subSigs64(x, y, sign64(x), env, &fl)
	} else {
		z = addSigs64(x, y, sign64(x), env, &fl)
	}
	return z, denormal(fl, class64(a)|class64(b), env)
}

// Mul64 computes a * b with SSE mulsd semantics.
func Mul64(a, b uint64, env Env) (uint64, Flags) {
	if env == (Env{}) && host64(a) && host64(b) {
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		if p := x * y; host64(math.Float64bits(p)) {
			return math.Float64bits(p), inexactIf(math.FMA(x, y, -p) != 0)
		}
	}
	return mul64(a, b, env)
}

// mul64 is Mul64 in integer arithmetic.
func mul64(a, b uint64, env Env) (uint64, Flags) {
	var fl Flags
	z := mulSigs64(daz64(a, env), daz64(b, env), env, &fl)
	return z, denormal(fl, class64(a)|class64(b), env)
}

// mulSigs64 multiplies a and b, DAZ applied.
func mulSigs64(a, b uint64, env Env, fl *Flags) uint64 {
	aSig, bSig := frac64(a), frac64(b)
	aExp, bExp := exp64(a), exp64(b)
	zSign := sign64(a) != sign64(b)
	if aExp == 0x7FF {
		if aSig != 0 || (bExp == 0x7FF && bSig != 0) {
			return propagateNaN64(a, b, fl)
		}
		if bExp == 0 && bSig == 0 {
			*fl |= FlagInvalid
			return f64DefaultNaN
		}
		return packInf64(zSign)
	}
	if bExp == 0x7FF {
		if bSig != 0 {
			return propagateNaN64(a, b, fl)
		}
		if aExp == 0 && aSig == 0 {
			*fl |= FlagInvalid
			return f64DefaultNaN
		}
		return packInf64(zSign)
	}
	if aExp == 0 {
		if aSig == 0 {
			return packZero64(zSign)
		}
		aExp, aSig = normSubnormal64(aSig)
	}
	if bExp == 0 {
		if bSig == 0 {
			return packZero64(zSign)
		}
		bExp, bSig = normSubnormal64(bSig)
	}
	zExp := aExp + bExp - 0x3FF
	aSig = (aSig | uint64(1)<<52) << 10
	bSig = (bSig | uint64(1)<<52) << 11
	zSig, zSigLo := bits.Mul64(aSig, bSig)
	if zSigLo != 0 {
		zSig |= 1
	}
	if int64(zSig<<1) >= 0 {
		zSig <<= 1
		zExp--
	}
	return roundPack64(zSign, zExp, zSig, env, fl)
}

// Div64 computes a / b with SSE divsd semantics.
func Div64(a, b uint64, env Env) (uint64, Flags) {
	if env == (Env{}) && host64(a) && host64(b) {
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		if q := x / y; host64(math.Float64bits(q)) {
			return math.Float64bits(q), inexactIf(math.FMA(q, y, -x) != 0)
		}
	}
	return div64(a, b, env)
}

// div64 is Div64 in integer arithmetic.
func div64(a, b uint64, env Env) (uint64, Flags) {
	var fl Flags
	z := divSigs64(daz64(a, env), daz64(b, env), env, &fl)
	return z, denormal(fl, class64(a)|class64(b), env)
}

// divSigs64 divides a by b, DAZ applied.
func divSigs64(a, b uint64, env Env, fl *Flags) uint64 {
	aSig, bSig := frac64(a), frac64(b)
	aExp, bExp := exp64(a), exp64(b)
	zSign := sign64(a) != sign64(b)
	if aExp == 0x7FF {
		if aSig != 0 {
			return propagateNaN64(a, b, fl)
		}
		if bExp == 0x7FF {
			if bSig != 0 {
				return propagateNaN64(a, b, fl)
			}
			*fl |= FlagInvalid // inf / inf
			return f64DefaultNaN
		}
		return packInf64(zSign)
	}
	if bExp == 0x7FF {
		if bSig != 0 {
			return propagateNaN64(a, b, fl)
		}
		return packZero64(zSign)
	}
	if bExp == 0 {
		if bSig == 0 {
			if aExp == 0 && aSig == 0 {
				*fl |= FlagInvalid // 0 / 0
				return f64DefaultNaN
			}
			*fl |= FlagDivideByZero
			return packInf64(zSign)
		}
		bExp, bSig = normSubnormal64(bSig)
	}
	if aExp == 0 {
		if aSig == 0 {
			return packZero64(zSign)
		}
		aExp, aSig = normSubnormal64(aSig)
	}
	zExp := aExp - bExp + 0x3FD
	aSig = (aSig | uint64(1)<<52) << 10
	bSig = (bSig | uint64(1)<<52) << 11
	if bSig <= aSig+aSig {
		aSig >>= 1
		zExp++
	}
	// aSig < bSig here, so the 128-by-64 division is well defined and
	// yields the exact floor quotient of (aSig * 2^64) / bSig, which lands
	// in [2^62, 2^63) — the hidden-bit position roundPack64 expects.
	zSig, rem := bits.Div64(aSig, 0, bSig)
	if rem != 0 {
		zSig |= 1
	}
	return roundPack64(zSign, zExp, zSig, env, fl)
}

// Sqrt64 computes sqrt(a) with SSE sqrtsd semantics.
func Sqrt64(a uint64, env Env) (uint64, Flags) {
	if env == (Env{}) && host64(a) {
		x := math.Float64frombits(a)
		if s := math.Sqrt(x); host64(math.Float64bits(s)) {
			return math.Float64bits(s), inexactIf(math.FMA(s, s, -x) != 0)
		}
	}
	return sqrt64(a, env)
}

// sqrt64 is Sqrt64 in integer arithmetic.
func sqrt64(a uint64, env Env) (uint64, Flags) {
	var fl Flags
	z := sqrtSig64(daz64(a, env), env, &fl)
	return z, denormal(fl, class64(a), env)
}

// sqrtSig64 takes the square root of a, DAZ applied.
func sqrtSig64(a uint64, env Env, fl *Flags) uint64 {
	aSig := frac64(a)
	aExp := exp64(a)
	aSign := sign64(a)
	if aExp == 0x7FF {
		if aSig != 0 {
			return propagateNaN64(a, a, fl)
		}
		if !aSign {
			return a // +inf
		}
		*fl |= FlagInvalid
		return f64DefaultNaN
	}
	if aSign {
		if aExp == 0 && aSig == 0 {
			return a // -0
		}
		*fl |= FlagInvalid
		return f64DefaultNaN
	}
	if aExp == 0 {
		if aSig == 0 {
			return a // +0
		}
		aExp, aSig = normSubnormal64(aSig)
	}
	// Scale so the radicand R = m << 72 spans [2^124, 2^126) with an even
	// shift of the exponent, giving floor(sqrt(R)) in [2^62, 2^63).
	e := aExp - 0x3FF
	m := aSig | uint64(1)<<52
	if e&1 != 0 {
		m <<= 1
		e--
	}
	rHi, rLo := shl128(m, 72)
	q, exact := isqrt128(rHi, rLo)
	if !exact {
		q |= 1
	}
	zExp := e/2 + 0x3FE
	return roundPack64(false, zExp, q, env, fl)
}

// shl128 shifts a 64-bit value left by count (0..127) into a 128-bit value.
func shl128(v uint64, count uint) (hi, lo uint64) {
	if count >= 64 {
		return v << (count - 64), 0
	}
	if count == 0 {
		return 0, v
	}
	return v >> (64 - count), v << count
}

// isqrt128 returns floor(sqrt(hi:lo)) and whether the root is exact. The
// radicand must be below 2^126 so the root fits in 63 bits.
func isqrt128(hi, lo uint64) (root uint64, exact bool) {
	// Seed with a hardware estimate, refine with one exact integer Newton
	// step, then settle the last ULP with exact integer arithmetic. The
	// float64 seed carries ~2^-52 relative error — up to ~2^11 absolute
	// for a 63-bit root — so stepping by ±1 from the raw seed can walk
	// thousands of iterations; the Newton step collapses that to at most
	// a couple.
	approx := math.Sqrt(float64(hi)*0x1p64 + float64(lo))
	q := uint64(approx)
	// Guard against NaN/overflow artifacts of the seed, and establish
	// bits.Div64's hi < divisor precondition (for radicands in the sqrt
	// paths' normalized ranges the seed already satisfies it: the true
	// root exceeds hi whenever hi < 2^62).
	if q <= hi {
		q = hi + 1
	}
	// Newton: q <- floor((q + floor(R/q)) / 2), with an overflow-free
	// average since q and the quotient may straddle 2^63.
	quo, _ := bits.Div64(hi, lo, q)
	q = q/2 + quo/2 + q&quo&1
	for {
		sqHi, sqLo := bits.Mul64(q, q)
		if lt128(hi, lo, sqHi, sqLo) {
			q--
			continue
		}
		// q^2 <= R; check (q+1)^2 > R.
		q1 := q + 1
		sq1Hi, sq1Lo := bits.Mul64(q1, q1)
		if !lt128(hi, lo, sq1Hi, sq1Lo) {
			q = q1
			continue
		}
		return q, sqHi == hi && sqLo == lo
	}
}
