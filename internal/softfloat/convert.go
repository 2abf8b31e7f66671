package softfloat

import "math/bits"

// F64ToF32 narrows a binary64 value to binary32 (cvtsd2ss semantics).
func F64ToF32(a uint64, env Env) (uint32, Flags) {
	var fl Flags
	z := narrow(daz64(a, env), env, &fl)
	return z, denormal(fl, class64(a), env)
}

// narrow rounds a binary64 value, DAZ applied, to binary32 in one
// roundPack32.
func narrow(a uint64, env Env, fl *Flags) uint32 {
	sign := sign64(a)
	aExp := exp64(a)
	aSig := frac64(a)
	if aExp == 0x7FF {
		if aSig != 0 {
			if IsSNaN64(a) {
				*fl |= FlagInvalid
			}
			return quiet32(narrowNaN(a))
		}
		return packInf32(sign)
	}
	if aExp == 0 {
		if aSig == 0 {
			return packZero32(sign)
		}
		aExp, aSig = normSubnormal64(aSig)
	} else {
		aSig |= uint64(1) << 52
	}
	// Value = (aSig / 2^52) * 2^(aExp - 1023). Collapse the 53-bit
	// significand to the 31-bit roundPack32 form with jamming.
	sig := uint32(shiftRightJam64(aSig<<10, 32))
	return roundPack32(sign, aExp-897, sig, env, fl)
}

// narrowNaN converts a binary64 NaN pattern to binary32 preserving the
// top payload bits.
func narrowNaN(a uint64) uint32 {
	sign := uint32(a>>32) & f32SignMask
	payload := uint32(frac64(a) >> 29)
	return sign | f32ExpMask | payload
}

// F32ToF64 widens a binary32 value to binary64 (cvtss2sd semantics); the
// conversion is exact for all non-NaN inputs.
func F32ToF64(a uint32, env Env) (uint64, Flags) {
	var fl Flags
	x := daz32(a, env)
	z := widen32to64(x)
	if IsNaN32(x) {
		if IsSNaN32(x) {
			fl |= FlagInvalid
		}
		z = quiet64(z)
	}
	return z, denormal(fl, class32(a), env)
}

// widen32to64 widens a binary32 pattern to binary64 exactly. A NaN keeps
// its payload and its quiet bit, so a signaling NaN stays signaling.
func widen32to64(a uint32) uint64 {
	sign := sign32(a)
	aExp := exp32(a)
	aSig := frac32(a)
	if aExp == 0xFF {
		return uint64(a&f32SignMask)<<32 | f64ExpMask | uint64(aSig)<<29
	}
	if aExp == 0 {
		if aSig == 0 {
			return packZero64(sign)
		}
		aExp, aSig = normSubnormal32(aSig)
		aSig &^= uint32(1) << 23
	}
	return pack64(sign, aExp-127+1023, uint64(aSig)<<29)
}

// I32ToF64 converts a signed 32-bit integer to binary64 (cvtsi2sd); the
// conversion is always exact.
func I32ToF64(v int32) uint64 {
	z, _ := I64ToF64(int64(v), Env{})
	return z
}

// I64ToF64 converts a signed 64-bit integer to binary64 (cvtsi2sdq),
// rounding per env when the magnitude exceeds 53 bits.
func I64ToF64(v int64, env Env) (uint64, Flags) {
	var fl Flags
	if v == 0 {
		return 0, fl
	}
	sign := v < 0
	var m uint64
	if sign {
		m = uint64(-v) // -MinInt64 wraps to the correct magnitude
	} else {
		m = uint64(v)
	}
	lz := bits.LeadingZeros64(m)
	var sig uint64
	if lz == 0 {
		sig = shiftRightJam64(m, 1)
	} else {
		sig = m << uint(lz-1)
	}
	z := roundPack64(sign, int32(1085-lz), sig, env, &fl)
	return z, fl
}

// I32ToF32 converts a signed 32-bit integer to binary32 (cvtsi2ss).
func I32ToF32(v int32, env Env) (uint32, Flags) {
	return I64ToF32(int64(v), env)
}

// I64ToF32 converts a signed 64-bit integer to binary32 (cvtsi2ssq).
func I64ToF32(v int64, env Env) (uint32, Flags) {
	var fl Flags
	if v == 0 {
		return 0, fl
	}
	sign := v < 0
	var m uint64
	if sign {
		m = uint64(-v)
	} else {
		m = uint64(v)
	}
	lz := bits.LeadingZeros64(m)
	var fix uint64
	if lz == 0 {
		fix = shiftRightJam64(m, 1)
	} else {
		fix = m << uint(lz-1)
	}
	sig := uint32(shiftRightJam64(fix, 32))
	z := roundPack32(sign, int32(189-lz), sig, env, &fl)
	return z, fl
}

// f64ToInt converts a binary64 pattern to a 64-bit integer with the given
// rounding mode, flagging Invalid for NaN and out-of-range values. The
// bound parameter is the number of value bits of the destination (31 or
// 63).
func f64ToInt(a uint64, rm RoundingMode, bound uint, fl *Flags) int64 {
	sign := sign64(a)
	aExp := exp64(a)
	aSig := frac64(a)
	indefinite := int64(-1) << bound
	if aExp == 0x7FF {
		*fl |= FlagInvalid
		return indefinite
	}
	if aExp == 0 {
		if aSig == 0 {
			return 0
		}
		// Denormal: rounds to 0 or ±1 depending on mode; handled by the
		// generic path below via the sticky shift.
		aExp, aSig = normSubnormal64(aSig)
	}
	aSig |= uint64(1) << 52
	e := aExp - 1023
	var mag uint64
	inexact := false
	if e >= 52 {
		shift := uint(e - 52)
		if shift >= 12 {
			// Magnitude at least 2^64: always out of range.
			*fl |= FlagInvalid
			return indefinite
		}
		// aSig < 2^53 and shift <= 11, so the left shift cannot lose bits.
		mag = aSig << shift
	} else {
		// Keep 10 guard bits, jam the rest, and round.
		var fix uint64
		if e < -63 {
			fix = 1 // pure sticky
		} else {
			fix = shiftRightJam64(aSig<<10, uint(52-e))
		}
		roundBits := fix & 0x3FF
		mag = fix >> 10
		if roundBits != 0 {
			inexact = true
			var inc uint64
			switch rm {
			case RoundNearestEven:
				if roundBits > 0x200 || (roundBits == 0x200 && mag&1 != 0) {
					inc = 1
				}
			case RoundToZero:
			case RoundDown:
				if sign {
					inc = 1
				}
			case RoundUp:
				if !sign {
					inc = 1
				}
			}
			mag += inc
		}
	}
	limit := uint64(1) << bound
	if sign {
		if mag > limit {
			*fl |= FlagInvalid
			return indefinite
		}
		if inexact {
			*fl |= FlagInexact
		}
		return -int64(mag)
	}
	if mag >= limit {
		*fl |= FlagInvalid
		return indefinite
	}
	if inexact {
		*fl |= FlagInexact
	}
	return int64(mag)
}

// F64ToI32 implements cvtsd2si (rounding per env) on a binary64 pattern.
// It and the other float-to-integer conversions raise no Denormal: x64
// converts a denormal operand to 0 with Inexact alone (TestX64Vectors).
func F64ToI32(a uint64, env Env) (int32, Flags) {
	var fl Flags
	z := int32(f64ToInt(daz64(a, env), env.RM, 31, &fl))
	return z, fl
}

// F64ToI32Trunc implements cvttsd2si (truncation).
func F64ToI32Trunc(a uint64, env Env) (int32, Flags) {
	var fl Flags
	z := int32(f64ToInt(daz64(a, env), RoundToZero, 31, &fl))
	return z, fl
}

// F64ToI64 implements cvtsd2siq.
func F64ToI64(a uint64, env Env) (int64, Flags) {
	var fl Flags
	z := f64ToInt(daz64(a, env), env.RM, 63, &fl)
	return z, fl
}

// F64ToI64Trunc implements cvttsd2siq.
func F64ToI64Trunc(a uint64, env Env) (int64, Flags) {
	var fl Flags
	z := f64ToInt(daz64(a, env), RoundToZero, 63, &fl)
	return z, fl
}

// F32ToI32 implements cvtss2si. A NaN widens to a NaN, which f64ToInt
// converts to the integer indefinite with Invalid.
func F32ToI32(a uint32, env Env) (int32, Flags) {
	var fl Flags
	z := int32(f64ToInt(widen32to64(daz32(a, env)), env.RM, 31, &fl))
	return z, fl
}

// F32ToI32Trunc implements cvttss2si.
func F32ToI32Trunc(a uint32, env Env) (int32, Flags) {
	var fl Flags
	z := int32(f64ToInt(widen32to64(daz32(a, env)), RoundToZero, 31, &fl))
	return z, fl
}

// F32ToI64 implements cvtss2siq.
func F32ToI64(a uint32, env Env) (int64, Flags) {
	var fl Flags
	z := f64ToInt(widen32to64(daz32(a, env)), env.RM, 63, &fl)
	return z, fl
}

// F32ToI64Trunc implements cvttss2siq.
func F32ToI64Trunc(a uint32, env Env) (int64, Flags) {
	var fl Flags
	z := f64ToInt(widen32to64(daz32(a, env)), RoundToZero, 63, &fl)
	return z, fl
}
