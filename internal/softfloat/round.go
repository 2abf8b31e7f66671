package softfloat

// RoundToInt64 implements the roundsd round-to-integral operation: the
// result is the floating point value of a rounded to an integer with the
// given mode. Inexact is raised when the value changed unless
// suppressInexact is set (the imm8 precision-suppress bit). roundsd
// never raises Denormal.
func RoundToInt64(a uint64, rm RoundingMode, suppressInexact bool, env Env) (uint64, Flags) {
	var fl Flags
	a = daz64(a, env)
	sign := sign64(a)
	aExp := exp64(a)
	if aExp == 0x7FF {
		if frac64(a) != 0 {
			if IsSNaN64(a) {
				fl |= FlagInvalid
			}
			return quiet64(a), fl
		}
		return a, fl
	}
	e := aExp - 1023
	if e >= 52 {
		return a, fl // already integral
	}
	var z uint64
	if e < 0 {
		// Magnitude below 1: result is a signed zero or ±1.
		if IsZero64(a) {
			return a, fl
		}
		half := e == -1
		switch rm {
		case RoundNearestEven:
			if half && frac64(a) != 0 {
				z = pack64(sign, 1023, 0) // above 0.5 rounds to 1
			} else {
				z = packZero64(sign) // at or below 0.5 ties to even 0
			}
		case RoundDown:
			if sign {
				z = pack64(true, 1023, 0)
			} else {
				z = packZero64(false)
			}
		case RoundUp:
			if sign {
				z = packZero64(true)
			} else {
				z = pack64(false, 1023, 0)
			}
		case RoundToZero:
			z = packZero64(sign)
		}
	} else {
		mask := (uint64(1) << uint(52-e)) - 1
		if a&mask == 0 {
			return a, fl
		}
		z = a &^ mask
		switch rm {
		case RoundNearestEven:
			rem := a & mask
			halfBit := uint64(1) << uint(52-e-1)
			if rem > halfBit || (rem == halfBit && z&(mask+1) != 0) {
				z += mask + 1
			}
		case RoundDown:
			if sign {
				z += mask + 1
			}
		case RoundUp:
			if !sign {
				z += mask + 1
			}
		case RoundToZero:
		}
	}
	if z != a && !suppressInexact {
		fl |= FlagInexact
	}
	return z, fl
}

// RoundToInt32 implements roundss through RoundToInt64: a binary32
// number rounded to an integral value is a binary32 number, so the
// result narrows exactly.
func RoundToInt32(a uint32, rm RoundingMode, suppressInexact bool, env Env) (uint32, Flags) {
	z, fl := RoundToInt64(widen32to64(daz32(a, env)), rm, suppressInexact, Env{})
	r := narrow(z, Env{}, &fl)
	return r, fl
}
