package shadow

import (
	"math"
	"math/big"

	"repro/internal/isa"
)

// baseWidePrec is the minimum working precision for the near-exact
// evaluation that local error is measured against. 256 ≥ 2·53+2, so the
// double rounding of wide-then-float64 is innocuous (Figueroa's
// theorem) and the prec-53 shadow path reproduces binary64 bit-exactly;
// the same margin holds for float32 at prec 24.
const baseWidePrec = 256

// widePrec returns the working precision for a shadow precision of prec
// bits: wide enough that rounding the wide result down to prec is
// equivalent to a single correctly rounded operation at prec. The 3p
// margin covers the worst case, the FMA tail addition, whose left
// operand (the exact product) carries up to 2·prec+2 significant bits.
func widePrec(prec uint) uint {
	if w := 3*prec + 8; w > baseWidePrec {
		return w
	}
	return baseWidePrec
}

// evalArith evaluates a scalar arithmetic op over big.Float operands at
// the given precision. ok=false means the op has no finite shadow
// semantics for these operands (0/0, sqrt of a negative, or a stray
// non-finite operand); callers invalidate the destination lane instead.
//
// Min and Max reproduce the SSE forwarding rule the softfloat FPU
// implements: the second operand wins unless the first is strictly
// ordered before (after) it — which covers the equal-magnitude and
// min(+0,−0) cases, since big.Float Cmp treats the zeros as equal.
func evalArith(fp isa.FPOp, a, b *big.Float, prec uint) (*big.Float, bool) {
	if a.IsInf() || b.IsInf() {
		return nil, false
	}
	z := new(big.Float).SetPrec(prec)
	switch fp {
	case isa.FPAdd:
		z.Add(a, b)
	case isa.FPSub:
		z.Sub(a, b)
	case isa.FPMul:
		z.Mul(a, b)
	case isa.FPDiv:
		if b.Sign() == 0 {
			// x/0 is ±Inf (comparable, handled by the caller's finite
			// check); 0/0 is NaN, which big.Float cannot represent.
			if a.Sign() == 0 {
				return nil, false
			}
		}
		z.Quo(a, b)
	case isa.FPSqrt:
		if a.Signbit() && a.Sign() != 0 {
			return nil, false
		}
		z.Sqrt(a)
	case isa.FPMin:
		if a.Cmp(b) < 0 {
			z.Set(a)
		} else {
			z.Set(b)
		}
	case isa.FPMax:
		if a.Cmp(b) > 0 {
			z.Set(a)
		} else {
			z.Set(b)
		}
	default:
		return nil, false
	}
	return z, true
}

// evalFMA evaluates a fused multiply-add variant with a single rounding
// at prec: the product is formed exactly (the scratch precision covers
// the full double-width product of prec-bit operands), then the addend
// is applied with a round-to-odd tail addition. Round-to-nearest here
// would be the classic double-rounding trap: a tiny addend whose only
// job is to break a tie at the product gets absorbed by the
// intermediate rounding, and the final rounding then resolves the tie
// the wrong way. Round-to-odd keeps that sticky information — the odd
// result is never a rounding boundary of any format ≥ 2 bits narrower,
// so the downstream nearest-rounding lands exactly where the infinitely
// precise sum would.
func evalFMA(v isa.FMAVariant, a, b, c *big.Float, prec uint) (*big.Float, bool) {
	if a.IsInf() || b.IsInf() || c.IsInf() {
		return nil, false
	}
	pp := a.Prec() + b.Prec() + 2
	if pp < prec {
		pp = prec
	}
	p := new(big.Float).SetPrec(pp).Mul(a, b)
	if v.NegProduct() {
		p.Neg(p)
	}
	z := new(big.Float).SetPrec(prec).SetMode(big.ToZero)
	if v.NegAddend() {
		z.Sub(p, c)
	} else {
		z.Add(p, c)
	}
	if z.Acc() != big.Exact && z.MinPrec() < prec {
		// Truncated with a last bit of 0: force it odd. The one-ulp
		// nudge toward the discarded tail is exact at prec bits.
		u := new(big.Float).SetMantExp(big.NewFloat(1), z.MantExp(nil)-int(prec))
		if z.Signbit() {
			u.Neg(u)
		}
		z.SetMode(big.ToNearestEven).Add(z, u)
	}
	z.SetMode(big.ToNearestEven)
	return z, true
}

// roundShadow64 rounds a wide result into the shadow number system for
// a binary64-format op: exact binary64 semantics (bounded exponent,
// gradual underflow, overflow to Inf) at prec 53, round-to-nearest at
// prec bits with an unbounded exponent otherwise.
func roundShadow64(r *big.Float, prec uint) *big.Float {
	if prec == 53 {
		f, _ := r.Float64()
		return new(big.Float).SetFloat64(f)
	}
	return new(big.Float).SetPrec(prec).Set(r)
}

// roundShadow32 is roundShadow64 for binary32-format ops: exact
// binary32 semantics at prec 24.
func roundShadow32(r *big.Float, prec uint) *big.Float {
	if prec == 24 {
		f, _ := r.Float32()
		return new(big.Float).SetFloat64(float64(f))
	}
	return new(big.Float).SetPrec(prec).Set(r)
}

// nativeBits64 rounds a shadow value to binary64 bits for the integer
// ULP comparison against the hardware result.
func nativeBits64(v *big.Float) uint64 {
	f, _ := v.Float64()
	return math.Float64bits(f)
}

func nativeBits32(v *big.Float) uint32 {
	f, _ := v.Float32()
	return math.Float32bits(f)
}

func bigOf64(bits uint64) *big.Float {
	return new(big.Float).SetFloat64(math.Float64frombits(bits))
}

func bigOf32(bits uint32) *big.Float {
	return new(big.Float).SetFloat64(float64(math.Float32frombits(bits)))
}
