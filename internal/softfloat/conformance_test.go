package softfloat

// Differential conformance suite: binary64 add/sub/mul/div/sqrt are
// compared against Go's native hardware floats, which on every supported
// Go platform are IEEE 754 binary64 with round-to-nearest-even. The
// hardware provides the value oracle; the flag oracle is reconstructed
// from operand classification (invalid combinations, divide-by-zero,
// denormal operands) plus an exactness test against an arbitrary-
// precision shadow computation, with tininess detected after rounding
// exactly as the SSE units do.
//
// Each operation is checked twice, through the exported op (whose host
// path takes most normal operands) and through its integer code, so the
// suite pins both.
//
// Result bits must match the hardware exactly for every non-NaN result.
// NaN results are compared by class only (both NaN, and the soft result
// quiet), because NaN payload propagation is architecture-specific and
// the engine pins the x64 SSE rule regardless of the host.
//
// Three corpora drive the comparison: a cross product of boundary
// patterns (zeros, subnormal extremes, normal extremes, infinities,
// quiet and signaling NaNs), directed bit patterns walking ulp
// neighborhoods around every boundary, and seeded random patterns in
// three shapes (raw 64-bit, exponent-shaped finite, and near-total
// cancellation pairs).

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

const (
	cfMinNormal = uint64(0x0010000000000000)
	// addPrec holds an exact binary64 sum or product: significands are 53
	// bits and exponents span [-1074, 1023], so 2200 bits always suffice.
	addPrec = 2200
	// quoPrec is used only to classify tininess of a quotient. 4600 bits
	// separate any nonzero |a - q*b| from zero (see tinyQuotient).
	quoPrec = 4600
)

var cfBigMinNormal = new(big.Float).SetFloat64(math.Float64frombits(cfMinNormal))

// cfBoundary is the boundary corpus: every special value class of
// binary64, both signs where the sign matters.
var cfBoundary = []uint64{
	0x0000000000000000, // +0
	0x8000000000000000, // -0
	0x0000000000000001, // smallest subnormal
	0x8000000000000001,
	0x0000000000000100, // mid subnormal
	0x000FFFFFFFFFFFFF, // largest subnormal
	0x800FFFFFFFFFFFFF,
	0x0010000000000000, // smallest normal
	0x8010000000000000,
	0x0010000000000001,
	0x001FFFFFFFFFFFFF,
	0x0020000000000000,
	0x3CA0000000000000, // 2^-53
	0x3CB0000000000000, // 2^-52
	0x3FE0000000000000, // 0.5
	0x3FF0000000000000, // 1.0
	0xBFF0000000000000,
	0x3FF0000000000001, // 1 + ulp
	0x4000000000000000, // 2.0
	0x4008000000000000, // 3.0
	0x4330000000000001, // 2^52 + 1
	0x4340000000000000, // 2^53
	0x1FF0000000000000, // 2^-512
	0x5FF0000000000000, // 2^512
	0x7FE0000000000000, // 2^1023
	0x7FEFFFFFFFFFFFFF, // largest finite
	0xFFEFFFFFFFFFFFFF,
	0x7FF0000000000000, // +inf
	0xFFF0000000000000, // -inf
	0x7FF8000000000000, // quiet NaN
	0xFFF8000000000000, // x64 default NaN
	0x7FF8000000000001, // quiet NaN with payload
	0x7FF0000000000001, // signaling NaN
	0xFFF0000000000FFF, // -signaling NaN with payload
}

// cfDirected expands the boundary corpus with ulp-step neighbors, so the
// suite walks across every exponent and classification boundary (a step
// off the largest finite lands on infinity, a step off the smallest
// normal lands on the largest subnormal, and so on).
func cfDirected() []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	add := func(x uint64) {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	for _, p := range cfBoundary {
		add(p)
		for d := uint64(1); d <= 2; d++ {
			add(p + d)
			add(p - d)
		}
	}
	return out
}

type cfBinKind int

const (
	cfAdd cfBinKind = iota
	cfSub
	cfMul
	cfDiv
)

// cfBinOp is one operation under test: the exported op, whose host path
// takes most normal inputs, and its integer code, checked alike.
type cfBinOp struct {
	name          string
	kind          cfBinKind
	soft, integer func(a, b uint64, env Env) (uint64, Flags)
	hard          func(x, y float64) float64
}

var cfBinOps = []cfBinOp{
	{"Add64", cfAdd, Add64, add64, func(x, y float64) float64 { return x + y }},
	{"Sub64", cfSub, Sub64, sub64, func(x, y float64) float64 { return x - y }},
	{"Mul64", cfMul, Mul64, mul64, func(x, y float64) float64 { return x * y }},
	{"Div64", cfDiv, Div64, div64, func(x, y float64) float64 { return x / y }},
}

func cfBig(x uint64) *big.Float {
	return new(big.Float).SetPrec(addPrec).SetFloat64(math.Float64frombits(x))
}

// tinyExact reports tininess after rounding: the exact result, rounded
// to 53 bits as though the exponent range were unbounded, is strictly
// below the smallest normal in magnitude.
func tinyExact(exact *big.Float) bool {
	r := new(big.Float).SetPrec(53).Set(exact)
	return r.Abs(r).Cmp(cfBigMinNormal) < 0
}

// cfInvalidCombo reports whether finite-or-infinite operands a and b form
// an invalid combination for the operation (inf-inf, 0*inf, 0/0, inf/inf).
func cfInvalidCombo(kind cfBinKind, a, b uint64) bool {
	switch kind {
	case cfAdd:
		return IsInf64(a) && IsInf64(b) && sign64(a) != sign64(b)
	case cfSub:
		return IsInf64(a) && IsInf64(b) && sign64(a) == sign64(b)
	case cfMul:
		return (IsInf64(a) && IsZero64(b)) || (IsZero64(a) && IsInf64(b))
	case cfDiv:
		return (IsInf64(a) && IsInf64(b)) || (IsZero64(a) && IsZero64(b))
	}
	return false
}

// cfExpectBinFlags reconstructs the flag set the SSE semantics require
// for op(a, b) producing the hardware result hw, under RN with FTZ and
// DAZ off. x64's exception priority ranks a NaN operand, Invalid and
// DivideByZero above a denormal operand, so DE is expected only once
// those have been ruled out.
func cfExpectBinFlags(kind cfBinKind, a, b, hw uint64) Flags {
	var want Flags
	if IsNaN64(a) || IsNaN64(b) {
		if IsSNaN64(a) || IsSNaN64(b) {
			want |= FlagInvalid
		}
		return want
	}
	if cfInvalidCombo(kind, a, b) {
		return want | FlagInvalid
	}
	if kind == cfDiv && IsZero64(b) {
		if !IsInf64(a) {
			want |= FlagDivideByZero
		}
		return want
	}
	if IsDenormal64(a) || IsDenormal64(b) {
		want |= FlagDenormal
	}
	if IsInf64(a) || IsInf64(b) {
		return want // exact infinity or zero: no rounding took place
	}

	// Both operands finite (and for division b is nonzero): decide
	// inexact with an exact shadow computation, overflow from the
	// hardware result, underflow from tininess after rounding.
	inexact, tiny := false, false
	switch kind {
	case cfAdd, cfSub, cfMul:
		exact := new(big.Float).SetPrec(addPrec)
		switch kind {
		case cfAdd:
			exact.Add(cfBig(a), cfBig(b))
		case cfSub:
			exact.Sub(cfBig(a), cfBig(b))
		case cfMul:
			exact.Mul(cfBig(a), cfBig(b))
		}
		inexact = exact.Cmp(cfBig(hw)) != 0
		if inexact && hw&^f64SignMask <= cfMinNormal {
			tiny = tinyExact(exact)
		}
	case cfDiv:
		// a/b is exact iff hw*b == a exactly; the product needs only 106
		// bits, so no high-precision quotient is required to test it.
		prod := new(big.Float).SetPrec(addPrec).Mul(cfBig(hw), cfBig(b))
		inexact = prod.Cmp(cfBig(a)) != 0
		if inexact && hw&^f64SignMask <= cfMinNormal {
			tiny = tinyQuotient(a, b)
		}
	}
	if inexact {
		want |= FlagInexact
		if IsInf64(hw) {
			want |= FlagOverflow
		}
		if tiny {
			want |= FlagUnderflow
		}
	}
	return want
}

// tinyQuotient reports tininess after rounding for a/b. The quotient is
// approximated to quoPrec bits; a nonzero |a - q*b| for any 53-bit q is
// bounded below by ~2^-2200 relative to the quotient, so the
// approximation rounds to 53 bits exactly as the true quotient does.
func tinyQuotient(a, b uint64) bool {
	q := new(big.Float).SetPrec(quoPrec).Quo(cfBig(a), cfBig(b))
	return tinyExact(q)
}

// cfCheckBin runs one (op, a, b) case on both paths: hardware value
// oracle plus the reconstructed flag oracle.
func cfCheckBin(t *testing.T, op cfBinOp, a, b uint64) {
	t.Helper()
	hw := math.Float64bits(op.hard(math.Float64frombits(a), math.Float64frombits(b)))
	want := cfExpectBinFlags(op.kind, a, b, hw)
	for _, path := range both(op.name, op.soft, op.integer) {
		got, fl := path.op(a, b, Env{})
		if IsNaN64(hw) {
			if !IsNaN64(got) {
				t.Fatalf("%s(%#016x, %#016x) = %#016x, hardware produced a NaN", path.name, a, b, got)
			}
			if IsSNaN64(got) {
				t.Fatalf("%s(%#016x, %#016x) = %#016x: signaling NaN result", path.name, a, b, got)
			}
		} else if got != hw {
			t.Fatalf("%s(%#016x, %#016x) = %#016x, hardware %#016x", path.name, a, b, got, hw)
		}
		if fl != want {
			t.Fatalf("%s(%#016x, %#016x) flags = %v, want %v (result %#016x)",
				path.name, a, b, fl, want, got)
		}
	}
}

func cfCheckSqrt(t *testing.T, a uint64) {
	t.Helper()
	for _, sqrt := range both("Sqrt64", Sqrt64, sqrt64) {
		cfCheckSqrtPath(t, sqrt.name, sqrt.op, a)
	}
}

func cfCheckSqrtPath(t *testing.T, name string, sqrt func(a uint64, env Env) (uint64, Flags), a uint64) {
	t.Helper()
	got, fl := sqrt(a, Env{})
	hw := math.Float64bits(math.Sqrt(math.Float64frombits(a)))
	if IsNaN64(hw) {
		if !IsNaN64(got) {
			t.Fatalf("%s(%#016x) = %#016x, hardware produced a NaN", name, a, got)
		}
		if IsSNaN64(got) {
			t.Fatalf("%s(%#016x) = %#016x: signaling NaN result", name, a, got)
		}
	} else if got != hw {
		t.Fatalf("%s(%#016x) = %#016x, hardware %#016x", name, a, got, hw)
	}

	var want Flags
	switch {
	case IsNaN64(a):
		if IsSNaN64(a) {
			want |= FlagInvalid
		}
	case sign64(a) && !IsZero64(a):
		want |= FlagInvalid // sqrt of a negative number (but sqrt(-0) = -0), no DE
	case IsInf64(a) || IsZero64(a):
		// exact, no flags
	default:
		if IsDenormal64(a) {
			want |= FlagDenormal
		}
		// sqrt never overflows or underflows: the result of a positive
		// finite operand lies in [2^-537, 2^512). Exact iff hw*hw == a.
		sq := new(big.Float).SetPrec(addPrec).Mul(cfBig(hw), cfBig(hw))
		if sq.Cmp(cfBig(a)) != 0 {
			want |= FlagInexact
		}
	}
	if fl != want {
		t.Fatalf("%s(%#016x) flags = %v, want %v (result %#016x)", name, a, fl, want, got)
	}
}

// TestConformanceBoundary crosses every boundary pattern with every other
// for each binary operation, and runs each through Sqrt64.
func TestConformanceBoundary(t *testing.T) {
	for _, op := range cfBinOps {
		t.Run(op.name, func(t *testing.T) {
			for _, a := range cfBoundary {
				for _, b := range cfBoundary {
					cfCheckBin(t, op, a, b)
				}
			}
		})
	}
	t.Run("Sqrt64", func(t *testing.T) {
		for _, a := range cfBoundary {
			cfCheckSqrt(t, a)
		}
	})
}

// TestConformanceDirected pairs ulp-neighborhoods of every boundary
// pattern against the boundary corpus, in both operand orders.
func TestConformanceDirected(t *testing.T) {
	directed := cfDirected()
	for _, op := range cfBinOps {
		t.Run(op.name, func(t *testing.T) {
			for _, a := range directed {
				for _, b := range cfBoundary {
					cfCheckBin(t, op, a, b)
					cfCheckBin(t, op, b, a)
				}
			}
		})
	}
	t.Run("Sqrt64", func(t *testing.T) {
		for _, a := range directed {
			cfCheckSqrt(t, a)
		}
	})
}

// cfRandomPattern draws one pattern in one of three shapes: raw 64-bit
// (any class, including NaNs and infinities), exponent-shaped finite
// (uniform over the exponent range, so products and quotients regularly
// overflow and underflow), and near-cancellation (handled by the caller).
func cfRandomPattern(r *rand.Rand) uint64 {
	if r.Intn(3) == 0 {
		return r.Uint64()
	}
	exp := uint64(r.Intn(2047)) // 0..2046: everything but inf/NaN
	return uint64(r.Intn(2))<<63 | exp<<52 | r.Uint64()&f64FracMask
}

// TestConformanceRandom drives seeded random corpora through every
// operation, including near-total cancellation pairs for add/sub.
func TestConformanceRandom(t *testing.T) {
	iters := 20000
	if testing.Short() {
		iters = 2000
	}
	for _, op := range cfBinOps {
		t.Run(op.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(op.kind)*7919 + 17))
			for i := 0; i < iters; i++ {
				a := cfRandomPattern(r)
				var b uint64
				if i%4 == 3 {
					// Near-cancellation: same magnitude, opposite sign, a
					// few low bits perturbed. Exercises full-width
					// significand alignment and massive cancellation.
					b = a ^ f64SignMask ^ uint64(r.Intn(8))
				} else {
					b = cfRandomPattern(r)
				}
				cfCheckBin(t, op, a, b)
			}
		})
	}
	t.Run("Sqrt64", func(t *testing.T) {
		r := rand.New(rand.NewSource(9551))
		for i := 0; i < iters; i++ {
			cfCheckSqrt(t, cfRandomPattern(r))
		}
	})
}
