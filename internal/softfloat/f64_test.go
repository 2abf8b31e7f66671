package softfloat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// hwEquiv64 reports whether a softfloat result pattern matches the
// hardware result, treating all NaN patterns produced for invalid
// operations as equivalent when both are NaN.
func hwEquiv64(soft uint64, hard float64) bool {
	h := math.Float64bits(hard)
	if IsNaN64(soft) && IsNaN64(h) {
		return true
	}
	return soft == h
}

// interesting64 is a pool of hand-picked hard cases mixed into random
// testing: zeros, denormals, infinities, NaNs, and rounding boundaries.
var interesting64 = []uint64{
	0x0000000000000000, // +0
	0x8000000000000000, // -0
	0x0000000000000001, // smallest denormal
	0x8000000000000001,
	0x000FFFFFFFFFFFFF, // largest denormal
	0x0010000000000000, // smallest normal
	0x7FEFFFFFFFFFFFFF, // largest normal
	0xFFEFFFFFFFFFFFFF,
	0x7FF0000000000000, // +inf
	0xFFF0000000000000, // -inf
	0x7FF8000000000000, // QNaN
	0x7FF0000000000001, // SNaN
	0x3FF0000000000000, // 1.0
	0xBFF0000000000000, // -1.0
	0x3FF0000000000001, // nextafter(1)
	0x3FEFFFFFFFFFFFFF, // prevbefore(1)
	0x4000000000000000, // 2.0
	0x3FE0000000000000, // 0.5
	0x4340000000000000, // 2^53
	0x4330000000000001,
	0xC340000000000000,
	0x43E0000000000000, // 2^63
	0x41DFFFFFFFC00000, // INT32_MAX as f64
	0xC1E0000000000000, // INT32_MIN as f64
}

// randPattern64 generates bit patterns that exercise all exponent ranges
// far more often than uniform uint64s would.
func randPattern64(r *rand.Rand) uint64 {
	switch r.Intn(5) {
	case 0:
		return interesting64[r.Intn(len(interesting64))]
	case 1:
		// Uniform random bits.
		return r.Uint64()
	case 2:
		// Small exponent spread around 1.0 so operations interact.
		exp := uint64(1023 + r.Intn(40) - 20)
		return r.Uint64()&(f64SignMask|f64FracMask) | exp<<52
	case 3:
		// Denormal.
		return r.Uint64() & (f64SignMask | f64FracMask)
	default:
		// Wide exponent range, finite.
		exp := uint64(r.Intn(0x7FF))
		return r.Uint64()&(f64SignMask|f64FracMask) | exp<<52
	}
}

// testBinaryOp64 checks the exported op, whose host path takes most
// normal inputs, and its integer code on the same seeded inputs.
func testBinaryOp64(t *testing.T, name string, soft, integer func(a, b uint64, env Env) (uint64, Flags), hard func(a, b float64) float64) {
	t.Helper()
	for _, path := range both(name, soft, integer) {
		r := rand.New(rand.NewSource(42))
		env := Env{RM: RoundNearestEven}
		for i := 0; i < 200000; i++ {
			a, b := randPattern64(r), randPattern64(r)
			got, _ := path.op(a, b, env)
			want := hard(math.Float64frombits(a), math.Float64frombits(b))
			if !hwEquiv64(got, want) {
				t.Fatalf("%s(%#016x, %#016x) = %#016x, hardware %#016x",
					path.name, a, b, got, math.Float64bits(want))
			}
		}
	}
}

func TestAdd64MatchesHardware(t *testing.T) {
	testBinaryOp64(t, "Add64", Add64, add64, func(a, b float64) float64 { return a + b })
}

func TestSub64MatchesHardware(t *testing.T) {
	testBinaryOp64(t, "Sub64", Sub64, sub64, func(a, b float64) float64 { return a - b })
}

func TestMul64MatchesHardware(t *testing.T) {
	testBinaryOp64(t, "Mul64", Mul64, mul64, func(a, b float64) float64 { return a * b })
}

func TestDiv64MatchesHardware(t *testing.T) {
	testBinaryOp64(t, "Div64", Div64, div64, func(a, b float64) float64 { return a / b })
}

func TestSqrt64MatchesHardware(t *testing.T) {
	for _, sqrt := range both("Sqrt64", Sqrt64, sqrt64) {
		r := rand.New(rand.NewSource(43))
		env := Env{RM: RoundNearestEven}
		for i := 0; i < 200000; i++ {
			a := randPattern64(r)
			got, _ := sqrt.op(a, env)
			want := math.Sqrt(math.Float64frombits(a))
			if !hwEquiv64(got, want) {
				t.Fatalf("%s(%#016x) = %#016x, hardware %#016x",
					sqrt.name, a, got, math.Float64bits(want))
			}
		}
	}
}

func TestFMA64MatchesHardware(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	env := Env{RM: RoundNearestEven}
	for i := 0; i < 200000; i++ {
		a, b, c := randPattern64(r), randPattern64(r), randPattern64(r)
		got, _ := FMA64(a, b, c, env)
		want := math.FMA(math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c))
		if !hwEquiv64(got, want) {
			t.Fatalf("FMA64(%#016x, %#016x, %#016x) = %#016x, hardware %#016x",
				a, b, c, got, math.Float64bits(want))
		}
	}
}

func TestAdd64Quick(t *testing.T) {
	env := Env{RM: RoundNearestEven}
	f := func(a, b uint64) bool {
		got, _ := Add64(a, b, env)
		return hwEquiv64(got, math.Float64frombits(a)+math.Float64frombits(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestMul64Quick(t *testing.T) {
	env := Env{RM: RoundNearestEven}
	f := func(a, b uint64) bool {
		got, _ := Mul64(a, b, env)
		return hwEquiv64(got, math.Float64frombits(a)*math.Float64frombits(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectedRounding64(t *testing.T) {
	// 1/3 in the four rounding modes: RD/RZ truncate, RU bumps the last
	// bit relative to the truncated value.
	one := math.Float64bits(1)
	three := math.Float64bits(3)
	rn, _ := Div64(one, three, Env{RM: RoundNearestEven})
	rd, _ := Div64(one, three, Env{RM: RoundDown})
	ru, _ := Div64(one, three, Env{RM: RoundUp})
	rz, _ := Div64(one, three, Env{RM: RoundToZero})
	if rd != rz {
		t.Errorf("1/3: RD %#x != RZ %#x for a positive value", rd, rz)
	}
	if ru != rd+1 {
		t.Errorf("1/3: RU %#x should be one ulp above RD %#x", ru, rd)
	}
	if rn != rd && rn != ru {
		t.Errorf("1/3: RN %#x outside [RD, RU]", rn)
	}
	// Negative value: RU truncates, RD goes away from zero.
	negOne := math.Float64bits(-1)
	nrd, _ := Div64(negOne, three, Env{RM: RoundDown})
	nru, _ := Div64(negOne, three, Env{RM: RoundUp})
	nrz, _ := Div64(negOne, three, Env{RM: RoundToZero})
	if nru != nrz {
		t.Errorf("-1/3: RU %#x != RZ %#x for a negative value", nru, nrz)
	}
	if nrd != nru+1 {
		t.Errorf("-1/3: RD %#x should be one ulp beyond RU %#x", nrd, nru)
	}
}

func TestDirectedRoundingBracket64(t *testing.T) {
	// Property: for any finite inputs, RD <= RN <= RU as real values, and
	// RZ has the smallest magnitude.
	r := rand.New(rand.NewSource(45))
	for i := 0; i < 50000; i++ {
		a, b := randPattern64(r), randPattern64(r)
		rn, _ := Add64(a, b, Env{RM: RoundNearestEven})
		rd, _ := Add64(a, b, Env{RM: RoundDown})
		ru, _ := Add64(a, b, Env{RM: RoundUp})
		fn, fd, fu := math.Float64frombits(rn), math.Float64frombits(rd), math.Float64frombits(ru)
		if math.IsNaN(fn) || math.IsNaN(fd) || math.IsNaN(fu) {
			continue
		}
		if !(fd <= fn && fn <= fu) {
			t.Fatalf("Add64(%#x, %#x): RD %v, RN %v, RU %v not ordered", a, b, fd, fn, fu)
		}
	}
}

func TestFlagsBasics64(t *testing.T) {
	env := Env{RM: RoundNearestEven}
	one := math.Float64bits(1)
	three := math.Float64bits(3)
	zero := uint64(0)
	huge := math.Float64bits(math.MaxFloat64)
	tiny := uint64(1) // smallest denormal

	if _, fl := Div64(one, three, env); fl != FlagInexact {
		t.Errorf("1/3 flags = %v, want PE", fl)
	}
	if _, fl := Add64(one, one, env); fl != 0 {
		t.Errorf("1+1 flags = %v, want none", fl)
	}
	if z, fl := Div64(one, zero, env); fl != FlagDivideByZero || !IsInf64(z) {
		t.Errorf("1/0 = %#x flags %v, want inf ZE", z, fl)
	}
	if z, fl := Div64(zero, zero, env); fl != FlagInvalid || !IsNaN64(z) {
		t.Errorf("0/0 = %#x flags %v, want NaN IE", z, fl)
	}
	if _, fl := Mul64(huge, huge, env); fl != FlagOverflow|FlagInexact {
		t.Errorf("overflow flags = %v, want OE|PE", fl)
	}
	if _, fl := Mul64(tiny, math.Float64bits(0.5), env); fl&FlagUnderflow == 0 || fl&FlagDenormal == 0 {
		t.Errorf("denormal*0.5 flags = %v, want UE and DE", fl)
	}
	if z, fl := Sqrt64(math.Float64bits(-2), env); fl != FlagInvalid || !IsNaN64(z) {
		t.Errorf("sqrt(-2) = %#x flags %v, want NaN IE", z, fl)
	}
	inf := f64PosInf
	if z, fl := Sub64(inf, inf, env); fl != FlagInvalid || !IsNaN64(z) {
		t.Errorf("inf-inf = %#x flags %v, want NaN IE", z, fl)
	}
	if z, fl := Mul64(zero, inf, env); fl != FlagInvalid || !IsNaN64(z) {
		t.Errorf("0*inf = %#x flags %v, want NaN IE", z, fl)
	}
}

func TestSNaNSignals64(t *testing.T) {
	env := Env{RM: RoundNearestEven}
	snan := uint64(0x7FF0000000000001)
	qnan := uint64(0x7FF8000000000001)
	one := math.Float64bits(1)
	if z, fl := Add64(snan, one, env); fl&FlagInvalid == 0 || !IsNaN64(z) || IsSNaN64(z) {
		t.Errorf("SNaN+1 = %#x flags %v, want quiet NaN with IE", z, fl)
	}
	if z, fl := Add64(qnan, one, env); fl&FlagInvalid != 0 || z != qnan {
		t.Errorf("QNaN+1 = %#x flags %v, want same QNaN, no IE", z, fl)
	}
	// NaN payload propagation prefers the first operand.
	qnan2 := uint64(0x7FF8000000000002)
	if z, _ := Add64(qnan, qnan2, env); z != qnan {
		t.Errorf("QNaN1+QNaN2 = %#x, want first operand %#x", z, qnan)
	}
}

func TestFTZDAZ64(t *testing.T) {
	tiny := uint64(1)
	half := math.Float64bits(0.5)
	// FTZ: tiny result flushes to zero with UE|PE.
	z, fl := Mul64(math.Float64bits(5e-324*4), half, Env{RM: RoundNearestEven, FTZ: true})
	if !IsZero64(z) || fl&(FlagUnderflow|FlagInexact) != FlagUnderflow|FlagInexact {
		t.Errorf("FTZ flush = %#x flags %v, want +0 with UE|PE", z, fl)
	}
	// DAZ: denormal operand treated as zero, no DE.
	z, fl = Add64(tiny, 0, Env{RM: RoundNearestEven, DAZ: true})
	if !IsZero64(z) || fl != 0 {
		t.Errorf("DAZ add = %#x flags %v, want +0 no flags", z, fl)
	}
	// Without DAZ the same operand raises DE.
	_, fl = Add64(tiny, 0, Env{RM: RoundNearestEven})
	if fl&FlagDenormal == 0 {
		t.Errorf("denormal operand flags = %v, want DE", fl)
	}
}

func TestExactZeroSignRD64(t *testing.T) {
	one := math.Float64bits(1)
	if z, _ := Sub64(one, one, Env{RM: RoundDown}); z != f64SignMask {
		t.Errorf("1-1 under RD = %#x, want -0", z)
	}
	if z, _ := Sub64(one, one, Env{RM: RoundNearestEven}); z != 0 {
		t.Errorf("1-1 under RN = %#x, want +0", z)
	}
}

func TestUnderflowExactDenormalNoUE(t *testing.T) {
	// A result that is denormal but exact must not raise UE (masked
	// semantics require tiny AND inexact).
	d := uint64(4) // denormal 4 * 2^-1074
	half := math.Float64bits(0.5)
	z, fl := Mul64(d, half, Env{RM: RoundNearestEven})
	if z != 2 {
		t.Fatalf("denormal*0.5 = %#x, want %#x", z, uint64(2))
	}
	if fl&FlagUnderflow != 0 || fl&FlagInexact != 0 {
		t.Errorf("exact denormal result flags = %v, want no UE/PE", fl)
	}
}
