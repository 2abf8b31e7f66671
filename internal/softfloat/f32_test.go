package softfloat

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

func hwEquiv32(soft uint32, hard float32) bool {
	h := math.Float32bits(hard)
	if IsNaN32(soft) && IsNaN32(h) {
		return true
	}
	return soft == h
}

var interesting32 = []uint32{
	0x00000000, 0x80000000, // zeros
	0x00000001, 0x80000001, // smallest denormals
	0x007FFFFF,             // largest denormal
	0x00800000,             // smallest normal
	0x7F7FFFFF, 0xFF7FFFFF, // largest normals
	0x7F800000, 0xFF800000, // infinities
	0x7FC00000,             // QNaN
	0x7F800001,             // SNaN
	0x3F800000, 0xBF800000, // +-1
	0x3F800001, 0x3F7FFFFF,
	0x40000000, 0x3F000000, // 2, 0.5
	0x4B800000, // 2^24
	0x5F000000, // 2^63
	0x4F000000, // 2^31
}

func randPattern32(r *rand.Rand) uint32 {
	switch r.Intn(5) {
	case 0:
		return interesting32[r.Intn(len(interesting32))]
	case 1:
		return r.Uint32()
	case 2:
		exp := uint32(127 + r.Intn(30) - 15)
		return r.Uint32()&(f32SignMask|f32FracMask) | exp<<23
	case 3:
		return r.Uint32() & (f32SignMask | f32FracMask)
	default:
		exp := uint32(r.Intn(0xFF))
		return r.Uint32()&(f32SignMask|f32FracMask) | exp<<23
	}
}

// testBinaryOp32 checks the exported op and its integer code, as
// testBinaryOp64 does.
func testBinaryOp32(t *testing.T, name string, soft, integer func(a, b uint32, env Env) (uint32, Flags), hard func(a, b float32) float32) {
	t.Helper()
	for _, path := range both(name, soft, integer) {
		r := rand.New(rand.NewSource(52))
		env := Env{RM: RoundNearestEven}
		for i := 0; i < 200000; i++ {
			a, b := randPattern32(r), randPattern32(r)
			got, _ := path.op(a, b, env)
			want := hard(math.Float32frombits(a), math.Float32frombits(b))
			if !hwEquiv32(got, want) {
				t.Fatalf("%s(%#08x, %#08x) = %#08x, hardware %#08x",
					path.name, a, b, got, math.Float32bits(want))
			}
		}
	}
}

func TestAdd32MatchesHardware(t *testing.T) {
	testBinaryOp32(t, "Add32", Add32, add32, func(a, b float32) float32 { return a + b })
}

func TestSub32MatchesHardware(t *testing.T) {
	testBinaryOp32(t, "Sub32", Sub32, sub32, func(a, b float32) float32 { return a - b })
}

func TestMul32MatchesHardware(t *testing.T) {
	testBinaryOp32(t, "Mul32", Mul32, mul32, func(a, b float32) float32 { return a * b })
}

func TestDiv32MatchesHardware(t *testing.T) {
	testBinaryOp32(t, "Div32", Div32, div32, func(a, b float32) float32 { return a / b })
}

func TestSqrt32MatchesHardware(t *testing.T) {
	for _, sqrt := range both("Sqrt32", Sqrt32, sqrt32) {
		r := rand.New(rand.NewSource(53))
		env := Env{RM: RoundNearestEven}
		for i := 0; i < 200000; i++ {
			a := randPattern32(r)
			got, _ := sqrt.op(a, env)
			want := float32(math.Sqrt(float64(math.Float32frombits(a))))
			if !hwEquiv32(got, want) {
				t.Fatalf("%s(%#08x) = %#08x, hardware %#08x",
					sqrt.name, a, got, math.Float32bits(want))
			}
		}
	}
}

// round32 rounds the exact nonzero value z to binary32 in mode rm as an
// x64 FPU without FTZ does, and returns the pattern with the flags the
// rounding raises: Inexact, Underflow (tiny after rounding and inexact)
// and Overflow. Below 2^-126 every binary32 number is a multiple of
// 2^-149, so z rounds there as z ± 2^-126 rounds in [2^-126, 2^-125),
// where the ulp is 2^-149, less the 2^-126 again.
func round32(z *big.Float, rm RoundingMode) (uint32, Flags) {
	minNormal := new(big.Float).SetMantExp(big.NewFloat(1), -126)
	tiny := func(x *big.Float) bool { return new(big.Float).Abs(x).Cmp(minNormal) < 0 }
	r := new(big.Float).SetMode(bigMode(rm)).SetPrec(24)
	if tiny(z) {
		shift := new(big.Float).Copy(minNormal)
		if z.Sign() < 0 {
			shift.Neg(shift)
		}
		r.Set(new(big.Float).SetPrec(1000).Add(z, shift))
		r.Sub(r, shift)
		if r.Sign() == 0 {
			r.Abs(r) // z rounded to a zero of its own sign
			if z.Sign() < 0 {
				r.Neg(r)
			}
		}
	} else {
		r.Set(z)
	}
	var fl Flags
	if r.Cmp(z) != 0 {
		fl = FlagInexact
		if tiny(new(big.Float).SetMode(bigMode(rm)).SetPrec(24).Set(z)) {
			fl |= FlagUnderflow
		}
	}
	f, _ := r.Float32()
	if math.IsInf(float64(f), 0) {
		// Overflow gives the largest finite value in a mode that rounds
		// toward zero from it, else infinity.
		fl = FlagOverflow | FlagInexact
		if rm == RoundToZero || rm == RoundDown && z.Sign() > 0 || rm == RoundUp && z.Sign() < 0 {
			f = float32(math.Copysign(math.MaxFloat32, float64(z.Sign())))
		}
	}
	return math.Float32bits(f), fl
}

// fmaCase32 draws FMA32 operands: random patterns, exact binary32
// midpoint ties (a product of two 13-bit odd significands has 25 bits,
// its last half a binary32 ulp) alone or broken by a far smaller
// addend, and products and sums in the subnormal range, exact
// subnormal midpoints among them.
func fmaCase32(r *rand.Rand, i int) (a, b, c uint32) {
	bits32 := func(m float64, e int) uint32 { return math.Float32bits(float32(math.Ldexp(m, e))) }
	odd := func(n int) float64 { return float64(2*r.Intn(n) + 1) }
	sign := func() float64 { return float64(1 - 2*r.Intn(2)) }
	switch i % 5 {
	case 0:
		return randPattern32(r), randPattern32(r), randPattern32(r)
	case 1, 2:
		s := r.Intn(200) - 100
		a, b = bits32(4096+odd(500), s-12), bits32(sign()*(4096+odd(500)), -12)
		switch r.Intn(3) {
		case 0:
			return a, b, 0
		case 1:
			return a, b, bits32(sign()*float64(r.Intn(16)), s-23)
		}
		return a, b, bits32(sign(), s-24-[]int{2, 30, 54, 60, 80}[r.Intn(5)])
	case 3:
		// Odd m1*m2 < 2^24 times 2^-150 is an exact subnormal midpoint.
		m1 := odd(2048)
		a, b = bits32(m1, -75), bits32(sign()*odd(int(8192/m1)+1), -75-r.Intn(3))
		return a, b, bits32(sign()*float64(r.Intn(4)), -149)
	}
	return bits32(sign()*(1+r.Float64()), -60-r.Intn(30)), bits32(1+r.Float64(), -40-r.Intn(30)), randPattern32(r) & 0x80FFFFFF
}

// TestFMA32MatchesReference checks FMA32 against the exact a*b + c,
// rounded once to binary32 in each mode, in value and flags; specials
// and exact zeros take the hardware's binary64 FMA narrowed, exact for
// them.
func TestFMA32MatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	paths := both("FMA32", FMA32, fma32)
	for i := 0; i < 40000; i++ {
		a, b, c := fmaCase32(r, i)
		fa, fb, fc := math.Float32frombits(a), math.Float32frombits(b), math.Float32frombits(c)
		special := IsNaN32(a) || IsNaN32(b) || IsNaN32(c) || IsInf32(a) || IsInf32(b) || IsInf32(c)
		exact := new(big.Float)
		if !special {
			exact.SetPrec(1000).Mul(big.NewFloat(float64(fa)), big.NewFloat(float64(fb)))
			exact.Add(exact, big.NewFloat(float64(fc)))
		}
		var den Flags
		if IsDenormal32(a) || IsDenormal32(b) || IsDenormal32(c) {
			den = FlagDenormal
		}
		for _, rm := range []RoundingMode{RoundNearestEven, RoundDown, RoundUp, RoundToZero} {
			for _, fma := range paths {
				got, fl := fma.op(a, b, c, Env{RM: rm})
				if special || exact.Sign() == 0 {
					if rm == RoundNearestEven && !hwEquiv32(got, float32(math.FMA(float64(fa), float64(fb), float64(fc)))) {
						t.Fatalf("%s(%#08x, %#08x, %#08x) = %#08x, reference %#08x",
							fma.name, a, b, c, got, math.Float32bits(float32(math.FMA(float64(fa), float64(fb), float64(fc)))))
					}
					continue
				}
				want, wfl := round32(exact, rm)
				if got != want || fl != wfl|den {
					t.Fatalf("%s(%#08x, %#08x, %#08x) %v = %#08x %v, reference %#08x %v",
						fma.name, a, b, c, rm, got, fl, want, wfl|den)
				}
			}
		}
	}
}

func TestFlagsBasics32(t *testing.T) {
	env := Env{RM: RoundNearestEven}
	one := math.Float32bits(1)
	three := math.Float32bits(3)
	if _, fl := Div32(one, three, env); fl != FlagInexact {
		t.Errorf("1/3 flags = %v, want PE", fl)
	}
	if z, fl := Div32(one, 0, env); fl != FlagDivideByZero || !IsInf32(z) {
		t.Errorf("1/0 = %#x flags %v, want inf ZE", z, fl)
	}
	huge := math.Float32bits(math.MaxFloat32)
	if _, fl := Mul32(huge, huge, env); fl != FlagOverflow|FlagInexact {
		t.Errorf("overflow flags = %v, want OE|PE", fl)
	}
	if z, fl := Sqrt32(math.Float32bits(-2), env); fl != FlagInvalid || !IsNaN32(z) {
		t.Errorf("sqrt(-2) = %#x flags %v, want NaN IE", z, fl)
	}
}

func TestConvertF64F32MatchesHardware(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	env := Env{RM: RoundNearestEven}
	for i := 0; i < 200000; i++ {
		a := randPattern64(r)
		got, _ := F64ToF32(a, env)
		want := float32(math.Float64frombits(a))
		if !hwEquiv32(got, want) {
			t.Fatalf("F64ToF32(%#016x) = %#08x, hardware %#08x",
				a, got, math.Float32bits(want))
		}
	}
	for i := 0; i < 200000; i++ {
		a := randPattern32(r)
		got, _ := F32ToF64(a, env)
		want := float64(math.Float32frombits(a))
		if !hwEquiv64(got, want) {
			t.Fatalf("F32ToF64(%#08x) = %#016x, hardware %#016x",
				a, got, math.Float64bits(want))
		}
	}
}

func TestConvertIntToFloatMatchesHardware(t *testing.T) {
	r := rand.New(rand.NewSource(56))
	env := Env{RM: RoundNearestEven}
	for i := 0; i < 200000; i++ {
		v := int64(r.Uint64())
		if r.Intn(2) == 0 {
			v = int64(int32(v))
		}
		got, _ := I64ToF64(v, env)
		if want := float64(v); !hwEquiv64(got, want) {
			t.Fatalf("I64ToF64(%d) = %#016x, hardware %#016x", v, got, math.Float64bits(want))
		}
		got32, _ := I64ToF32(v, env)
		if want := float32(v); !hwEquiv32(got32, want) {
			t.Fatalf("I64ToF32(%d) = %#08x, hardware %#08x", v, got32, math.Float32bits(want))
		}
	}
	if got := I32ToF64(-7); got != math.Float64bits(-7) {
		t.Errorf("I32ToF64(-7) = %#x", got)
	}
}

func TestConvertFloatToIntMatchesHardware(t *testing.T) {
	r := rand.New(rand.NewSource(57))
	env := Env{RM: RoundNearestEven}
	for i := 0; i < 200000; i++ {
		a := randPattern64(r)
		f := math.Float64frombits(a)
		got, fl := F64ToI64Trunc(a, env)
		if math.IsNaN(f) || f >= 0x1p63 || f < -0x1p63 {
			if got != intIndefinite64 || fl&FlagInvalid == 0 {
				t.Fatalf("F64ToI64Trunc(%v) = %d flags %v, want indefinite IE", f, got, fl)
			}
		} else if want := int64(f); got != want {
			t.Fatalf("F64ToI64Trunc(%#016x = %v) = %d, want %d", a, f, got, want)
		}
		got32, fl := F64ToI32Trunc(a, env)
		if math.IsNaN(f) || f >= 0x1p31 || f < -0x1p31-0 {
			if f < 0x1p31 && f >= -0x1p31 {
				// in-range: fall through handled below
			} else if got32 != int32(intIndefinite32) || fl&FlagInvalid == 0 {
				t.Fatalf("F64ToI32Trunc(%v) = %d flags %v, want indefinite IE", f, got32, fl)
			}
		} else if want := int32(f); got32 != want {
			t.Fatalf("F64ToI32Trunc(%v) = %d, want %d", f, got32, want)
		}
	}
}

func TestF64ToIntRounding(t *testing.T) {
	env := Env{RM: RoundNearestEven}
	cases := []struct {
		in   float64
		want int64
		fl   Flags
	}{
		{2.5, 2, FlagInexact},
		{3.5, 4, FlagInexact},
		{-2.5, -2, FlagInexact},
		{2.25, 2, FlagInexact},
		{2.75, 3, FlagInexact},
		{2, 2, 0},
		{0.5, 0, FlagInexact},
		{-0.5, 0, FlagInexact},
		{0, 0, 0},
	}
	for _, c := range cases {
		got, fl := F64ToI64(math.Float64bits(c.in), env)
		if got != c.want || fl != c.fl {
			t.Errorf("F64ToI64(%v) = %d flags %v, want %d flags %v", c.in, got, fl, c.want, c.fl)
		}
	}
	// Directed modes.
	if got, _ := F64ToI64(math.Float64bits(2.1), Env{RM: RoundUp}); got != 3 {
		t.Errorf("RU(2.1) = %d, want 3", got)
	}
	if got, _ := F64ToI64(math.Float64bits(-2.1), Env{RM: RoundDown}); got != -3 {
		t.Errorf("RD(-2.1) = %d, want -3", got)
	}
}

func TestRoundToInt64MatchesHardware(t *testing.T) {
	r := rand.New(rand.NewSource(58))
	for i := 0; i < 100000; i++ {
		a := randPattern64(r)
		f := math.Float64frombits(a)
		got, _ := RoundToInt64(a, RoundNearestEven, false, Env{})
		if want := math.RoundToEven(f); !hwEquiv64(got, want) {
			t.Fatalf("RoundToInt64 RN(%v) = %#016x, want %#016x", f, got, math.Float64bits(want))
		}
		got, _ = RoundToInt64(a, RoundDown, false, Env{})
		if want := math.Floor(f); !hwEquiv64(got, want) {
			t.Fatalf("RoundToInt64 RD(%v) = %#016x, want %#016x", f, got, math.Float64bits(want))
		}
		got, _ = RoundToInt64(a, RoundUp, false, Env{})
		if want := math.Ceil(f); !hwEquiv64(got, want) {
			t.Fatalf("RoundToInt64 RU(%v) = %#016x, want %#016x", f, got, math.Float64bits(want))
		}
		got, _ = RoundToInt64(a, RoundToZero, false, Env{})
		if want := math.Trunc(f); !hwEquiv64(got, want) {
			t.Fatalf("RoundToInt64 RZ(%v) = %#016x, want %#016x", f, got, math.Float64bits(want))
		}
	}
}

func TestCompareSemantics(t *testing.T) {
	env := Env{RM: RoundNearestEven}
	one := math.Float64bits(1)
	two := math.Float64bits(2)
	qnan := uint64(0x7FF8000000000000)
	snan := uint64(0x7FF0000000000001)
	if r, fl := Ucomi64(one, two, env); r != CmpLess || fl != 0 {
		t.Errorf("ucomi(1,2) = %v flags %v", r, fl)
	}
	if r, fl := Ucomi64(one, qnan, env); r != CmpUnordered || fl != 0 {
		t.Errorf("ucomi(1,QNaN) = %v flags %v, want unordered no IE", r, fl)
	}
	if r, fl := Ucomi64(one, snan, env); r != CmpUnordered || fl&FlagInvalid == 0 {
		t.Errorf("ucomi(1,SNaN) = %v flags %v, want unordered IE", r, fl)
	}
	if r, fl := Comi64(one, qnan, env); r != CmpUnordered || fl&FlagInvalid == 0 {
		t.Errorf("comi(1,QNaN) = %v flags %v, want unordered IE", r, fl)
	}
	// -0 == +0
	if r, _ := Ucomi64(f64SignMask, 0, env); r != CmpEqual {
		t.Errorf("ucomi(-0,+0) = %v, want equal", r)
	}
	// cmp predicates
	if m, _ := Cmp64(one, two, CmpLT, env); m != ^uint64(0) {
		t.Errorf("cmplt(1,2) = %#x, want all ones", m)
	}
	if m, fl := Cmp64(one, qnan, CmpLT, env); m != 0 || fl&FlagInvalid == 0 {
		t.Errorf("cmplt(1,QNaN) = %#x flags %v, want 0 with IE", m, fl)
	}
	if m, fl := Cmp64(one, qnan, CmpNEQ, env); m != ^uint64(0) || fl&FlagInvalid != 0 {
		t.Errorf("cmpneq(1,QNaN) = %#x flags %v, want all ones no IE", m, fl)
	}
	// min/max forwarding rules
	if z, _ := Min64(f64SignMask, 0, env); z != 0 {
		t.Errorf("min(-0,+0) = %#x, want +0 (second operand)", z)
	}
	if z, fl := Min64(qnan, one, env); z != one || fl&FlagInvalid == 0 {
		t.Errorf("min(QNaN,1) = %#x flags %v, want second operand with IE", z, fl)
	}
}
