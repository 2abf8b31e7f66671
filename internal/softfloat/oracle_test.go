package softfloat

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// The directed-rounding oracle: compute each operation exactly with
// math/big.Float (at a precision exceeding the worst-case exponent
// spread, so sums are exact), round to 53 bits in the target mode, and
// compare against the soft-float engine. big.Float has no exponent
// bounds or subnormals, so the comparison is restricted to results that
// are comfortably normal in binary64; dedicated tests below cover the
// overflow and subnormal edges the oracle cannot.

func bigMode(rm RoundingMode) big.RoundingMode {
	switch rm {
	case RoundNearestEven:
		return big.ToNearestEven
	case RoundDown:
		return big.ToNegativeInf
	case RoundUp:
		return big.ToPositiveInf
	default:
		return big.ToZero
	}
}

// oracleSafe reports whether the pattern is a finite value in the range
// where the big.Float oracle and binary64 agree exactly.
func oracleSafe(x uint64) bool {
	f := math.Float64frombits(x)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return false
	}
	if f == 0 {
		return true
	}
	a := math.Abs(f)
	return a > 0x1p-1000 && a < 0x1p1000
}

// normalPattern64 generates finite patterns within the oracle-safe
// exponent range.
func normalPattern64(r *rand.Rand) uint64 {
	exp := uint64(1023 + r.Intn(400) - 200)
	return r.Uint64()&(f64SignMask|f64FracMask) | exp<<52
}

// oracleBinary checks the exported op and its integer code against the
// oracle. Flags are checked too: in this range only Inexact can arise,
// exactly when the oracle's rounding changed the value.
func oracleBinary(t *testing.T, name string, soft, integer func(a, b uint64, env Env) (uint64, Flags), exact func(z, a, b *big.Float)) {
	t.Helper()
	r := rand.New(rand.NewSource(int64(len(name)) * 1009))
	modes := []RoundingMode{RoundNearestEven, RoundDown, RoundUp, RoundToZero}
	for i := 0; i < 40000; i++ {
		a := normalPattern64(r)
		b := normalPattern64(r)
		fa := new(big.Float).SetPrec(600).SetFloat64(math.Float64frombits(a))
		fb := new(big.Float).SetPrec(600).SetFloat64(math.Float64frombits(b))
		z := new(big.Float).SetPrec(600)
		exact(z, fa, fb)
		for _, rm := range modes {
			for _, path := range both(name, soft, integer) {
				got, fl := path.op(a, b, Env{RM: rm})
				if !oracleSafe(got) {
					continue
				}
				want := new(big.Float).Copy(z).SetMode(bigMode(rm)).SetPrec(53)
				wf, _ := want.Float64()
				if math.Float64bits(wf) != got || (fl == FlagInexact) != (want.Cmp(z) != 0) {
					t.Fatalf("%s(%#016x, %#016x) %v = %#016x %v, oracle %#016x",
						path.name, a, b, rm, got, fl, math.Float64bits(wf))
				}
			}
		}
	}
}

func TestOracleAdd64AllModes(t *testing.T) {
	oracleBinary(t, "Add64", Add64, add64, func(z, a, b *big.Float) { z.Add(a, b) })
}

func TestOracleSub64AllModes(t *testing.T) {
	oracleBinary(t, "Sub64", Sub64, sub64, func(z, a, b *big.Float) { z.Sub(a, b) })
}

func TestOracleMul64AllModes(t *testing.T) {
	oracleBinary(t, "Mul64", Mul64, mul64, func(z, a, b *big.Float) { z.Mul(a, b) })
}

func TestOracleDiv64AllModes(t *testing.T) {
	oracleBinary(t, "Div64", Div64, div64, func(z, a, b *big.Float) {
		if b.Sign() != 0 {
			z.Quo(a, b)
		}
	})
}

func TestOracleSqrt64AllModes(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	modes := []RoundingMode{RoundNearestEven, RoundDown, RoundUp, RoundToZero}
	for i := 0; i < 40000; i++ {
		a := normalPattern64(r) &^ f64SignMask // non-negative
		fa := new(big.Float).SetPrec(600).SetFloat64(math.Float64frombits(a))
		z := new(big.Float).SetPrec(600).Sqrt(fa)
		for _, rm := range modes {
			for _, sqrt := range both("Sqrt64", Sqrt64, sqrt64) {
				got, _ := sqrt.op(a, Env{RM: rm})
				if !oracleSafe(got) {
					continue
				}
				want := new(big.Float).Copy(z).SetMode(bigMode(rm)).SetPrec(53)
				wf, _ := want.Float64()
				if math.Float64bits(wf) != got {
					t.Fatalf("%s(%#016x) %v = %#016x, oracle %#016x",
						sqrt.name, a, rm, got, math.Float64bits(wf))
				}
			}
		}
	}
}

func TestOracleFMA64AllModes(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	modes := []RoundingMode{RoundNearestEven, RoundDown, RoundUp, RoundToZero}
	for i := 0; i < 40000; i++ {
		a, b, c := normalPattern64(r), normalPattern64(r), normalPattern64(r)
		fa := new(big.Float).SetPrec(900).SetFloat64(math.Float64frombits(a))
		fb := new(big.Float).SetPrec(900).SetFloat64(math.Float64frombits(b))
		fc := new(big.Float).SetPrec(900).SetFloat64(math.Float64frombits(c))
		z := new(big.Float).SetPrec(900).Mul(fa, fb)
		z.Add(z, fc)
		for _, rm := range modes {
			got, _ := FMA64(a, b, c, Env{RM: rm})
			if !oracleSafe(got) {
				continue
			}
			if z.Sign() == 0 {
				continue // signed-zero conventions differ from big.Float
			}
			want := new(big.Float).Copy(z).SetMode(bigMode(rm)).SetPrec(53)
			wf, _ := want.Float64()
			if math.Float64bits(wf) != got {
				t.Fatalf("FMA64(%#016x, %#016x, %#016x) %v = %#016x, oracle %#016x",
					a, b, c, rm, got, math.Float64bits(wf))
			}
		}
	}
}

func TestOracleF32AllModes(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	modes := []RoundingMode{RoundNearestEven, RoundDown, RoundUp, RoundToZero}
	type op struct {
		name          string
		soft, integer func(a, b, c uint32, env Env) (uint32, Flags)
		exact         func(z, a, b, c *big.Float)
	}
	bin := func(name string, soft, integer func(a, b uint32, env Env) (uint32, Flags), exact func(z, a, b *big.Float)) op {
		return op{name,
			func(a, b, _ uint32, env Env) (uint32, Flags) { return soft(a, b, env) },
			func(a, b, _ uint32, env Env) (uint32, Flags) { return integer(a, b, env) },
			func(z, a, b, _ *big.Float) { exact(z, a, b) }}
	}
	ops := []op{
		bin("Add32", Add32, add32, func(z, a, b *big.Float) { z.Add(a, b) }),
		bin("Sub32", Sub32, sub32, func(z, a, b *big.Float) { z.Sub(a, b) }),
		bin("Mul32", Mul32, mul32, func(z, a, b *big.Float) { z.Mul(a, b) }),
		bin("Div32", Div32, div32, func(z, a, b *big.Float) {
			if b.Sign() != 0 {
				z.Quo(a, b)
			}
		}),
		bin("Sqrt32",
			func(a, _ uint32, env Env) (uint32, Flags) { return Sqrt32(a&^f32SignMask, env) },
			func(a, _ uint32, env Env) (uint32, Flags) { return sqrt32(a&^f32SignMask, env) },
			func(z, a, _ *big.Float) { z.Sqrt(new(big.Float).Abs(a)) }),
		{"FMA32", FMA32, fma32, func(z, a, b, c *big.Float) { z.Mul(a, b).Add(z, c) }},
	}
	normal32 := func() uint32 {
		exp := uint32(127 + r.Intn(80) - 40)
		return r.Uint32()&(f32SignMask|f32FracMask) | exp<<23
	}
	safe32 := func(x uint32) bool {
		f := math.Float32frombits(x)
		if IsNaN32(x) || IsInf32(x) {
			return false
		}
		if f == 0 {
			return true
		}
		a := math.Abs(float64(f))
		return a > 0x1p-100 && a < 0x1p100
	}
	for i := 0; i < 30000; i++ {
		a, b, c := normal32(), normal32(), normal32()
		for _, o := range ops {
			fa := new(big.Float).SetPrec(300).SetFloat64(float64(math.Float32frombits(a)))
			fb := new(big.Float).SetPrec(300).SetFloat64(float64(math.Float32frombits(b)))
			fc := new(big.Float).SetPrec(300).SetFloat64(float64(math.Float32frombits(c)))
			z := new(big.Float).SetPrec(300)
			o.exact(z, fa, fb, fc)
			for _, rm := range modes {
				for _, path := range both(o.name, o.soft, o.integer) {
					got, fl := path.op(a, b, c, Env{RM: rm})
					if !safe32(got) {
						continue
					}
					want := new(big.Float).Copy(z).SetMode(bigMode(rm)).SetPrec(24)
					wf, _ := want.Float32()
					if math.Float32bits(wf) != got || (fl == FlagInexact) != (want.Cmp(z) != 0) {
						t.Fatalf("%s(%#08x, %#08x, %#08x) %v = %#08x %v, oracle %#08x",
							path.name, a, b, c, rm, got, fl, math.Float32bits(wf))
					}
				}
			}
		}
	}
}

// TestOverflowDirectedRounding: directed modes that round toward zero
// relative to the overflow produce the largest finite value, not
// infinity — the x64 behavior.
func TestOverflowDirectedRounding(t *testing.T) {
	huge := math.Float64bits(math.MaxFloat64)
	two := math.Float64bits(2)
	cases := []struct {
		rm      RoundingMode
		sign    bool
		wantInf bool
	}{
		{RoundNearestEven, false, true},
		{RoundUp, false, true},
		{RoundDown, false, false}, // +overflow rounds down to max finite
		{RoundToZero, false, false},
		{RoundNearestEven, true, true},
		{RoundUp, true, false}, // -overflow rounds up to -max finite
		{RoundDown, true, true},
		{RoundToZero, true, false},
	}
	for _, c := range cases {
		a := huge
		if c.sign {
			a |= f64SignMask
		}
		z, fl := Mul64(a, two, Env{RM: c.rm})
		if fl&FlagOverflow == 0 {
			t.Errorf("%v sign=%v: no OE", c.rm, c.sign)
		}
		if IsInf64(z) != c.wantInf {
			t.Errorf("%v sign=%v: inf=%v, want %v (z=%#x)", c.rm, c.sign, IsInf64(z), c.wantInf, z)
		}
		if !c.wantInf && z&^f64SignMask != f64MaxFinite {
			t.Errorf("%v sign=%v: z=%#x, want max finite", c.rm, c.sign, z)
		}
	}
}

// TestSubnormalDirectedRounding spot-checks rounding in the denormal
// range, which the big.Float oracle cannot cover.
func TestSubnormalDirectedRounding(t *testing.T) {
	// smallest normal / 2 = 2^-1023: exactly representable as denormal.
	minNormal := uint64(0x0010000000000000)
	half := math.Float64bits(0.5)
	for _, rm := range []RoundingMode{RoundNearestEven, RoundDown, RoundUp, RoundToZero} {
		z, fl := Mul64(minNormal, half, Env{RM: rm})
		if z != minNormal>>1 || fl != 0 {
			t.Errorf("%v: 2^-1023 = %#x flags %v, want exact denormal", rm, z, fl)
		}
	}
	// smallest denormal / 2: rounds to 0 (RZ, RD) or denormal min (RU);
	// RN ties to even 0.
	one := uint64(1)
	if z, _ := Mul64(one, half, Env{RM: RoundToZero}); z != 0 {
		t.Errorf("RZ: %#x", z)
	}
	if z, _ := Mul64(one, half, Env{RM: RoundUp}); z != 1 {
		t.Errorf("RU: %#x, want smallest denormal", z)
	}
	if z, _ := Mul64(one, half, Env{RM: RoundDown}); z != 0 {
		t.Errorf("RD: %#x", z)
	}
	if z, _ := Mul64(one, half, Env{RM: RoundNearestEven}); z != 0 {
		t.Errorf("RN: %#x (tie to even)", z)
	}
	// 3 * smallest denormal / 2 = 1.5 denormals: RN rounds to 2 (even).
	three := uint64(3)
	if z, _ := Mul64(three, half, Env{RM: RoundNearestEven}); z != 2 {
		t.Errorf("RN 1.5ulp: %#x, want 2", z)
	}
}
