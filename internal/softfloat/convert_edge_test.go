package softfloat

import (
	"math"
	"math/rand"
	"testing"
)

// intIndefinite32 and intIndefinite64 are the x64 "integer indefinite"
// results of invalid float-to-int conversions.
const (
	intIndefinite32 = int32(-0x80000000)
	intIndefinite64 = int64(-0x8000000000000000)
)

func TestF64ToF32NaNPayloadAndSignaling(t *testing.T) {
	env := Env{RM: RoundNearestEven}
	// QNaN: payload's top bits survive narrowing, no Invalid.
	qnan := uint64(0x7FF8_1234_5678_9ABC)
	z, fl := F64ToF32(qnan, env)
	if !IsNaN32(z) || IsSNaN32(z) {
		t.Errorf("narrowed QNaN = %#x", z)
	}
	if fl != 0 {
		t.Errorf("QNaN narrow flags = %v", fl)
	}
	// SNaN: Invalid raised, result quiet.
	snan := uint64(0x7FF0_0000_0000_0001)
	z, fl = F64ToF32(snan, env)
	if !IsNaN32(z) || IsSNaN32(z) {
		t.Errorf("narrowed SNaN = %#x", z)
	}
	if fl&FlagInvalid == 0 {
		t.Errorf("SNaN narrow flags = %v", fl)
	}
	// Infinity narrows exactly.
	if z, fl := F64ToF32(f64PosInf, env); !IsInf32(z) || fl != 0 {
		t.Errorf("inf narrow = %#x flags %v", z, fl)
	}
	// Overflow: a f64 too big for f32 becomes inf with OE|PE.
	big := math.Float64bits(1e200)
	if z, fl := F64ToF32(big, env); !IsInf32(z) || fl&(FlagOverflow|FlagInexact) != FlagOverflow|FlagInexact {
		t.Errorf("1e200 narrow = %#x flags %v", z, fl)
	}
	// Underflow: tiny f64 becomes f32 denormal or zero with UE.
	tiny := math.Float64bits(1e-60)
	if z, fl := F64ToF32(tiny, env); z != 0 || fl&FlagUnderflow == 0 {
		t.Errorf("1e-60 narrow = %#x flags %v", z, fl)
	}
}

func TestF32ToF64SignalingAndDenormal(t *testing.T) {
	env := Env{RM: RoundNearestEven}
	// f32 SNaN widens to a quiet f64 NaN with Invalid.
	z, fl := F32ToF64(0x7F800001, env)
	if !IsNaN64(z) || IsSNaN64(z) || fl&FlagInvalid == 0 {
		t.Errorf("widen SNaN = %#x flags %v", z, fl)
	}
	// f32 denormal raises DE (and widens exactly).
	d := uint32(1) // smallest f32 denormal = 2^-149
	z, fl = F32ToF64(d, env)
	if fl&FlagDenormal == 0 {
		t.Errorf("widen denormal flags = %v", fl)
	}
	if math.Float64frombits(z) != 0x1p-149 {
		t.Errorf("widen denormal = %v", math.Float64frombits(z))
	}
	// With DAZ the operand vanishes.
	z, fl = F32ToF64(d, Env{RM: RoundNearestEven, DAZ: true})
	if z != 0 || fl != 0 {
		t.Errorf("DAZ widen = %#x flags %v", z, fl)
	}
}

func TestFloatToIntIndefinites(t *testing.T) {
	env := Env{RM: RoundNearestEven}
	cases := []struct {
		name string
		in   float64
	}{
		{"nan", math.NaN()},
		{"+inf", math.Inf(1)},
		{"-inf", math.Inf(-1)},
		{"2^40", 0x1p40},
		{"-2^40", -0x1p40},
	}
	for _, c := range cases {
		got, fl := F64ToI32Trunc(math.Float64bits(c.in), env)
		if got != intIndefinite32 || fl&FlagInvalid == 0 {
			t.Errorf("F64ToI32Trunc(%s) = %d flags %v", c.name, got, fl)
		}
	}
	// INT32_MIN itself is representable.
	if got, fl := F64ToI32Trunc(math.Float64bits(-0x1p31), env); got != math.MinInt32 || fl&FlagInvalid != 0 {
		t.Errorf("INT32_MIN = %d flags %v", got, fl)
	}
	// 2^31 is not.
	if got, _ := F64ToI32Trunc(math.Float64bits(0x1p31), env); got != intIndefinite32 {
		t.Errorf("2^31 = %d", got)
	}
	// 64-bit edges.
	if got, fl := F64ToI64Trunc(math.Float64bits(-0x1p63), env); got != math.MinInt64 || fl&FlagInvalid != 0 {
		t.Errorf("INT64_MIN = %d flags %v", got, fl)
	}
	if got, _ := F64ToI64Trunc(math.Float64bits(0x1p63), env); got != intIndefinite64 {
		t.Errorf("2^63 = %d", got)
	}
	// f32 sources.
	if got, fl := F32ToI32Trunc(math.Float32bits(float32(math.NaN())), env); got != intIndefinite32 || fl&FlagInvalid == 0 {
		t.Errorf("f32 NaN = %d flags %v", got, fl)
	}
	if got, fl := F32ToI64Trunc(math.Float32bits(1.5), env); got != 1 || fl&FlagInexact == 0 {
		t.Errorf("f32 1.5 = %d flags %v", got, fl)
	}
}

func TestIntToFloatRoundingAtPrecisionEdge(t *testing.T) {
	// 2^53+1 is the first integer binary64 cannot hold.
	v := int64(1)<<53 + 1
	z, fl := I64ToF64(v, Env{RM: RoundNearestEven})
	if fl&FlagInexact == 0 {
		t.Errorf("2^53+1 flags = %v", fl)
	}
	if math.Float64frombits(z) != 0x1p53 {
		t.Errorf("2^53+1 = %v", math.Float64frombits(z))
	}
	// Directed: RU bumps to the next representable.
	z, _ = I64ToF64(v, Env{RM: RoundUp})
	if math.Float64frombits(z) != 0x1p53+2 {
		t.Errorf("RU(2^53+1) = %v", math.Float64frombits(z))
	}
	// MinInt64 magnitude wraps correctly.
	z, fl = I64ToF64(math.MinInt64, Env{RM: RoundNearestEven})
	if math.Float64frombits(z) != -0x1p63 || fl != 0 {
		t.Errorf("MinInt64 = %v flags %v", math.Float64frombits(z), fl)
	}
	// f32 destination at its edge (2^24+1).
	z32, fl := I64ToF32(1<<24+1, Env{RM: RoundNearestEven})
	if fl&FlagInexact == 0 || math.Float32frombits(z32) != 0x1p24 {
		t.Errorf("2^24+1 -> %v flags %v", math.Float32frombits(z32), fl)
	}
}

func TestCompare32AndPredicates(t *testing.T) {
	env := Env{RM: RoundNearestEven}
	one := math.Float32bits(1)
	two := math.Float32bits(2)
	qnan := uint32(0x7FC00000)
	if r, fl := Ucomi32(one, two, env); r != CmpLess || fl != 0 {
		t.Errorf("ucomiss(1,2) = %v %v", r, fl)
	}
	if r, fl := Comi32(one, qnan, env); r != CmpUnordered || fl&FlagInvalid == 0 {
		t.Errorf("comiss(1,QNaN) = %v %v", r, fl)
	}
	if m, _ := Cmp32(two, one, CmpNLE, env); m != ^uint32(0) {
		t.Errorf("cmpnless(2,1) = %#x", m)
	}
	if m, fl := Cmp32(one, qnan, CmpUnord, env); m != ^uint32(0) || fl&FlagInvalid != 0 {
		t.Errorf("cmpunordss(1,QNaN) = %#x %v", m, fl)
	}
	if z, _ := Min32(one, two, env); z != one {
		t.Errorf("minss = %#x", z)
	}
	if z, _ := Max32(one, two, env); z != two {
		t.Errorf("maxss = %#x", z)
	}
	if z, fl := Max32(qnan, one, env); z != one || fl&FlagInvalid == 0 {
		t.Errorf("maxss(QNaN,1) = %#x %v", z, fl)
	}
}

func TestStringRepresentations(t *testing.T) {
	if (FlagInvalid | FlagInexact).String() != "IE|PE" {
		t.Errorf("flags string = %q", (FlagInvalid | FlagInexact).String())
	}
	if Flags(0).String() != "-" {
		t.Error("empty flags string")
	}
	for _, c := range []struct {
		m RoundingMode
		s string
	}{{RoundNearestEven, "RN"}, {RoundDown, "RD"}, {RoundUp, "RU"}, {RoundToZero, "RZ"}} {
		if c.m.String() != c.s {
			t.Errorf("%v string = %q", c.m, c.m.String())
		}
	}
	for _, c := range []struct {
		r CmpResult
		s string
	}{{CmpLess, "lt"}, {CmpEqual, "eq"}, {CmpGreater, "gt"}, {CmpUnordered, "unord"}} {
		if c.r.String() != c.s {
			t.Errorf("cmp string = %q", c.r.String())
		}
	}
}

func TestRoundToInt32MatchesHardware(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	for i := 0; i < 100000; i++ {
		a := randPattern32(r)
		f := float64(math.Float32frombits(a))
		got, _ := RoundToInt32(a, RoundNearestEven, false, Env{})
		if want := float32(math.RoundToEven(f)); !hwEquiv32(got, want) {
			t.Fatalf("RoundToInt32 RN(%v) = %#08x, want %#08x", f, got, math.Float32bits(want))
		}
		got, _ = RoundToInt32(a, RoundDown, false, Env{})
		if want := float32(math.Floor(f)); !hwEquiv32(got, want) {
			t.Fatalf("RoundToInt32 RD(%v) = %#08x, want %#08x", f, got, math.Float32bits(want))
		}
		got, _ = RoundToInt32(a, RoundUp, false, Env{})
		if want := float32(math.Ceil(f)); !hwEquiv32(got, want) {
			t.Fatalf("RoundToInt32 RU(%v) = %#08x, want %#08x", f, got, math.Float32bits(want))
		}
		got, _ = RoundToInt32(a, RoundToZero, false, Env{})
		if want := float32(math.Trunc(f)); !hwEquiv32(got, want) {
			t.Fatalf("RoundToInt32 RZ(%v) = %#08x, want %#08x", f, got, math.Float32bits(want))
		}
	}
	// Inexact suppression.
	half := math.Float32bits(2.5)
	if _, fl := RoundToInt32(half, RoundNearestEven, true, Env{}); fl&FlagInexact != 0 {
		t.Error("suppressed roundss set PE")
	}
	if _, fl := RoundToInt32(half, RoundNearestEven, false, Env{}); fl&FlagInexact == 0 {
		t.Error("roundss missed PE")
	}
}

func TestF32ToI64Rounding(t *testing.T) {
	env := Env{RM: RoundNearestEven}
	if got, fl := F32ToI64(math.Float32bits(2.5), env); got != 2 || fl&FlagInexact == 0 {
		t.Errorf("cvtss2siq(2.5) = %d flags %v", got, fl)
	}
	if got, fl := F32ToI64(math.Float32bits(float32(math.Inf(1))), env); got != intIndefinite64 || fl&FlagInvalid == 0 {
		t.Errorf("cvtss2siq(inf) = %d flags %v", got, fl)
	}
	big := math.Float32bits(0x1p62)
	if got, _ := F32ToI64(big, env); got != 1<<62 {
		t.Errorf("cvtss2siq(2^62) = %d", got)
	}
}
