package softfloat

import (
	"fmt"
	"testing"
)

// result is an op's value, widened to 64 bits, and its flags.
type result struct {
	z  uint64
	fl Flags
}

func r64(z uint64, fl Flags) result     { return result{z, fl} }
func r32(z uint32, fl Flags) result     { return result{uint64(z), fl} }
func rcmp(r CmpResult, fl Flags) result { return result{uint64(r), fl} }

func rint[T int32 | int64](z T, fl Flags) result { return result{uint64(z), fl} }

// TestX64Vectors pins values and flags to an x64 FPU (an Intel Xeon).
// Each vector was captured by a C program that set %mxcsr (every
// exception masked, the environment's RC, FTZ and DAZ) with ldmxcsr,
// ran the one instruction, and read the flags back with stmxcsr; FMA
// ran as vfmadd213 with the operands in the order its expression names
// them, a*b + c. The vectors pin Denormal's priority, roundsd's missing
// Denormal, FTZ by tininess after rounding, FMA's quiet 0*inf + QNaN,
// the zero test of a denormal operand and the float-to-integer
// conversions' missing Denormal.
func TestX64Vectors(t *testing.T) {
	const (
		inf  = 0x7ff0000000000000
		qnan = 0x7ff8000000000000
		one  = 0x3ff0000000000000
	)
	ftz := Env{FTZ: true}
	type vector struct {
		name      string
		got, want result
	}
	vectors := []vector{
		// A NaN operand, Invalid or DivideByZero suppresses Denormal.
		{"Add64(den, QNaN)", r64(Add64(0x1, qnan, Env{})), result{qnan, 0}},
		{"Add64(den, SNaN)", r64(Add64(0x1, 0x7ff0000000000001, Env{})), result{0x7ff8000000000001, FlagInvalid}},
		{"Mul64(den, QNaN)", r64(Mul64(0x1, qnan, Env{})), result{qnan, 0}},
		{"Div64(den, 0)", r64(Div64(0x1, 0x0, Env{})), result{inf, FlagDivideByZero}},
		{"Sqrt64(-den)", r64(Sqrt64(0x8000000000000001, Env{})), result{0xfff8000000000000, FlagInvalid}},
		{"FMA64(0, inf, den)", r64(FMA64(0x0, inf, 0x1, Env{})), result{0xfff8000000000000, FlagInvalid}},
		{"Min64(SNaN, -den)", r64(Min64(0x7ff0000000000001, 0x8000000000000002, Env{})), result{0x8000000000000002, FlagInvalid}},
		{"Cmp64(den, QNaN, LT)", r64(Cmp64(0x1, qnan, CmpLT, Env{})), result{0, FlagInvalid}},
		{"Comi64(den, QNaN)", rcmp(Comi64(0x1, qnan, Env{})), result{uint64(CmpUnordered), FlagInvalid}},
		{"Ucomi64(den, QNaN)", rcmp(Ucomi64(0x1, qnan, Env{})), result{uint64(CmpUnordered), 0}},
		{"Add32(den, QNaN)", r32(Add32(0x1, 0x7fc00000, Env{})), result{0x7fc00000, 0}},
		{"Div32(den, 0)", r32(Div32(0x1, 0x0, Env{})), result{0x7f800000, FlagDivideByZero}},
		{"Min32(SNaN, -den)", r32(Min32(0xffb9daff, 0x805f3c39, Env{})), result{0x805f3c39, FlagInvalid}},
		{"Max32(QNaN, den)", r32(Max32(0x7fc00000, 0x1, Env{})), result{0x1, FlagInvalid}},
		{"Cmp32(den, QNaN, LT)", r32(Cmp32(0x1, 0x7fc00000, CmpLT, Env{})), result{0, FlagInvalid}},
		{"Cmp32(den, QNaN, EQ)", r32(Cmp32(0x1, 0x7fc00000, CmpEQ, Env{})), result{0, 0}},
		{"Cmp32(-den, SNaN, NEQ)", r32(Cmp32(0x80000001, 0x7f800001, CmpNEQ, Env{})), result{0xffffffff, FlagInvalid}},
		{"Comi32(den, QNaN)", rcmp(Comi32(0x1, 0x7fc00000, Env{})), result{uint64(CmpUnordered), FlagInvalid}},
		{"Comi32(QNaN, -den)", rcmp(Comi32(0x7fc00000, 0x80000001, Env{})), result{uint64(CmpUnordered), FlagInvalid}},
		{"Ucomi32(den, QNaN)", rcmp(Ucomi32(0x1, 0x7fc00000, Env{})), result{uint64(CmpUnordered), 0}},
		{"Ucomi32(SNaN, den)", rcmp(Ucomi32(0x7f800001, 0x1, Env{})), result{uint64(CmpUnordered), FlagInvalid}},
		// Denormal kept: no NaN operand, no IE or ZE.
		{"Add64(den, inf)", r64(Add64(0x1, inf, Env{})), result{inf, FlagDenormal}},
		{"Div64(den, 1)", r64(Div64(0x1, one, Env{})), result{0x1, FlagDenormal}},
		// roundsd and roundss never raise Denormal.
		{"RoundToInt64(den, RN)", r64(RoundToInt64(0x1, RoundNearestEven, false, Env{})), result{0, FlagInexact}},
		{"RoundToInt32(den, RU)", r32(RoundToInt32(0x1, RoundUp, false, Env{})), result{0x3f800000, FlagInexact}},
		// FTZ flushes a tiny result, exact or not.
		{"Add64(0, den) FTZ", r64(Add64(0x0, 0x3, ftz)), result{0, FlagDenormal | FlagUnderflow | FlagInexact}},
		{"Add64(den, den) FTZ", r64(Add64(0x1, 0x2, ftz)), result{0, FlagDenormal | FlagUnderflow | FlagInexact}},
		{"Sub64(den, -0) FTZ", r64(Sub64(0x7, 0x8000000000000000, ftz)), result{0, FlagDenormal | FlagUnderflow | FlagInexact}},
		{"FMA64(-0, 1, -den) FTZ", r64(FMA64(0x8000000000000000, one, 0x8000000000000007, ftz)),
			result{0x8000000000000000, FlagDenormal | FlagUnderflow | FlagInexact}},
		{"Add32(0, den) FTZ", r32(Add32(0x0, 0x3, ftz)), result{0, FlagDenormal | FlagUnderflow | FlagInexact}},
		{"FMA32(0, 1, den) FTZ", r32(FMA32(0x0, 0x3f800000, 0x7853b, ftz)), result{0, FlagDenormal | FlagUnderflow | FlagInexact}},
		// FTZ leaves a result that rounds up to the smallest normal, which
		// is not tiny after rounding.
		{"F64ToF32(2^-126 - 2^-151) FTZ", r32(F64ToF32(0x380ffffff0000000, ftz)), result{0x00800000, FlagInexact}},
		{"FMA64(2^-60, -2^-1022, 2^-1022) FTZ", r64(FMA64(0x3c30000000000000, 0x8010000000000000, 0x0010000000000000, ftz)),
			result{0x0010000000000000, FlagInexact}},
		{"FMA32(2^-32, -2^-126, 2^-126) FTZ", r32(FMA32(0x2f800000, 0x80800000, 0x00800000, ftz)), result{0x00800000, FlagInexact}},
		// FMA 0*inf + QNaN raises nothing; an SNaN addend raises Invalid.
		{"FMA64(0, inf, QNaN)", r64(FMA64(0x0, inf, 0x7ff8000000000001, Env{})), result{0x7ff8000000000001, 0}},
		{"FMA64(0, inf, SNaN)", r64(FMA64(0x0, inf, 0x7ff0000000000001, Env{})), result{0x7ff8000000000001, FlagInvalid}},
		{"FMA32(inf, 0, QNaN)", r32(FMA32(0x7f800000, 0x0, 0x7fc00001, Env{})), result{0x7fc00001, 0}},
		// A denormal whose low 32 fraction bits are zero is not a zero.
		{"Mul64(inf, den)", r64(Mul64(inf, 0x0008000000000000, Env{})), result{inf, FlagDenormal}},
		{"Div64(den, 0)", r64(Div64(0x0008000000000000, 0x0, Env{})), result{inf, FlagDivideByZero}},
		{"Sqrt64(-den)", r64(Sqrt64(0x8008000000000000, Env{})), result{0xfff8000000000000, FlagInvalid}},
	}
	// cvtsd2si, cvtss2si and their truncating and 64-bit forms raise no
	// Denormal: a denormal converts to 0 with Inexact alone, or with no
	// flag under DAZ.
	for _, env := range []Env{{}, {DAZ: true}} {
		want := result{0, FlagInexact}
		if env.DAZ {
			want.fl = 0
		}
		for _, a := range []uint64{0x1, 0x8000000000000001, 0x000fffffffffffff} {
			name := fmt.Sprintf("(%#x) DAZ=%v", a, env.DAZ)
			vectors = append(vectors,
				vector{"F64ToI32" + name, rint(F64ToI32(a, env)), want},
				vector{"F64ToI32Trunc" + name, rint(F64ToI32Trunc(a, env)), want},
				vector{"F64ToI64" + name, rint(F64ToI64(a, env)), want},
				vector{"F64ToI64Trunc" + name, rint(F64ToI64Trunc(a, env)), want})
		}
		for _, a := range []uint32{0x1, 0x80000001, 0x7fffff} {
			name := fmt.Sprintf("(%#x) DAZ=%v", a, env.DAZ)
			vectors = append(vectors,
				vector{"F32ToI32" + name, rint(F32ToI32(a, env)), want},
				vector{"F32ToI32Trunc" + name, rint(F32ToI32Trunc(a, env)), want},
				vector{"F32ToI64" + name, rint(F32ToI64(a, env)), want},
				vector{"F32ToI64Trunc" + name, rint(F32ToI64Trunc(a, env)), want})
		}
	}
	for i, v := range vectors {
		if v.got != v.want {
			t.Errorf("%d %s = %#x %v, x64 %#x %v", i, v.name, v.got.z, v.got.fl, v.want.z, v.want.fl)
		}
	}
}
