package shadow

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/softfloat"
)

// The conformance property behind the prec-53/24 shadow modes: for every
// supported operation, evaluating from the native inputs and rounding
// once through float64/float32 reproduces the softfloat FPU bit-exactly,
// signed zeros included, on both evaluators — big.Float at wide
// precision and the fixed-width system. Lanes the policy
// skips (non-finite operands or results) are exactly the lanes softfloat
// resolves with NaN/Inf special cases, so everything that shadow-executes
// must agree to the last bit.

var rnEnv = softfloat.Env{RM: softfloat.RoundNearestEven}

// corpus64 mixes the boundary patterns (zeros, denormals, powers of two,
// overflow fringe, non-finites to be skipped) with seeded random bit
// patterns and random mid-range values.
func corpus64() []uint64 {
	c := []uint64{
		pzero64, nzero64,
		minDen64, sign64 | minDen64,
		0x000FFFFFFFFFFFFF,          // largest denormal
		0x0010000000000000,          // smallest normal
		maxFin64, sign64 | maxFin64, // overflow fringe
		posInf64, sign64 | posInf64,
		qnan64,
		math.Float64bits(1.0), math.Float64bits(-1.0),
		math.Float64bits(0.1), math.Float64bits(0.5),
		math.Float64bits(1.5), math.Float64bits(2.0),
		math.Float64bits(math.Pi), math.Float64bits(1e300),
		math.Float64bits(1e-300), math.Float64bits(3.0),
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 40; i++ {
		c = append(c, r.Uint64())
	}
	for i := 0; i < 20; i++ {
		c = append(c, math.Float64bits((r.Float64()-0.5)*math.Ldexp(1, r.Intn(120)-60)))
	}
	return c
}

func corpus32() []uint32 {
	c := []uint32{
		0, sign32,
		1, sign32 | 1,
		0x007FFFFF, 0x00800000,
		0x7F7FFFFF, sign32 | 0x7F7FFFFF,
		0x7F800000, 0xFF800000,
		0x7FC00000,
		math.Float32bits(1.0), math.Float32bits(-1.0),
		math.Float32bits(0.1), math.Float32bits(0.5),
		math.Float32bits(1.5), math.Float32bits(3.0),
		math.Float32bits(1e30), math.Float32bits(1e-30),
	}
	r := rand.New(rand.NewSource(43))
	for i := 0; i < 40; i++ {
		c = append(c, r.Uint32())
	}
	for i := 0; i < 20; i++ {
		c = append(c, math.Float32bits(float32((r.Float64()-0.5)*math.Ldexp(1, r.Intn(60)-30))))
	}
	return c
}

// evaluator is one of the two lane evaluators the conformance suite
// runs against; ok=false marks a lane the fixed-width one sends to
// big.Float.
type evaluator struct {
	name string
	eval func(ln *lane, prec uint) (laneResult, bool)
}

var evaluators = []evaluator{
	{"big", func(ln *lane, prec uint) (laneResult, bool) { return evalBig(ln, prec, widePrec(prec)), true }},
	{"fixed", func(ln *lane, prec uint) (laneResult, bool) { return evalFixed(ln, prec, widePrec(prec)) }},
}

// forEachEvaluator runs a conformance property once per evaluator.
func forEachEvaluator(t *testing.T, run func(t *testing.T, ev evaluator)) {
	for _, ev := range evaluators {
		t.Run(ev.name, func(t *testing.T) { run(t, ev) })
	}
}

// conforms evaluates a native lane (no shadow operands) at the native
// precision and fails unless its shadow rounds to the softfloat result
// ln.out bit for bit. Lanes the policy skips (non-finite operands or
// results) are not compared; it reports whether the lane was.
func conforms(t *testing.T, ev evaluator, f form, ln lane) bool {
	t.Helper()
	if !ln.finite() {
		return false // policy: skipped, never shadow-executed
	}
	prec := uint(53)
	if ln.single {
		prec = 24
	}
	r, ok := ev.eval(&ln, prec)
	if !ok {
		return false
	}
	if r.class == SampleNonFinite {
		t.Fatalf("%s(%#x): eval refused a finite-result op", f.name, ln.nat[:ln.arity()])
	}
	got := uint64(nativeBits32(r.sh.bigVal()))
	if !ln.single {
		got = nativeBits64(r.sh.bigVal())
	}
	if got != ln.out {
		t.Fatalf("%s(%#x) = %#x, softfloat %#x", f.name, ln.nat[:ln.arity()], got, ln.out)
	}
	return true
}

// arithForms are the two-operand forms: add, sub, mul, div, min, max.
func arithForms() []form {
	return []form{laneForms[0], laneForms[1], laneForms[2], laneForms[3], laneForms[5], laneForms[6]}
}

func TestConformance64Arith(t *testing.T) {
	forEachEvaluator(t, func(t *testing.T, ev evaluator) {
		corpus := corpus64()
		compared := 0
		for _, f := range arithForms() {
			for _, a := range corpus {
				for _, b := range corpus {
					if conforms(t, ev, f, nativeLane(f, false, a, b, 0)) {
						compared++
					}
				}
			}
		}
		if compared < 10000 {
			t.Fatalf("only %d comparisons ran; corpus too thin", compared)
		}
	})
}

func TestConformance64Sqrt(t *testing.T) {
	forEachEvaluator(t, func(t *testing.T, ev evaluator) {
		compared := 0
		for _, a := range corpus64() {
			if conforms(t, ev, laneForms[4], nativeLane(laneForms[4], false, a, 0, 0)) {
				compared++
			}
		}
		if compared < 30 {
			t.Fatalf("only %d comparisons ran", compared)
		}
	})
}

func TestConformance64FMA(t *testing.T) {
	forEachEvaluator(t, func(t *testing.T, ev evaluator) {
		// A reduced corpus keeps the triple loop tractable.
		corpus := corpus64()[:32]
		compared := 0
		for _, f := range []form{laneForms[7], laneForms[8]} {
			for _, a := range corpus {
				for _, b := range corpus {
					for _, c := range corpus {
						if conforms(t, ev, f, nativeLane(f, false, a, b, c)) {
							compared++
						}
					}
				}
			}
		}
		if compared < 10000 {
			t.Fatalf("only %d comparisons ran; corpus too thin", compared)
		}
	})
}

func TestConformance32Arith(t *testing.T) {
	forEachEvaluator(t, func(t *testing.T, ev evaluator) {
		corpus := corpus32()
		compared := 0
		for _, f := range arithForms() {
			for _, a := range corpus {
				for _, b := range corpus {
					if conforms(t, ev, f, nativeLane(f, true, uint64(a), uint64(b), 0)) {
						compared++
					}
				}
			}
		}
		if compared < 10000 {
			t.Fatalf("only %d comparisons ran; corpus too thin", compared)
		}
	})
}

func TestConformance32FMA(t *testing.T) {
	forEachEvaluator(t, func(t *testing.T, ev evaluator) {
		corpus := corpus32()[:32]
		compared := 0
		for _, a := range corpus {
			for _, b := range corpus {
				for _, c := range corpus {
					if conforms(t, ev, laneForms[7], nativeLane(laneForms[7], true, uint64(a), uint64(b), uint64(c))) {
						compared++
					}
				}
			}
		}
		if compared < 5000 {
			t.Fatalf("only %d comparisons ran; corpus too thin", compared)
		}
	})
}

func TestSupportedForms(t *testing.T) {
	// The predicate the whole channel hangs off: binary64 arith/FMA at
	// any width, scalar binary32, nothing else.
	yes := []isa.Opcode{
		isa.OpADDSD, isa.OpDIVSD, isa.OpSQRTSD, isa.OpMINSD,
		isa.OpADDPD, isa.OpVADDPDZ, isa.OpVADDPDKZ, isa.OpVSQRTPDKZ,
		isa.OpVFMADDSD, isa.OpVFMADDPDZ,
		isa.OpADDSS, isa.OpMULSS, isa.OpVFMADDSS,
	}
	no := []isa.Opcode{
		isa.OpVADDPSZ, isa.OpVADDPSKZ, // packed binary32
		isa.OpCVTSD2SS, isa.OpCMPSD, isa.OpUCOMISD,
		isa.OpROUNDSD, isa.OpVDPPS, isa.OpMOVSD, isa.OpFLD,
	}
	for _, op := range yes {
		if !Supported(op) {
			t.Errorf("Supported(%s) = false, want true", op.Info().Name)
		}
	}
	for _, op := range no {
		if Supported(op) {
			t.Errorf("Supported(%s) = true, want false", op.Info().Name)
		}
	}
}
