package shadow

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/softfloat"
)

// The lane differential: wherever the fixed-width evaluator certifies a
// lane, its class, shadow value, local, rel, total and dist equal the
// big.Float evaluation bit for bit; everywhere else it must decline
// (and the channel falls back).

// form is one shadow-executable lane shape.
type form struct {
	name string
	fma  bool
	fp   isa.FPOp
	v    isa.FMAVariant
}

var laneForms = []form{
	{name: "add", fp: isa.FPAdd},
	{name: "sub", fp: isa.FPSub},
	{name: "mul", fp: isa.FPMul},
	{name: "div", fp: isa.FPDiv},
	{name: "sqrt", fp: isa.FPSqrt},
	{name: "min", fp: isa.FPMin},
	{name: "max", fp: isa.FPMax},
	{name: "fmadd", fma: true, v: isa.FMAdd},
	{name: "fmsub", fma: true, v: isa.FMSub},
	{name: "fnmadd", fma: true, v: isa.FNMAdd},
	{name: "fnmsub", fma: true, v: isa.FNMSub},
}

var diffPrecs = []uint{24, 53, 80, 100, 113}

// nativeLane builds a lane over native operand bits with the softfloat
// FPU's result as the native output, as the channel sees it retire.
func nativeLane(f form, single bool, a, b, c uint64) lane {
	ln := lane{single: single, fma: f.fma, fp: f.fp, v: f.v, nat: [3]uint64{a, b, c}}
	if single {
		x, y, z := uint32(a), uint32(b), uint32(c)
		ln.nat = [3]uint64{uint64(x), uint64(y), uint64(z)}
		var r uint32
		if f.fma {
			if f.v == isa.FNMAdd || f.v == isa.FNMSub {
				x ^= sign32
			}
			if f.v == isa.FMSub || f.v == isa.FNMSub {
				z ^= sign32
			}
			r, _ = softfloat.FMA32(x, y, z, rnEnv)
		} else {
			r = soft32(f.fp, x, y)
		}
		ln.out = uint64(r)
		return ln
	}
	if f.fma {
		if f.v == isa.FNMAdd || f.v == isa.FNMSub {
			a ^= sign64
		}
		if f.v == isa.FMSub || f.v == isa.FNMSub {
			c ^= sign64
		}
		ln.out, _ = softfloat.FMA64(a, b, c, rnEnv)
		return ln
	}
	ln.out = soft64(f.fp, a, b)
	return ln
}

func soft64(fp isa.FPOp, a, b uint64) uint64 {
	var r uint64
	switch fp {
	case isa.FPAdd:
		r, _ = softfloat.Add64(a, b, rnEnv)
	case isa.FPSub:
		r, _ = softfloat.Sub64(a, b, rnEnv)
	case isa.FPMul:
		r, _ = softfloat.Mul64(a, b, rnEnv)
	case isa.FPDiv:
		r, _ = softfloat.Div64(a, b, rnEnv)
	case isa.FPSqrt:
		r, _ = softfloat.Sqrt64(a, rnEnv)
	case isa.FPMin:
		r, _ = softfloat.Min64(a, b, rnEnv)
	case isa.FPMax:
		r, _ = softfloat.Max64(a, b, rnEnv)
	}
	return r
}

func soft32(fp isa.FPOp, a, b uint32) uint32 {
	var r uint32
	switch fp {
	case isa.FPAdd:
		r, _ = softfloat.Add32(a, b, rnEnv)
	case isa.FPSub:
		r, _ = softfloat.Sub32(a, b, rnEnv)
	case isa.FPMul:
		r, _ = softfloat.Mul32(a, b, rnEnv)
	case isa.FPDiv:
		r, _ = softfloat.Div32(a, b, rnEnv)
	case isa.FPSqrt:
		r, _ = softfloat.Sqrt32(a, rnEnv)
	case isa.FPMin:
		r, _ = softfloat.Min32(a, b, rnEnv)
	case isa.FPMax:
		r, _ = softfloat.Max32(a, b, rnEnv)
	}
	return r
}

// drifted returns a shadow for native bits nat as the channel would
// hold one after accumulated drift: nat scaled by (1 + s·2^−k), or an
// unrelated small value when nat is zero, rounded by roundShadow64/32.
// seed picks s and k; ok is false when the rounded shadow is not
// finite.
func drifted(nat uint64, single bool, prec uint, seed uint64) (val, bool) {
	if single && !finite32(uint32(nat)) || !single && !finite64(nat) {
		return val{}, false
	}
	r := rand.New(rand.NewSource(int64(seed)))
	var x *big.Float
	if single {
		x = bigOf32(uint32(nat))
	} else {
		x = bigOf64(nat)
	}
	x.SetPrec(512)
	d := new(big.Float).SetPrec(512).SetFloat64(r.Float64() - 0.5)
	k := r.Intn(140)
	if x.Sign() == 0 {
		x.SetMantExp(d, -k)
	} else {
		d.SetMantExp(d, -k)
		x.Mul(x, d.Add(d, big.NewFloat(1)))
	}
	var sh *big.Float
	if single {
		sh = roundShadow32(x, prec)
	} else {
		sh = roundShadow64(x, prec)
	}
	if sh.IsInf() {
		return val{}, false
	}
	return val{x: fixedOfBig(sh), set: true}, true
}

// checkLane compares the two evaluators on one lane and reports
// whether the fixed-width one declined it.
func checkLane(t testing.TB, ln *lane, prec uint) (fellBack bool) {
	t.Helper()
	if !ln.finite() {
		return false
	}
	wide := widePrec(prec)
	want := evalBig(ln, prec, wide)
	got, ok := evalFixed(ln, prec, wide)
	if !ok {
		return true
	}
	same := got.class == want.class &&
		math.Float64bits(got.local) == math.Float64bits(want.local) &&
		math.Float64bits(got.rel) == math.Float64bits(want.rel) &&
		math.Float64bits(got.total) == math.Float64bits(want.total) &&
		got.dist == want.dist &&
		got.sh.set == want.sh.set
	if same && want.sh.set {
		g, w := got.sh.bigVal(), want.sh.big
		same = g.Cmp(w) == 0 && g.Signbit() == w.Signbit()
	}
	if !same {
		t.Fatalf("prec %d lane %+v:\nfixed %+v sh=%v\nbig   %+v sh=%v",
			prec, *ln, got, shText(got.sh), want, shText(want.sh))
	}
	return false
}

func shText(v val) string {
	if !v.set {
		return "unset"
	}
	return v.bigVal().Text('p', 0)
}

// tally counts a differential run's lanes and fallbacks.
type tally struct{ lanes, fallbacks int }

func (tl *tally) add(t testing.TB, ln lane, prec uint) {
	t.Helper()
	tl.lanes++
	if checkLane(t, &ln, prec) {
		tl.fallbacks++
	}
}

// drift returns ln with operand i's shadow drifted by seed, unchanged
// when the drifted shadow is not finite.
func drift(ln lane, i int, prec uint, seed uint64) lane {
	if v, ok := drifted(ln.nat[i], ln.single, prec, seed); ok {
		ln.sh[i] = v
	}
	return ln
}

func TestShadowLaneDifferential(t *testing.T) {
	c64, c32 := corpus64(), corpus32()
	r := rand.New(rand.NewSource(7))
	var tl tally
	for _, prec := range diffPrecs {
		for _, f := range laneForms {
			for _, single := range []bool{false, true} {
				for n := 0; n < 120; n++ {
					var ln lane
					if single {
						pick := func() uint64 { return uint64(c32[r.Intn(len(c32))]) }
						ln = nativeLane(f, true, pick(), pick(), pick())
					} else {
						pick := func() uint64 { return c64[r.Intn(len(c64))] }
						ln = nativeLane(f, false, pick(), pick(), pick())
					}
					tl.add(t, ln, prec)
					seed := r.Uint64()
					tl.add(t, drift(ln, int(seed%uint64(ln.arity())), prec, seed), prec)
					tl.add(t, drift(drift(ln, 0, prec, seed+1), 1, prec, seed+2), prec)
				}
			}
		}
	}
	t.Logf("corpus: %d lanes, %d fallbacks", tl.lanes, tl.fallbacks)
	// Seeded random operands around 1, where drift and cancellation
	// are dense and nothing should need big.Float.
	var near tally
	for i := 0; i < 4000; i++ {
		f := laneForms[r.Intn(len(laneForms))]
		prec := diffPrecs[r.Intn(len(diffPrecs))]
		single := r.Intn(4) == 0
		v := func() uint64 {
			x := (r.Float64() - 0.5) * math.Ldexp(1, r.Intn(8)-4)
			if single {
				return uint64(math.Float32bits(float32(x)))
			}
			return math.Float64bits(x)
		}
		ln := nativeLane(f, single, v(), v(), v())
		for s := 0; s < ln.arity(); s++ {
			if r.Intn(3) > 0 {
				ln = drift(ln, s, prec, r.Uint64())
			}
		}
		near.add(t, ln, prec)
	}
	t.Logf("random: %d lanes, %d fallbacks", near.lanes, near.fallbacks)
	if near.fallbacks*1000 > near.lanes {
		t.Fatalf("fixed-width evaluator declined %d of %d mid-range lanes", near.fallbacks, near.lanes)
	}
}

// TestShadowLaneTargeted covers the corners the fallback rule and the
// bounded formats exist for.
func TestShadowLaneTargeted(t *testing.T) {
	f64 := math.Float64bits
	set := func(x float64) val { return val{x: fixedOf64(f64(x)), set: true} }
	add, sub, fmadd := laneForms[0], laneForms[1], laneForms[7]
	div, sqrt, mul := laneForms[3], laneForms[4], laneForms[2]
	type tc struct {
		name     string
		ln       lane
		prec     uint
		fallback bool // the lane must go to big.Float
	}
	tie24 := 1 + math.Ldexp(1, -24) // a 24-bit midpoint
	cases := []tc{
		{name: "gap>W-53 add", ln: nativeLane(add, false, f64(1), f64(math.Ldexp(1, -300)), 0), prec: 53, fallback: true},
		{name: "gap>W-53 sub", ln: nativeLane(sub, false, f64(math.Ldexp(1, 350)), f64(3), 0), prec: 113, fallback: true},
		{name: "gap inside W", ln: nativeLane(add, false, f64(1), f64(math.Ldexp(1.5, -180)), 0), prec: 113},
		{name: "off-tie p24 far", ln: nativeLane(add, false, f64(tie24), f64(math.Ldexp(1, -300)), 0), prec: 24, fallback: true},
		{name: "off-tie p24 near", ln: nativeLane(add, false, f64(tie24), f64(math.Ldexp(1, -100)), 0), prec: 24},
		{name: "off-tie p24 below", ln: nativeLane(sub, false, f64(tie24), f64(math.Ldexp(1, -90)), 0), prec: 24},
		{name: "denormal in", ln: nativeLane(add, false, minDen64, 0x000FFFFFFFFFFFFF, 0), prec: 53},
		{name: "denormal out mul", ln: nativeLane(mul, false, f64(1e-160), f64(3e-160), 0), prec: 53},
		{name: "denormal out div", ln: nativeLane(div, false, f64(math.Ldexp(1, -1070)), f64(3), 0), prec: 113},
		{name: "denormal sqrt", ln: nativeLane(sqrt, false, minDen64, 0, 0), prec: 80},
		{name: "underflow to zero", ln: nativeLane(mul, false, f64(1e-200), f64(1e-200), 0), prec: 53},
		// The native sum is wider than W, so local error needs
		// evalFMA's round-to-odd value: a fallback.
		{name: "pinned fmadd tie", ln: nativeLane(fmadd, false, f64(0.1), f64(1.5), sign64|minDen64), prec: 53, fallback: true},
	}
	// The same exact-tie product with the tie-breaking addend only in
	// the shadow: the fixed path rounds the jammed sum once.
	tie := nativeLane(fmadd, false, f64(0.1), f64(1.5), 0)
	tie.sh[2] = val{x: fixedOf64(sign64 | minDen64), set: true}
	dz := nativeLane(div, false, f64(1), f64(3), 0)
	dz.sh[1] = val{set: true}
	zz := dz
	zz.sh[0] = val{set: true}
	neg := nativeLane(sqrt, false, f64(2), 0, 0)
	neg.sh[0] = set(-2)
	ovf := nativeLane(add, false, f64(1e308), f64(1e307), 0)
	ovf.sh[0], ovf.sh[1] = set(math.MaxFloat64), set(math.MaxFloat64)
	ovfMul := nativeLane(mul, false, f64(1e300), f64(1e8), 0)
	ovfMul.sh[1] = set(1e9)
	// 113-bit shadows whose quotient and root sit a hair (under 2^−128
	// relative) above a 113-bit rounding tie: only the sticky
	// remainder rounds them up.
	qTie := nativeLane(div, false, f64(1.5), f64(1.5), 0)
	qTie.sh[0] = val{x: fixed{hi: 0xc473e7953f000f5a, lo: 0xaefc8614b2cc8000}, set: true}
	qTie.sh[1] = val{x: fixed{hi: 0xc4b6937729676899, lo: 0x50264aeb6dab8000}, set: true}
	rTie := nativeLane(sqrt, false, f64(1.5), 0, 0)
	rTie.sh[0] = val{x: fixed{hi: 0x9415fc78ba31bc04, lo: 0x0db1f64599e88000}, set: true}
	// Only the shadow sum is wider than W: big.Float rounds it onto
	// the 24-bit tie first.
	farTie := nativeLane(add, false, f64(tie24), f64(math.Ldexp(1, -100)), 0)
	farTie.sh[1] = set(math.Ldexp(1, -300))
	// Shadows that dwarf, or vanish against, the native result: sh − out
	// is wider than W, which changes neither the capped nor the
	// integral ulp count.
	huge := nativeLane(mul, false, f64(1), f64(2), 0)
	huge.sh[0] = set(math.Ldexp(1, 400))
	tiny := nativeLane(add, false, f64(1), f64(1), 0)
	tiny.sh[0], tiny.sh[1] = set(math.Ldexp(3, -400)), set(math.Ldexp(-1, -400))
	cases = append(cases,
		tc{name: "shadow dwarfs native", ln: huge, prec: 113},
		tc{name: "shadow vanishes against native", ln: tiny, prec: 113},
		tc{name: "off-tie p24 far, shadow", ln: farTie, prec: 24, fallback: true},
		tc{name: "quotient above a 113-bit tie", ln: qTie, prec: 113},
		tc{name: "root above a 113-bit tie", ln: rTie, prec: 113},
		tc{name: "pinned fmadd tie, shadow addend", ln: tie, prec: 53},
		tc{name: "pinned fmadd tie, shadow addend 113", ln: tie, prec: 113},
		tc{name: "x/0 shadow", ln: dz, prec: 113},
		tc{name: "0/0 shadow", ln: zz, prec: 113},
		tc{name: "sqrt negative shadow", ln: neg, prec: 53},
		tc{name: "overflow p53 add", ln: ovf, prec: 53},
		tc{name: "overflow p53 mul", ln: ovfMul, prec: 53},
		tc{name: "overflow p113 mul", ln: ovfMul, prec: 113},
	)
	for _, c := range cases {
		fell := checkLane(t, &c.ln, c.prec)
		if fell != c.fallback {
			t.Errorf("%s: fallback = %v, want %v", c.name, fell, c.fallback)
		}
	}
	for _, name := range []string{"x/0 shadow", "0/0 shadow", "sqrt negative shadow", "overflow p53 add", "overflow p53 mul"} {
		for _, c := range cases {
			if c.name == name {
				if r, _ := evalFixed(&c.ln, c.prec, widePrec(c.prec)); r.class != SampleNonFinite {
					t.Errorf("%s: class %v, want nonfinite", name, r.class)
				}
			}
		}
	}
}

// FuzzShadowLane drives the lane differential over arbitrary native
// operands, forms, precisions and shadow drift.
func FuzzShadowLane(f *testing.F) {
	f.Add(uint8(0), uint8(4), math.Float64bits(1), math.Float64bits(math.Ldexp(1, -300)), uint64(0), uint8(0), uint64(0))
	f.Add(uint8(7), uint8(1), math.Float64bits(0.1), math.Float64bits(1.5), sign64|minDen64, uint8(0), uint64(0))
	f.Add(uint8(3), uint8(4), math.Float64bits(1), math.Float64bits(3), uint64(0), uint8(2), uint64(9))
	f.Add(uint8(4), uint8(2), math.Float64bits(2), uint64(0), uint64(0), uint8(1), uint64(3))
	f.Add(uint8(0x11), uint8(0), uint64(math.Float32bits(1.5)), uint64(math.Float32bits(1e-3)), uint64(math.Float32bits(-2)), uint8(7), uint64(5))
	f.Fuzz(func(t *testing.T, op, prec uint8, a, b, c uint64, drift uint8, seed uint64) {
		fm := laneForms[int(op&0x0F)%len(laneForms)]
		p := diffPrecs[int(prec)%len(diffPrecs)]
		ln := nativeLane(fm, op&0x10 != 0, a, b, c)
		for i := 0; i < ln.arity(); i++ {
			if drift>>uint(i)&1 != 0 {
				if v, ok := drifted(ln.nat[i], ln.single, p, seed+uint64(i)); ok {
					ln.sh[i] = v
				}
			}
		}
		checkLane(t, &ln, p)
	})
}

// TestFixedConversions pins the conversions the evaluator rests on:
// binary64/32 in and out exactly, and big.Float round trips.
func TestFixedConversions(t *testing.T) {
	for _, b := range corpus64() {
		if !finite64(b) {
			continue
		}
		x := fixedOf64(b)
		if got := math.Float64bits(x.acc().float64()); got != b {
			t.Fatalf("float64 round trip %#x -> %#x", b, got)
		}
		if got := nativeBits64(x.big()); got != b {
			t.Fatalf("big of %#x -> %#x", b, got)
		}
		if y := fixedOfBig(bigOf64(b)); y != x {
			t.Fatalf("fixedOfBig(%#x) = %+v, want %+v", b, y, x)
		}
	}
	for _, b := range corpus32() {
		if !finite32(b) {
			continue
		}
		if got := math.Float32bits(fixedOf32(b).acc().float32()); got != b {
			t.Fatalf("float32 round trip %#x -> %#x", b, got)
		}
	}
}

// TestShadowLaneAllocs is the allocation gate: at p = 113 a shadowed
// lane with drifted operands allocates nothing on the fixed path.
func TestShadowLaneAllocs(t *testing.T) {
	lanes := []lane{
		drift(nativeLane(laneForms[0], false, math.Float64bits(0.1), math.Float64bits(0.7), 0), 0, 113, 1),
		drift(nativeLane(laneForms[3], false, math.Float64bits(1), math.Float64bits(3), 0), 1, 113, 2),
		drift(nativeLane(laneForms[4], false, math.Float64bits(2), 0, 0), 0, 113, 3),
		drift(nativeLane(laneForms[7], true, uint64(math.Float32bits(0.1)), uint64(math.Float32bits(3)), uint64(math.Float32bits(1))), 2, 113, 4),
	}
	ch := &Channel{prec: 113, wide: widePrec(113), fixed: true}
	for i := range lanes {
		ln := &lanes[i]
		if allocs := testing.AllocsPerRun(100, func() { ch.evalLane(ln) }); allocs >= 1 {
			t.Errorf("lane %d: %.1f allocs per evaluation, want < 1", i, allocs)
		}
	}
	if ch.stats.Fallbacks != 0 {
		t.Errorf("%d gate lanes fell back to big.Float", ch.stats.Fallbacks)
	}
}
