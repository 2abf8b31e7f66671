package shadow

import (
	"math"
	"math/big"

	"repro/internal/isa"
)

// val is the shadow of one register word or memory slot. The zero val
// means "equal to the native value". At precisions up to maxFixedPrec
// the value is the fixed-width x; above them it is big.
type val struct {
	x   fixed
	big *big.Float
	set bool
}

// bigVal returns the shadow as a big.Float, converting a fixed-width
// value exactly.
func (v val) bigVal() *big.Float {
	if v.big != nil {
		return v.big
	}
	return v.x.big()
}

// lane is one shadow-executed lane: the op, the native operand and
// result bits (binary32 patterns in the low half when single), and the
// operands' shadows.
type lane struct {
	single bool
	fma    bool
	fp     isa.FPOp
	v      isa.FMAVariant
	nat    [3]uint64
	out    uint64
	sh     [3]val
}

// arity is the number of operands the lane reads.
func (ln *lane) arity() int {
	if ln.fma {
		return 3
	}
	return 2
}

// finite reports whether every native operand and the native result is
// finite; lanes that are not skip shadow execution under the NaN/Inf
// policy.
func (ln *lane) finite() bool {
	for i := 0; i < ln.arity(); i++ {
		if !ln.finiteBits(ln.nat[i]) {
			return false
		}
	}
	return ln.finiteBits(ln.out)
}

func (ln *lane) finiteBits(b uint64) bool {
	if ln.single {
		return finite32(uint32(b))
	}
	return finite64(b)
}

func (ln *lane) fixedOf(b uint64) fixed {
	if ln.single {
		return fixedOf32(uint32(b))
	}
	return fixedOf64(b)
}

func (ln *lane) bigOf(b uint64) *big.Float {
	if ln.single {
		return bigOf32(uint32(b))
	}
	return bigOf64(b)
}

// native rounds x to the lane's native format, as bits.
func (ln *lane) native(x acc) uint64 {
	if ln.single {
		return uint64(math.Float32bits(x.float32()))
	}
	return math.Float64bits(x.float64())
}

// dist is Dist64 or Dist32 from the native result to bits b.
func (ln *lane) dist(b uint64) uint64 {
	if ln.single {
		d, _ := Dist32(uint32(ln.out), uint32(b))
		return d
	}
	d, _ := Dist64(ln.out, b)
	return d
}

// ulpExp is ulpExp64 or ulpExp32 of the native result.
func (ln *lane) ulpExp() int {
	if ln.single {
		return ulpExp32(uint32(ln.out))
	}
	return ulpExp64(ln.out)
}

// laneResult is one shadow-executed lane comparison.
type laneResult struct {
	class SampleClass
	sh    val
	local float64
	rel   float64
	total float64
	dist  uint64
}

// evalBig evaluates a lane in big.Float at wide bits, the reference
// semantics: the path for precisions above maxFixedPrec and for lanes
// the fixed-width evaluator cannot certify. Local error recomputes the
// op from the native inputs against the native output; the shadow
// result reuses that evaluation unless a shadow operand has drifted.
func evalBig(ln *lane, prec, wide uint) laneResult {
	var nat, ops [3]*big.Float
	drift := false
	for i := 0; i < ln.arity(); i++ {
		nat[i] = ln.bigOf(ln.nat[i])
		ops[i] = nat[i]
		if ln.sh[i].set {
			ops[i], drift = ln.sh[i].bigVal(), true
		}
	}
	eval := func(o [3]*big.Float) (*big.Float, bool) {
		if ln.fma {
			return evalFMA(ln.v, o[0], o[1], o[2], wide)
		}
		return evalArith(ln.fp, o[0], o[1], wide)
	}
	rLocal, ok := eval(nat)
	if !ok {
		return laneResult{class: SampleNonFinite}
	}
	outB := ln.bigOf(ln.out)
	diff := new(big.Float).SetPrec(wide).Sub(rLocal, outB)
	rel := relErr(diff, rLocal)

	rShadow := rLocal
	if drift {
		if rShadow, ok = eval(ops); !ok {
			return laneResult{class: SampleNonFinite}
		}
	}
	var sh *big.Float
	if ln.single {
		sh = roundShadow32(rShadow, prec)
	} else {
		sh = roundShadow64(rShadow, prec)
	}
	if sh.IsInf() {
		return laneResult{class: SampleNonFinite}
	}
	totalDiff := new(big.Float).SetPrec(wide).Sub(sh, outB)
	r := laneResult{sh: val{big: sh, set: true}, rel: rel}
	if ln.single {
		r.local = fracUlps32(diff, uint32(ln.out))
		r.total = fracUlps32(totalDiff, uint32(ln.out))
		r.dist = ln.dist(uint64(nativeBits32(sh)))
	} else {
		r.local = fracUlps64(diff, ln.out)
		r.total = fracUlps64(totalDiff, ln.out)
		r.dist = ln.dist(nativeBits64(sh))
	}
	r.class = classify(r.dist, r.local)
	return r
}

func classify(dist uint64, local float64) SampleClass {
	switch {
	case dist > 0:
		return SampleDiverged
	case local > 0:
		return SampleRounded
	}
	return SampleExact
}

// evalFixed is evalBig in the fixed-width number system, bit for bit.
// It differs from big.Float's W-bit evaluation only where that
// evaluation rounds before the shadow rounding; ok is false for those
// lanes (an exact intermediate wider than W bits), for exponents
// outside the fixed range, and for roundings the approximate residual
// paths cannot settle. Callers send such lanes to evalBig.
//
// The shadow value is the correctly rounded p-bit result: big.Float's
// W-bit rounding before it is innocuous at W ≥ 3p+8 (quotients and
// roots of p-bit operands cannot fall within 2^−W of a p-bit midpoint
// without being one), and evalFMA's round-to-odd tail never disturbs
// a later rounding. Local error is the residual op(native) − out,
// exact for sums and products, and for quotients and roots the
// remainders a − out·b and a − out², divided once.
func evalFixed(ln *lane, prec, wide uint) (laneResult, bool) {
	var nat, ops [3]fixed
	for i := 0; i < ln.arity(); i++ {
		nat[i] = ln.fixedOf(ln.nat[i])
		ops[i] = nat[i]
		if ln.sh[i].set {
			ops[i] = ln.sh[i].x
		}
	}
	out := ln.fixedOf(ln.out)
	u := ln.ulpExp()
	local, rel, ok := localErr(ln, nat, out, u)
	if !ok {
		return laneResult{}, false
	}
	x, finite, ok := evalOp(ln, ops, wide)
	switch {
	case !ok:
		return laneResult{}, false
	case !finite:
		return laneResult{class: SampleNonFinite}, true
	}
	var sh fixed
	if ln.single && prec == 24 || !ln.single && prec == 53 {
		// The native format itself, as roundShadow64/32 bound it.
		b := ln.native(x)
		if !ln.finiteBits(b) {
			return laneResult{class: SampleNonFinite}, true
		}
		sh = ln.fixedOf(b)
	} else if sh, ok = x.round(prec); !ok {
		return laneResult{}, false
	}
	// sh − out needs no W-bit check: when it is wider than W bits one
	// side dwarfs the other, and the ulp count is either capped or the
	// native result's own integer ulp count whichever way it rounds.
	d := sub(sh.acc(), out.acc())
	r := laneResult{sh: val{x: sh, set: true}, local: local, rel: rel, total: ulps(d, u),
		dist: ln.dist(ln.native(sh.acc()))}
	r.class = classify(r.dist, r.local)
	return r, true
}

// evalOp evaluates the lane's op over o: exact sums and products,
// 128-bit quotients and roots with sticky remainders, all of which
// round once to any precision up to maxFixedPrec. finite is false
// where evalArith refuses or yields Inf (x/0, 0/0, the root of a
// negative). ok is false for a sum wider than wide bits, which
// big.Float rounds at W before the shadow rounding. An FMA sum needs
// no such check: evalFMA rounds it to odd, which the shadow rounding
// sees through.
func evalOp(ln *lane, o [3]fixed, wide uint) (x acc, finite, ok bool) {
	a, b := o[0], o[1]
	if ln.fma {
		p := mul(a, b)
		if ln.v == isa.FNMAdd || ln.v == isa.FNMSub {
			p = p.negate()
		}
		c := o[2].acc()
		if ln.v == isa.FMSub || ln.v == isa.FNMSub {
			c = c.negate()
		}
		return add(&p, &c), true, true
	}
	switch ln.fp {
	case isa.FPAdd, isa.FPSub:
		x, y := a.acc(), b.acc()
		if ln.fp == isa.FPSub {
			y = y.negate()
		}
		x = add(&x, &y)
		return x, true, !x.inexact || sumSpan(a, b) <= int(wide)
	case isa.FPMul:
		return mul(a, b), true, true
	case isa.FPDiv:
		if b.zero() {
			return acc{}, false, true
		}
		return div(a, b), true, true
	case isa.FPSqrt:
		if a.neg && !a.zero() {
			return acc{}, false, true
		}
		return sqrt(a), true, true
	case isa.FPMin:
		if cmp(a, b) < 0 {
			return a.acc(), true, true
		}
		return b.acc(), true, true
	case isa.FPMax:
		if cmp(a, b) > 0 {
			return a.acc(), true, true
		}
		return b.acc(), true, true
	}
	return acc{}, false, true
}

// sumSpan bounds the bits the exact sum of a and b can need, from one
// above the larger leading bit down to the smaller lowest set bit.
func sumSpan(a, b fixed) int {
	if a.zero() || b.zero() {
		return 0
	}
	return int(max(a.exp, b.exp)) + 2 - min(a.lsb(), b.lsb())
}

// localErr measures what the native op's own rounding introduced: local
// is |op(native) − out| in ulps of out, rel the same residual over the
// exact result (fracUlps64/32 and relErr in the fixed-width system).
func localErr(ln *lane, nat [3]fixed, out fixed, u int) (local, rel float64, ok bool) {
	a, b := nat[0], nat[1]
	if !ln.fma && (ln.fp == isa.FPDiv || ln.fp == isa.FPSqrt) {
		if a.zero() {
			return 0, 0, true
		}
		var rem acc
		if ln.fp == isa.FPDiv {
			rem = sub(a.acc(), mul(out, b))
		} else {
			rem = sub(a.acc(), mul(out, out))
		}
		if rem.inexact {
			return 0, 0, false
		}
		if rem.zero() {
			return 0, 0, true
		}
		// residual = rem/b for a quotient, rem/(√a + out) for a root;
		// rel = residual/q = rem/a, or residual/√a.
		var res, relq acc
		if ln.fp == isa.FPDiv {
			res, relq = div(rem.trunc(), b), div(rem.trunc(), a)
		} else {
			s := sqrt(a)
			den := out.acc()
			den = add(&s, &den)
			res = div(rem.trunc(), den.trunc())
			relq = div(res.trunc(), s.trunc())
		}
		local, ok1 := res.scale(-u).float64Near()
		rel, ok2 := relq.float64Near()
		return capUlps(local), capUlps(rel), ok1 && ok2
	}
	x, _, _ := evalOp(ln, nat, 0)
	if x.inexact {
		return 0, 0, false
	}
	r := sub(x, out.acc())
	if r.inexact {
		return 0, 0, false
	}
	if r.zero() {
		return 0, 0, true
	}
	rel, ok = div(r.trunc(), x.trunc()).float64Near()
	return ulps(r, u), capUlps(rel), ok
}

// ulps is fracUlps64/32 of an exact difference: |d| in units of 2^u,
// rounded once to float64.
func ulps(d acc, u int) float64 {
	return capUlps(d.scale(-u).float64())
}

func capUlps(f float64) float64 {
	f = math.Abs(f)
	if f > fracUlpCap {
		return fracUlpCap
	}
	return f
}

// big converts x to a big.Float exactly.
func (x fixed) big() *big.Float {
	z := new(big.Float)
	if !x.zero() {
		i := new(big.Int).SetUint64(x.hi)
		i.Lsh(i, 64).Or(i, new(big.Int).SetUint64(x.lo))
		z.SetInt(i).SetMantExp(z, int(x.exp)-127)
	}
	if x.neg {
		z.Neg(z)
	}
	return z
}

// fixedOfBig converts a finite big.Float of at most 128 significant
// bits exactly.
func fixedOfBig(f *big.Float) fixed {
	if f.Sign() == 0 {
		return fixed{neg: f.Signbit()}
	}
	var m big.Float
	e := f.MantExp(&m) // |f| = |m| × 2^e, |m| ∈ [0.5, 1)
	i, _ := m.SetMantExp(&m, 128).Int(nil)
	i.Abs(i)
	lo := new(big.Int).And(i, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
	hi := i.Rsh(i, 64).Uint64()
	return fixed{hi: hi, lo: lo, exp: int32(e - 1), neg: f.Signbit()}
}
