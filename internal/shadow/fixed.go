package shadow

import (
	"math"
	"math/bits"
)

// The fixed-width number system behind shadow precisions up to
// maxFixedPrec. A shadow value is a fixed: sign, exponent and a 128-bit
// significand on two uint64s, held by value so a shadowed lane
// allocates nothing. Arithmetic produces an acc, an unrounded 256-bit
// intermediate that is exact for sums and products of fixed values
// (bits that fall off the bottom are jammed into a sticky bit), and a
// 128-bit quotient or root with a sticky remainder. Rounding an acc
// once gives a correctly rounded p-bit, binary64 or binary32 result.

// maxFixedPrec is the widest shadow precision the fixed-width evaluator
// serves: a 113-bit result plus the round bit and two guard bits fit a
// 128-bit quotient or root.
const maxFixedPrec = 113

// fixedExpLimit bounds the exponent of a fixed-width value. Lanes whose
// results leave ±fixedExpLimit fall back to big.Float, well inside its
// own int32 exponent range.
const fixedExpLimit = 1 << 30

// fixed is a finite binary floating point number:
// |x| = hi:lo × 2^(exp−127), with the top bit of hi set, so exp is the
// exponent of the leading bit. hi == 0 is a zero, signed by neg.
type fixed struct {
	hi, lo uint64
	exp    int32
	neg    bool
}

// acc is an unrounded intermediate: |x| = w × 2^(exp−255), w[3] the
// most significant word with its top bit set (all-zero w is a zero,
// signed by neg). Nonzero bits shifted out below w[0] set its lowest
// bit and inexact.
type acc struct {
	w       [4]uint64
	exp     int
	neg     bool
	inexact bool
}

// fixedOf64 converts a finite binary64 bit pattern exactly.
func fixedOf64(b uint64) fixed {
	neg := b&sign64 != 0
	e := int(b >> 52 & 0x7FF)
	m := b & (1<<52 - 1)
	if e == 0 {
		if m == 0 {
			return fixed{neg: neg}
		}
		n := bits.LeadingZeros64(m)
		return fixed{hi: m << uint(n), exp: int32(-1011 - n), neg: neg}
	}
	return fixed{hi: 1<<63 | m<<11, exp: int32(e - 1023), neg: neg}
}

// fixedOf32 converts a finite binary32 bit pattern exactly.
func fixedOf32(b uint32) fixed {
	neg := b&sign32 != 0
	e := int(b >> 23 & 0xFF)
	m := uint64(b & (1<<23 - 1))
	if e == 0 {
		if m == 0 {
			return fixed{neg: neg}
		}
		n := bits.LeadingZeros64(m)
		return fixed{hi: m << uint(n), exp: int32(-86 - n), neg: neg}
	}
	return fixed{hi: 1<<63 | m<<40, exp: int32(e - 127), neg: neg}
}

func (x fixed) zero() bool { return x.hi == 0 }

func (x fixed) acc() acc {
	return acc{w: [4]uint64{0, 0, x.lo, x.hi}, exp: int(x.exp), neg: x.neg}
}

// lsb returns the exponent of x's lowest set bit (x nonzero).
func (x fixed) lsb() int {
	if x.lo != 0 {
		return int(x.exp) - 127 + bits.TrailingZeros64(x.lo)
	}
	return int(x.exp) - 63 + bits.TrailingZeros64(x.hi)
}

// cmpMag orders |x| against |y|.
func cmpMag(x, y fixed) int {
	switch {
	case x.zero() || y.zero():
		if x.zero() && y.zero() {
			return 0
		}
		if x.zero() {
			return -1
		}
		return 1
	case x.exp != y.exp:
		if x.exp < y.exp {
			return -1
		}
		return 1
	}
	return cmp128(x.hi, x.lo, y.hi, y.lo)
}

// cmp orders x against y by value; the two zeros are equal, as in
// big.Float's Cmp.
func cmp(x, y fixed) int {
	if x.zero() && y.zero() {
		return 0
	}
	xs, ys := !x.zero() && x.neg, !y.zero() && y.neg
	if xs != ys {
		if xs {
			return -1
		}
		return 1
	}
	c := cmpMag(x, y)
	if xs {
		return -c
	}
	return c
}

func cmp128(ah, al, bh, bl uint64) int {
	switch {
	case ah != bh:
		if ah < bh {
			return -1
		}
		return 1
	case al != bl:
		if al < bl {
			return -1
		}
		return 1
	}
	return 0
}

func (a acc) zero() bool { return a.w == [4]uint64{} }

// shr256 shifts w right by n bits, jamming lost bits into the lowest.
func shr256(w [4]uint64, n uint) ([4]uint64, bool) {
	if n >= 256 {
		if w == [4]uint64{} {
			return w, false
		}
		return [4]uint64{1}, true
	}
	var lost uint64
	for ; n >= 64; n -= 64 {
		lost |= w[0]
		w = [4]uint64{w[1], w[2], w[3], 0}
	}
	if n > 0 {
		lost |= w[0] << (64 - n)
		w = [4]uint64{w[0]>>n | w[1]<<(64-n), w[1]>>n | w[2]<<(64-n), w[2]>>n | w[3]<<(64-n), w[3] >> n}
	}
	if lost != 0 {
		w[0] |= 1
	}
	return w, lost != 0
}

// shl256 shifts w left by n < 256 bits.
func shl256(w [4]uint64, n uint) [4]uint64 {
	for ; n >= 64; n -= 64 {
		w = [4]uint64{0, w[0], w[1], w[2]}
	}
	if n > 0 {
		w = [4]uint64{w[0] << n, w[1]<<n | w[0]>>(64-n), w[2]<<n | w[1]>>(64-n), w[3]<<n | w[2]>>(64-n)}
	}
	return w
}

func clz256(w [4]uint64) uint {
	for i := 3; i >= 0; i-- {
		if w[i] != 0 {
			return uint(3-i)*64 + uint(bits.LeadingZeros64(w[i]))
		}
	}
	return 256
}

func cmp256(a, b [4]uint64) int {
	for i := 3; i >= 0; i-- {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

func sub256(a, b [4]uint64) [4]uint64 {
	r0, c := bits.Sub64(a[0], b[0], 0)
	r1, c := bits.Sub64(a[1], b[1], c)
	r2, c := bits.Sub64(a[2], b[2], c)
	r3, _ := bits.Sub64(a[3], b[3], c)
	return [4]uint64{r0, r1, r2, r3}
}

// add returns x + y, exact unless aligning the smaller operand shifts
// nonzero bits out of the 256-bit window. An exactly zero sum is +0
// unless both operands are −0, the round-to-nearest rule of IEEE 754
// and of big.Float.
func add(x, y *acc) (r acc) {
	if y.zero() {
		if x.zero() {
			return acc{neg: x.neg && y.neg}
		}
		return *x
	}
	if x.zero() {
		return *y
	}
	if x.exp < y.exp {
		x, y = y, x
	}
	yw, lost := shr256(y.w, uint(min(x.exp-y.exp, 256)))
	r.exp, r.inexact = x.exp, x.inexact || y.inexact || lost
	if x.neg == y.neg {
		var c uint64
		r.w[0], c = bits.Add64(x.w[0], yw[0], 0)
		r.w[1], c = bits.Add64(x.w[1], yw[1], c)
		r.w[2], c = bits.Add64(x.w[2], yw[2], c)
		r.w[3], c = bits.Add64(x.w[3], yw[3], c)
		r.neg = x.neg
		if c != 0 {
			var l bool
			r.w, l = shr256(r.w, 1)
			r.w[3] |= 1 << 63
			r.exp++
			r.inexact = r.inexact || l
		}
		return r
	}
	switch cmp256(x.w, yw) {
	case 0:
		return acc{}
	case 1:
		r.w, r.neg = sub256(x.w, yw), x.neg
	default:
		r.w, r.neg = sub256(yw, x.w), y.neg
	}
	n := clz256(r.w)
	r.w = shl256(r.w, n)
	r.exp -= int(n)
	return r
}

// sub returns x − y.
func sub(x, y acc) acc {
	y.neg = !y.neg
	return add(&x, &y)
}

// negate returns −a.
func (a acc) negate() acc {
	a.neg = !a.neg
	return a
}

// mul returns the exact product x·y.
func mul(x, y fixed) acc {
	r := acc{neg: x.neg != y.neg}
	if x.zero() || y.zero() {
		return r
	}
	r.w = mul128(x.hi, x.lo, y.hi, y.lo)
	r.exp = int(x.exp) + int(y.exp) + 1
	if r.w[3]>>63 == 0 {
		r.w = shl256(r.w, 1)
		r.exp--
	}
	return r
}

// mul128 returns the 256-bit product ah:al × bh:bl.
func mul128(ah, al, bh, bl uint64) [4]uint64 {
	h0, l0 := bits.Mul64(al, bl)
	h1, l1 := bits.Mul64(al, bh)
	h2, l2 := bits.Mul64(ah, bl)
	h3, l3 := bits.Mul64(ah, bh)
	w1, c1 := bits.Add64(h0, l1, 0)
	w1, c2 := bits.Add64(w1, l2, 0)
	w2, c3 := bits.Add64(h1, h2, 0)
	w2, c4 := bits.Add64(w2, l3, 0)
	w2, c5 := bits.Add64(w2, c1+c2, 0)
	return [4]uint64{l0, w1, w2, h3 + c3 + c4 + c5}
}

// divStep divides u2:u1:u0 by the normalized d1:d0 (u2:u1 < d1:d0),
// returning the 64-bit quotient digit and the 128-bit remainder. The
// estimate from the leading words is at most two too large (Knuth's
// Algorithm D).
func divStep(u2, u1, u0, d1, d0 uint64) (q, r1, r0 uint64) {
	if u2 >= d1 {
		q = ^uint64(0)
	} else {
		q, _ = bits.Div64(u2, u1, d1)
	}
	ph, p0 := bits.Mul64(q, d0)
	p2, p1 := bits.Mul64(q, d1)
	var c uint64
	p1, c = bits.Add64(p1, ph, 0)
	p2 += c
	for p2 > u2 || p2 == u2 && (p1 > u1 || p1 == u1 && p0 > u0) {
		q--
		var b uint64
		p0, b = bits.Sub64(p0, d0, 0)
		p1, b = bits.Sub64(p1, d1, b)
		p2 -= b
	}
	var b uint64
	r0, b = bits.Sub64(u0, p0, 0)
	r1, _ = bits.Sub64(u1, p1, b)
	return q, r1, r0
}

// div returns x/y (y nonzero) as a 128-bit quotient with a sticky
// remainder.
func div(x, y fixed) acc {
	r := acc{neg: x.neg != y.neg}
	if x.zero() {
		return r
	}
	r.exp = int(x.exp) - int(y.exp)
	n2, n1, n0 := x.hi, x.lo, uint64(0) // x·2^128 when |x| < |y| ...
	if cmp128(x.hi, x.lo, y.hi, y.lo) >= 0 {
		n2, n1, n0 = x.hi>>1, x.hi<<63|x.lo>>1, x.lo<<63 // ... x·2^127 otherwise
	} else {
		r.exp--
	}
	q1, r1, r0 := divStep(n2, n1, n0, y.hi, y.lo)
	q0, r1, r0 := divStep(r1, r0, 0, y.hi, y.lo)
	r.w = [4]uint64{0, 0, q0, q1}
	if r1|r0 != 0 {
		r.w[0], r.inexact = 1, true
	}
	return r
}

// sqrt returns √x (x ≥ 0, or −0) as a 128-bit root with a sticky
// remainder.
func sqrt(x fixed) acc {
	r := acc{neg: x.neg}
	if x.zero() {
		return r
	}
	// √x = √N × 2^((exp−127−k)/2) for N = m × 2^k, k ∈ {127, 128}
	// chosen to make the exponent even; N ∈ [2^254, 2^256) puts the
	// root in [2^127, 2^128).
	e := int(x.exp) - 127
	var n [4]uint64
	if (e-128)%2 == 0 {
		n = [4]uint64{0, 0, x.lo, x.hi}
		e -= 128
	} else {
		n = [4]uint64{0, x.lo << 63, x.hi<<63 | x.lo>>1, x.hi >> 1}
		e -= 127
	}
	// A 53-bit estimate of √N / 2^64, then one Newton step dividing by
	// that 64-bit word, then one full 256-by-128 Newton step. Each step
	// doubles the correct bits (53, 106, 212); the +2 keeps the iterate
	// at or above √N so the second quotient fits 128 bits.
	s := math.Sqrt(float64(n[3])*0x1p64 + float64(n[2]))
	y := ^uint64(0)
	if s < 0x1p64 {
		y = uint64(s)
	}
	q2, rem := bits.Div64(0, n[3], y)
	q1, rem := bits.Div64(rem, n[2], y)
	q0, _ := bits.Div64(rem, n[1], y)
	s1, c := bits.Add64(q1, y, 0)
	s2 := q2 + c
	hi, lo := s2<<63|s1>>1, s1<<63|q0>>1
	if s2 > 1 {
		hi, lo = ^uint64(0), ^uint64(0)
	}
	hi, lo = satInc128(hi, lo, 2)
	d1, r1, r0 := divStep(n[3], n[2], n[1], hi, lo)
	d0, _, _ := divStep(r1, r0, n[0], hi, lo)
	lo, c = bits.Add64(lo, d0, 0)
	hi, c = bits.Add64(hi, d1, c)
	hi, lo = c<<63|hi>>1, hi<<63|lo>>1
	hi, lo = satInc128(hi, lo, 1)
	// Step down to ⌊√N⌋.
	for {
		c := cmp256(mul128(hi, lo, hi, lo), n)
		if c <= 0 {
			r.w = [4]uint64{0, 0, lo, hi}
			if c < 0 {
				r.w[0], r.inexact = 1, true
			}
			break
		}
		var b uint64
		lo, b = bits.Sub64(lo, 1, 0)
		hi -= b
	}
	r.exp = 127 + e/2
	return r
}

// satInc128 adds d to hi:lo, saturating at 2^128 − 1.
func satInc128(hi, lo, d uint64) (uint64, uint64) {
	l, c := bits.Add64(lo, d, 0)
	h, c := bits.Add64(hi, 0, c)
	if c != 0 {
		return ^uint64(0), ^uint64(0)
	}
	return h, l
}

// top rounds w to its leading k bits (1 ≤ k ≤ 64), to nearest even,
// right-aligned; a carry out returns 2^k.
func (a acc) top(k uint) uint64 {
	m := a.w[3] >> (64 - k)
	var half, rest bool
	if k < 64 {
		half = a.w[3]>>(63-k)&1 != 0
		rest = a.w[3]<<(k+1) != 0 || a.w[2]|a.w[1]|a.w[0] != 0
	} else {
		half = a.w[2]>>63 != 0
		rest = a.w[2]<<1 != 0 || a.w[1]|a.w[0] != 0
	}
	if half && (rest || m&1 != 0) {
		m++
	}
	return m
}

// pow2 reports whether |a| is a power of two.
func (a acc) pow2() bool {
	return a.w == [4]uint64{0, 0, 0, 1 << 63}
}

// binary rounds |a| to the nearest value of an IEEE binary format with
// m-bit significands and normal exponents emin..emax, ties to even,
// with gradual underflow and overflow to Inf — the rounding of
// big.Float's Float64 and Float32 — and returns its bit pattern.
func (a acc) binary(m uint, emin, emax int) uint64 {
	switch e := a.exp; {
	case a.zero():
	case e > emax:
		return uint64(emax-emin+2) << (m - 1)
	case e >= emin:
		// The implicit bit adds one to the biased exponent, and a
		// rounding carry (a 2^m significand) a second, up to Inf.
		return uint64(e-emin)<<(m-1) + a.top(m)
	case e > emin-int(m):
		return a.top(uint(e - emin + int(m)))
	case e == emin-int(m) && !a.pow2():
		return 1
	}
	return 0
}

func (a acc) float64() float64 {
	b := a.binary(53, -1022, 1023)
	if a.neg {
		b |= sign64
	}
	return math.Float64frombits(b)
}

func (a acc) float32() float32 {
	b := uint32(a.binary(24, -126, 127))
	if a.neg {
		b |= sign32
	}
	return math.Float32frombits(b)
}

// nearTie is the half-width, in units of 2^−64 binary64 ulps, of the
// window around a rounding midpoint inside which float64Near refuses to
// round. An approximation good to a few 128-bit ulps, or a value
// big.Float rounded once at W ≥ 256 bits first, moves less than that.
const nearTie = 16

// float64Near rounds an approximation of a normal-range value to
// binary64. ok is false when the value lies so close to a rounding
// midpoint that the approximation cannot settle the rounding.
func (a acc) float64Near() (float64, bool) {
	if a.zero() {
		return 0, true
	}
	if a.exp < -1022 || a.exp > 1023 {
		return 0, false
	}
	if t := a.w[3]<<53 | a.w[2]>>11; t-(1<<63-nearTie) <= 2*nearTie {
		return 0, false
	}
	return a.float64(), true
}

// round rounds a to p ≤ 113 significant bits, to nearest even, with an
// unbounded exponent. ok is false when the exponent leaves the fixed
// range.
func (a acc) round(p uint) (fixed, bool) {
	if a.zero() {
		return fixed{neg: a.neg}, true
	}
	hi, lo := a.w[3], a.w[2]
	s := 128 - p // discarded bits of hi:lo, 15 ≤ s ≤ 104
	var mh, ml, hh, hl uint64
	if s >= 64 {
		mh, ml = 1<<(s-64)-1, ^uint64(0)
		if s == 64 {
			hl = 1 << 63
		} else {
			hh = 1 << (s - 65)
		}
	} else {
		ml, hl = 1<<s-1, 1<<(s-1)
	}
	th, tl := hi&mh, lo&ml
	up := false
	switch cmp128(th, tl, hh, hl) {
	case 1:
		up = true
	case 0:
		odd := lo>>s&1 != 0
		if s >= 64 {
			odd = hi>>(s-64)&1 != 0
		}
		up = odd || a.w[1]|a.w[0] != 0
	}
	hi, lo = hi&^mh, lo&^ml
	exp := a.exp
	if up {
		ih, il := uint64(0), uint64(1)<<s
		if s >= 64 {
			ih, il = 1<<(s-64), 0
		}
		var c uint64
		lo, c = bits.Add64(lo, il, 0)
		hi, c = bits.Add64(hi, ih, c)
		if c != 0 {
			hi, lo, exp = 1<<63, 0, exp+1
		}
	}
	if exp > fixedExpLimit || exp < -fixedExpLimit {
		return fixed{}, false
	}
	return fixed{hi: hi, lo: lo, exp: int32(exp), neg: a.neg}, true
}

// trunc truncates a to a 128-bit fixed, for the approximate paths.
func (a acc) trunc() fixed {
	return fixed{hi: a.w[3], lo: a.w[2], exp: int32(a.exp), neg: a.neg}
}

// scale returns a × 2^k.
func (a acc) scale(k int) acc {
	a.exp += k
	return a
}
