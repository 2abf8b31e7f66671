package softfloat

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// path is one way to compute an op, under the name a failure prints.
type path[F any] struct {
	name string
	op   F
}

// both pairs an exported op with its integer code, so that a suite
// checks the host path and the integer path alike.
func both[F any](name string, exported, integer F) []path[F] {
	return []path[F]{{name, exported}, {"integer " + name, integer}}
}

// add32 … fma32 name each guarded binary32 op's integer code, via64, as
// add64 and kin name binary64's.
func add32(a, b uint32, env Env) (uint32, Flags)    { return via64(OpAdd, a, b, b, env) }
func sub32(a, b uint32, env Env) (uint32, Flags)    { return via64(OpSub, a, b, b, env) }
func mul32(a, b uint32, env Env) (uint32, Flags)    { return via64(OpMul, a, b, b, env) }
func div32(a, b uint32, env Env) (uint32, Flags)    { return via64(OpDiv, a, b, b, env) }
func sqrt32(a uint32, env Env) (uint32, Flags)      { return via64(OpSqrt, a, a, a, env) }
func fma32(a, b, c uint32, env Env) (uint32, Flags) { return via64(OpFMAdd, a, b, c, env) }

// hostOp is one guarded op on patterns held in uint64 (a binary32
// pattern in the low half), exported and as integer code.
type hostOp struct {
	name          string
	wide          bool // binary64
	host, integer func(a, b, c uint64, env Env) (uint64, Flags)
}

func bin64(name string, host, integer func(a, b uint64, env Env) (uint64, Flags)) hostOp {
	return hostOp{name, true,
		func(a, b, _ uint64, env Env) (uint64, Flags) { return host(a, b, env) },
		func(a, b, _ uint64, env Env) (uint64, Flags) { return integer(a, b, env) }}
}

func bin32(name string, host, integer func(a, b uint32, env Env) (uint32, Flags)) hostOp {
	return hostOp{name, false,
		func(a, b, _ uint64, env Env) (uint64, Flags) {
			z, f := host(uint32(a), uint32(b), env)
			return uint64(z), f
		},
		func(a, b, _ uint64, env Env) (uint64, Flags) {
			z, f := integer(uint32(a), uint32(b), env)
			return uint64(z), f
		}}
}

var hostOps = []hostOp{
	bin64("Add64", Add64, add64),
	bin64("Sub64", Sub64, sub64),
	bin64("Mul64", Mul64, mul64),
	bin64("Div64", Div64, div64),
	bin64("Sqrt64",
		func(a, _ uint64, env Env) (uint64, Flags) { return Sqrt64(a, env) },
		func(a, _ uint64, env Env) (uint64, Flags) { return sqrt64(a, env) }),
	bin32("Add32", Add32, add32),
	bin32("Sub32", Sub32, sub32),
	bin32("Mul32", Mul32, mul32),
	bin32("Div32", Div32, div32),
	bin32("Sqrt32",
		func(a, _ uint32, env Env) (uint32, Flags) { return Sqrt32(a, env) },
		func(a, _ uint32, env Env) (uint32, Flags) { return sqrt32(a, env) }),
	{"FMA32", false,
		func(a, b, c uint64, env Env) (uint64, Flags) {
			z, f := FMA32(uint32(a), uint32(b), uint32(c), env)
			return uint64(z), f
		},
		func(a, b, c uint64, env Env) (uint64, Flags) {
			z, f := fma32(uint32(a), uint32(b), uint32(c), env)
			return uint64(z), f
		}},
}

// hostEnvs is every environment: four rounding modes, FTZ and DAZ.
func hostEnvs() []Env {
	var envs []Env
	for rm := RoundNearestEven; rm <= RoundToZero; rm++ {
		for _, ftz := range []bool{false, true} {
			for _, daz := range []bool{false, true} {
				envs = append(envs, Env{RM: rm, FTZ: ftz, DAZ: daz})
			}
		}
	}
	return envs
}

// format describes binary32 or binary64 for the generators, with the
// host band [lo, hi].
type format struct {
	bias, maxExp, fracBits, lo, hi int
	sign                           uint64
}

var (
	binary32 = format{127, 0xFF, 23, hostLo32, hostHi32, 1 << 31}
	binary64 = format{1023, 0x7FF, 52, hostLo64, hostHi64, 1 << 63}
)

func (op hostOp) format() format {
	if op.wide {
		return binary64
	}
	return binary32
}

// pattern assembles a pattern of format f from its fields.
func (f format) pattern(neg bool, exp int, frac uint64) uint64 {
	x := uint64(exp)<<f.fracBits | frac&(1<<f.fracBits-1)
	if neg {
		x |= f.sign
	}
	return x
}

// boundExps are the exponent fields at and around the guard's bounds,
// around 1.0, and at both ends of the format.
func (f format) boundExps() []int {
	return []int{0, 1, f.lo - 1, f.lo, f.lo + 1, f.bias - 1, f.bias, f.bias + 1,
		f.hi - 1, f.hi, f.hi + 1, f.maxExp}
}

// hostCase is one input of the edge corpus or the sweep.
type hostCase struct{ a, b, c uint64 }

// hostEdges is op's edge corpus: operands crossed at the bounds,
// results steered onto each bound, cancellations, products and
// quotients rounding up into the smallest normal, and binary32
// midpoints reached through FMA32 sums.
func hostEdges(op hostOp) []hostCase {
	f := op.format()
	var vals []uint64
	for _, e := range f.boundExps() {
		for _, fr := range []uint64{0, 1, 1 << (f.fracBits - 1), 1<<f.fracBits - 1} {
			vals = append(vals, f.pattern(false, e, fr), f.pattern(true, e, fr))
		}
	}
	var cs []hostCase
	for i, a := range vals {
		for j, b := range vals {
			// FMA32 crosses a sample of addends: the full cube is large.
			cs = append(cs, hostCase{a, b, vals[(i*7+j*13)%len(vals)]})
		}
	}
	r := rand.New(rand.NewSource(int64(len(op.name)) * 31))
	for range 2000 {
		cs = append(cs, steered(op, r))
	}
	one := f.pattern(false, f.bias, 0)
	for _, e := range []int{f.lo, f.lo + 1, f.bias, f.hi - 1, f.hi} {
		for j := uint64(0); j < 4; j++ {
			// Cancellations: x - (x ± j ulp), through Add as x + -(…).
			x := f.pattern(false, e, 0x5A5A5A5A5A5A5A5A)
			cs = append(cs, hostCase{x, x - 2 + j, one}, hostCase{x, (x + j) | f.sign, one})
		}
	}
	// Results rounding up to the smallest binary32 normal from below
	// 2^-126 - 2^-151, tiny under tininess after rounding: two products
	// of 24-bit significands in (2^47 - 2^23, 2^47 - 2^22] ·2^-173, and
	// (2 - 2^-23)·2^-127 by product and by quotient.
	bits32 := func(m float64, e int) uint64 { return uint64(math.Float32bits(float32(math.Ldexp(m, e)))) }
	cs = append(cs,
		hostCase{bits32(8390057, -83), bits32(16774318, -90), bits32(1, -140)},
		hostCase{bits32(8390060, -83), bits32(16774312, -90), bits32(-1, -110)},
		hostCase{bits32(0xFFFFFF, -83), bits32(1, -67), bits32(1, -126)},
		hostCase{bits32(0xFFFFFF, -83), bits32(1, 67), bits32(1, -100)},
		hostCase{bits32(0xFFFFFF, -100), bits32(1, 50), bits32(1, 0)},
	)
	// FMA32 cancellations: the addend is minus the rounded product,
	// give or take an ulp.
	for k := range 8 {
		a, b := bits32(float64(0xC00001+k*0x10101), -23), bits32(float64(0xABCDEF-k*0x1111), -20)
		p, _ := Mul32(uint32(a), uint32(b), Env{})
		for d := -1; d <= 1; d++ {
			cs = append(cs, hostCase{a, b, uint64(p+uint32(d)) ^ 1<<31})
		}
	}
	// Binary32 midpoints through FMA32: (1 + k1·2^-12)(1 + k2·2^-12)
	// with odd k1, k2 has its last bit at 2^-24, half a binary32 ulp,
	// and an addend far below it leaves the binary64 sum on that
	// midpoint, though the exact sum lies to one side of it.
	for k1 := 1; k1 < 64; k1 += 2 {
		for _, sc := range []int{-60, 0, 40} {
			a := bits32(float64(1<<12+k1), -12+sc)
			b := bits32(float64(1<<12+k1*5%4096|1), -12)
			for _, e := range []int{30, 54, 60, 80} {
				cs = append(cs, hostCase{a, b, bits32(1, sc-e)}, hostCase{a, b, bits32(-1, sc-e)})
			}
		}
	}
	// Sums needing TwoSum: the binary64 sum of two binary32 values is
	// itself a binary32 value, yet inexact.
	cs = append(cs, hostCase{bits32(1, 0), bits32(1, -60), one}, hostCase{bits32(-3, 100), bits32(1, -90), one})
	return cs
}

// steered draws operands whose result lands within two of a bound of
// the host band, of the subnormal range, or of overflow.
func steered(op hostOp, r *rand.Rand) hostCase {
	f := op.format()
	targets := []int{1, f.lo, f.hi, f.maxExp - 1}
	t := targets[r.Intn(len(targets))] + r.Intn(5) - 2
	frac := func() uint64 { return r.Uint64() >> (r.Intn(4) * 16) }
	ea := f.bias + r.Intn(81) - 40
	var eb int
	name := op.name[:len(op.name)-2]
	switch name {
	case "Mul", "FMA":
		eb = t - ea + f.bias
	case "Div":
		eb = ea - t + f.bias
	case "Sqrt":
		ea, eb = 2*(t-f.bias)+f.bias, f.bias
	default: // Add, Sub: the larger operand sits at the target
		ea, eb = t, t-r.Intn(f.fracBits+4)
	}
	clamp := func(e int) int { return max(0, min(e, f.maxExp)) }
	c := f.pattern(r.Intn(2) == 0, clamp(t-r.Intn(f.fracBits+4)), frac())
	return hostCase{f.pattern(r.Intn(4) == 0, clamp(ea), frac()), f.pattern(r.Intn(2) == 0, clamp(eb), frac()), c}
}

// sweepCase draws a random input: mostly normal operands near 1 that
// the host path takes, else steered to a bound or any pattern at all.
func sweepCase(op hostOp, r *rand.Rand) hostCase {
	f := op.format()
	switch r.Intn(8) {
	case 0, 1:
		return steered(op, r)
	case 2:
		if op.wide {
			return hostCase{randPattern64(r), randPattern64(r), randPattern64(r)}
		}
		return hostCase{uint64(randPattern32(r)), uint64(randPattern32(r)), uint64(randPattern32(r))}
	}
	near := func() uint64 { return f.pattern(r.Intn(2) == 0, f.bias+r.Intn(61)-30, r.Uint64()) }
	return hostCase{near(), near(), near()}
}

// checkHost compares op's two paths on one input under env.
func checkHost(t *testing.T, op hostOp, in hostCase, env Env) {
	t.Helper()
	z, fl := op.host(in.a, in.b, in.c, env)
	wz, wfl := op.integer(in.a, in.b, in.c, env)
	if z != wz || fl != wfl {
		t.Fatalf("%s(%#x, %#x, %#x) %+v = %#x %v, integer path %#x %v",
			op.name, in.a, in.b, in.c, env, z, fl, wz, wfl)
	}
}

// TestHostPathMatchesInteger pins each guarded op's host path to its
// integer code, bit for bit in value and flags: the edge corpus under
// the default environment and under one of the others in turn (the
// guard must refuse them all), then a seeded random sweep, mostly in the
// default environment.
func TestHostPathMatchesInteger(t *testing.T) {
	envs := hostEnvs()
	for _, op := range hostOps {
		t.Run(op.name, func(t *testing.T) {
			for k, in := range hostEdges(op) {
				checkHost(t, op, in, Env{})
				checkHost(t, op, in, envs[1+k%(len(envs)-1)])
			}
			r := rand.New(rand.NewSource(int64(len(op.name))*7 + int64(op.name[0])))
			for range 30000 {
				env := Env{}
				if r.Intn(8) == 0 {
					env = envs[r.Intn(len(envs))]
				}
				checkHost(t, op, sweepCase(op, r), env)
			}
		})
	}
}

// FuzzHostPathMatchesInteger is TestHostPathMatchesInteger's property on
// fuzzed inputs: op selects the guarded op, env's low bits the rounding
// mode, FTZ and DAZ.
func FuzzHostPathMatchesInteger(f *testing.F) {
	for i, op := range hostOps {
		for j, in := range hostEdges(op) {
			if j%997 == 0 {
				f.Add(uint8(i), in.a, in.b, in.c, uint8(j%16))
			}
		}
	}
	envs := hostEnvs()
	f.Fuzz(func(t *testing.T, opSel uint8, a, b, c uint64, env uint8) {
		checkHost(t, hostOps[int(opSel)%len(hostOps)], hostCase{a, b, c}, envs[env%16])
	})
}

// TestLanesMatchScalar pins both lane kernels to the scalar ops bit for
// bit: every op, every lane count (1 to 16 binary32 lanes, 1 to 8
// binary64 lanes) and some write masks, with flags OR'd across the
// active lanes; inactive lanes, and the high half of the last word of an
// odd binary32 count, keep the destination's prior contents.
func TestLanesMatchScalar(t *testing.T) {
	const words = 8
	r := rand.New(rand.NewSource(11))
	word := func(wide bool) uint64 {
		if wide {
			return sweepCase(hostOps[0], r).a
		}
		return sweepCase(hostOps[5], r).a | sweepCase(hostOps[5], r).a<<32
	}
	for op := OpAdd; op <= OpFNMSub; op++ {
		for _, wide := range []bool{true, false} {
			lanes := 2 * words
			if wide {
				lanes = words
			}
			masks := []uint64{0, 0x5555, 0xA5C3, 1<<lanes - 2}
			for n := 1; n <= lanes; n++ {
				masks = append(masks, 1<<n-1)
			}
			for trial := range 20 {
				var a, b, c, prior [words]uint64
				for w := range words {
					a[w], b[w], c[w], prior[w] = word(wide), word(wide), word(wide), word(wide)
				}
				mask := masks[trial%len(masks)] & (1<<lanes - 1)
				want, wfl := scalarLanes(op, wide, a, b, c, prior, mask)
				dst := prior
				var fl Flags
				if wide {
					fl = Lanes64(op, dst[:], a[:], b[:], c[:], mask, Env{})
				} else {
					fl = Lanes32(op, dst[:], a[:], b[:], c[:], mask, Env{})
				}
				if dst != want || fl != wfl {
					t.Fatalf("op %d wide=%v mask %#x: dst %#x flags %v, scalar %#x flags %v",
						op, wide, mask, dst, fl, want, wfl)
				}
				if n := 64 - bits.LeadingZeros64(mask); !wide && n%2 == 1 && dst[n/2]>>32 != prior[n/2]>>32 {
					t.Fatalf("op %d: %d lanes rewrote the high half of word %d", op, n, n/2)
				}
			}
		}
	}
}

// scalarLanes is the lane kernels' specification: each active lane
// through the scalar op, flags OR'd. hostOps lists Add64 to Sqrt64, then
// Add32 to Sqrt32, in the order of OpAdd to OpSqrt.
func scalarLanes(op Op, wide bool, a, b, c, dst [8]uint64, mask uint64) ([8]uint64, Flags) {
	var fl Flags
	for i := 0; i < 16; i++ {
		if mask>>i&1 == 0 {
			continue
		}
		if wide {
			x, y, w := a[i], b[i], c[i]
			var z uint64
			var f Flags
			switch op {
			case OpAdd, OpSub, OpMul, OpDiv, OpSqrt:
				z, f = hostOps[op].host(x, y, 0, Env{})
			case OpMin:
				z, f = Min64(x, y, Env{})
			case OpMax:
				z, f = Max64(x, y, Env{})
			default:
				if op == OpFNMAdd || op == OpFNMSub {
					x ^= f64SignMask
				}
				if op == OpFMSub || op == OpFNMSub {
					w ^= f64SignMask
				}
				z, f = FMA64(x, y, w, Env{})
			}
			dst[i], fl = z, fl|f
			continue
		}
		sh := 32 * uint(i%2)
		x, y, w := uint32(a[i/2]>>sh), uint32(b[i/2]>>sh), uint32(c[i/2]>>sh)
		var z uint32
		var f Flags
		switch op {
		case OpAdd, OpSub, OpMul, OpDiv, OpSqrt:
			var z64 uint64
			z64, f = hostOps[5+op].host(uint64(x), uint64(y), 0, Env{})
			z = uint32(z64)
		case OpMin:
			z, f = Min32(x, y, Env{})
		case OpMax:
			z, f = Max32(x, y, Env{})
		default:
			if op == OpFNMAdd || op == OpFNMSub {
				x ^= f32SignMask
			}
			if op == OpFMSub || op == OpFNMSub {
				w ^= f32SignMask
			}
			z, f = FMA32(x, y, w, Env{})
		}
		dst[i/2] = dst[i/2]&^(0xFFFFFFFF<<sh) | uint64(z)<<sh
		fl |= f
	}
	return dst, fl
}
