package softfloat

// Lane kernels: one call retires every lane of a packed vector with a
// single dispatch, accumulating raised flags across lanes exactly as the
// per-lane scalar calls would (SSE packed forms OR each lane's
// conditions into one MXCSR update). The machine's packed-arithmetic
// path leans on them so its opcode switch runs once per vector, not
// once per lane. Both kernels work on 64-bit register words: binary32
// lanes stay packed two to a word, low half first, and are never
// gathered into a scratch array.

// Op selects the operation a lane kernel applies. The four fused forms
// come last, numbered so that bit 1 of op-OpFMAdd negates the product
// and bit 0 the addend.
type Op uint8

const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpSqrt // ignores b
	OpMin
	OpMax
	OpFMAdd  // a*b + c
	OpFMSub  // a*b - c
	OpFNMAdd // -(a*b) + c
	OpFNMSub // -(a*b) - c
)

// Lanes64 computes dst[i] = op(a[i], b[i], c[i]) for each binary64
// lane i whose bit is set in mask; the other lanes neither compute nor
// raise, and keep dst's prior contents (merge masking). A packed form
// of n lanes passes mask 1<<n - 1. The slices must cover every lane
// mask selects; c is read by the FMA forms only, so other ops may pass
// b, and dst may alias any source, since each lane is read before it is
// written. The op switch sits in the loop so that each lane costs one
// call, to the scalar op itself.
func Lanes64(op Op, dst, a, b, c []uint64, mask uint64, env Env) Flags {
	var fl Flags
	for i := 0; mask != 0; i, mask = i+1, mask>>1 {
		if mask&1 == 0 {
			continue
		}
		var z uint64
		var f Flags
		switch op {
		case OpAdd:
			z, f = Add64(a[i], b[i], env)
		case OpSub:
			z, f = Sub64(a[i], b[i], env)
		case OpMul:
			z, f = Mul64(a[i], b[i], env)
		case OpDiv:
			z, f = Div64(a[i], b[i], env)
		case OpSqrt:
			z, f = Sqrt64(a[i], env)
		case OpMin:
			z, f = Min64(a[i], b[i], env)
		case OpMax:
			z, f = Max64(a[i], b[i], env)
		default:
			v := uint64(op - OpFMAdd)
			negProd, negAdd := v>>1<<63, v&1<<63
			z, f = FMA64(a[i]^negProd, b[i], c[i]^negAdd, env)
		}
		dst[i] = z
		fl |= f
	}
	return fl
}

// Lanes32 is Lanes64 for binary32 lanes, which stay packed two to a
// word as in a vector register: lane i is the low half of word i/2 when
// i is even, the high half when odd. A lane mask leaves clear keeps its
// half of the word, so a scalar form (mask 1) keeps word 0's high half.
func Lanes32(op Op, dst, a, b, c []uint64, mask uint64, env Env) Flags {
	var fl Flags
	for i := 0; mask != 0; i, mask = i+1, mask>>1 {
		if mask&1 == 0 {
			continue
		}
		w, sh := i/2, 32*uint(i&1)
		x, y := uint32(a[w]>>sh), uint32(b[w]>>sh)
		var z uint32
		var f Flags
		switch op {
		case OpAdd:
			z, f = Add32(x, y, env)
		case OpSub:
			z, f = Sub32(x, y, env)
		case OpMul:
			z, f = Mul32(x, y, env)
		case OpDiv:
			z, f = Div32(x, y, env)
		case OpSqrt:
			z, f = Sqrt32(x, env)
		case OpMin:
			z, f = Min32(x, y, env)
		case OpMax:
			z, f = Max32(x, y, env)
		default:
			v := uint32(op - OpFMAdd)
			negProd, negAdd := v>>1<<31, v&1<<31
			z, f = FMA32(x^negProd, y, uint32(c[w]>>sh)^negAdd, env)
		}
		dst[w] = dst[w]&^(0xFFFFFFFF<<sh) | uint64(z)<<sh
		fl |= f
	}
	return fl
}
