package machine

import (
	"math/bits"

	"repro/internal/isa"
	"repro/internal/softfloat"
)

// fpStage stages the writeback of a floating point instruction so faults
// can be delivered before any architectural state changes.
type fpStage struct {
	vec    [isa.VecWords]uint64 // staged vector destination
	vecSet bool
	intVal uint64 // staged integer destination
	intSet bool
	raised softfloat.Flags
}

// execFP executes a floating point instruction. It returns a non-nil
// FPEvent when an unmasked exception fires (no writeback), and nil when
// the instruction can retire (writeback done).
func (m *Machine) execFP(inst *isa.Inst, info *isa.OpInfo, idx int, addr uint64) Event {
	c := &m.CPU
	env := c.MXCSR.Env()
	var st fpStage
	st.vec = c.X[inst.Rd]

	switch info.Class {
	case isa.ClassFPArith:
		m.execArith(inst, info, env, &st)
	case isa.ClassFMA:
		m.execFMA(inst, info, env, &st)
	case isa.ClassFPConvert:
		m.execConvert(inst, info, env, &st)
	case isa.ClassFPCompare:
		m.execCompare(inst, info, env, &st)
	case isa.ClassFPRound:
		m.execRound(inst, info, env, &st)
	case isa.ClassFPDot:
		m.execDot(inst, info, env, &st)
	}

	if ev := m.fpRetire(inst, idx, addr, st.raised); ev != nil {
		return ev
	}
	if st.vecSet {
		c.X[inst.Rd] = st.vec
	}
	if st.intSet {
		c.setReg(inst.Rd, st.intVal)
	}
	return nil
}

// fpRetire is the work every floating point instruction shares once its
// arithmetic has produced raised: the sticky flags update whether or
// not a condition is masked, and an unmasked one faults before
// write-back (the returned event). Otherwise the retiring instruction's
// FLOPs are counted and the caller writes its result back. execFP and
// the region loop's scalar binary64 lane both end here.
func (m *Machine) fpRetire(inst *isa.Inst, idx int, addr uint64, raised softfloat.Flags) Event {
	c := &m.CPU
	unmasked := c.MXCSR.Unmasked(raised)
	c.MXCSR.SetFlags(raised)
	if unmasked != 0 {
		return m.fpEventAt(addr, idx, raised, unmasked)
	}
	if m.Flops != nil {
		m.countFlops(inst, inst.Op.Info())
	}
	return nil
}

func stSetLane32(v *[isa.VecWords]uint64, i int, x uint32) {
	shift := 32 * uint(i%2)
	v[i/2] = v[i/2]&^(uint64(0xFFFFFFFF)<<shift) | uint64(x)<<shift
}

// execMask executes mask-register moves; like FP moves they never raise
// flags and never read MXCSR.
func (m *Machine) execMask(inst *isa.Inst) {
	c := &m.CPU
	switch inst.Op {
	case isa.OpKMOVQ:
		c.K[inst.Rd%isa.NumMaskRegs] = c.R[inst.Rs1]
	case isa.OpKMOVRQ:
		c.setReg(inst.Rd, c.K[inst.Rs1%isa.NumMaskRegs])
	}
}

// laneMask returns the live write mask of a masked instruction,
// truncated to its lane count.
func (m *Machine) laneMask(inst *isa.Inst, info *isa.OpInfo) uint64 {
	return m.CPU.K[inst.Rs3%isa.NumMaskRegs] & (1<<uint(info.Lanes) - 1)
}

// cvtSingle reports whether a conversion form is accounted under single
// precision: the forms whose floating point side is binary32. Mixed
// forms (ss2sd, sd2ss) count under their binary32 end, following SDE's
// element-precision attribution.
func cvtSingle(kind isa.ConvertKind) bool {
	switch kind {
	case isa.CvtSD2SS, isa.CvtSS2SD, isa.CvtSI2SS, isa.CvtSI2SSQ,
		isa.CvtSS2SI, isa.CvtTSS2SI, isa.CvtPS2DQ:
		return true
	}
	return false
}

// countFlops credits the SDE-style FLOP accounting group for one retired
// floating point instruction. It must only run at retirement (a faulted
// instruction performed no architectural work), and it is shared by
// every execution engine — interpreted and superblock — so the
// counters are engine-invariant. Callers check m.Flops != nil.
func (m *Machine) countFlops(inst *isa.Inst, info *isa.OpInfo) {
	f := m.Flops
	p := int(info.Prec)
	lanes := uint64(info.Lanes)
	if info.Masked {
		active := uint64(bits.OnesCount64(m.laneMask(inst, info)))
		f.MaskedSkipped.Add(lanes - active)
		lanes = active
	}
	switch info.Class {
	case isa.ClassFPArith:
		switch info.FP {
		case isa.FPAdd:
			f.Add[p].Add(lanes)
		case isa.FPSub:
			f.Sub[p].Add(lanes)
		case isa.FPMul:
			f.Mul[p].Add(lanes)
		case isa.FPDiv:
			f.Div[p].Add(lanes)
		case isa.FPSqrt:
			f.Sqrt[p].Add(lanes)
		case isa.FPMin:
			f.Min[p].Add(lanes)
		case isa.FPMax:
			f.Max[p].Add(lanes)
		}
	case isa.ClassFMA:
		// One fused multiply-add is two FLOPs per lane, SDE's convention.
		f.FMA[p].Add(2 * lanes)
	case isa.ClassFPConvert:
		if cvtSingle(info.Cvt) {
			p = int(isa.F32)
		} else {
			p = int(isa.F64)
		}
		f.Convert[p].Add(lanes)
	case isa.ClassFPCompare:
		f.Compare[p].Add(lanes)
	case isa.ClassFPRound:
		f.Round[p].Add(lanes)
	case isa.ClassFPDot:
		// dpps decomposes to 4 multiplies and 3 adds per 128-bit group.
		groups := uint64(info.Lanes / 4)
		f.Mul[p].Add(4 * groups)
		f.Add[p].Add(3 * groups)
	}
}

func (m *Machine) execArith(inst *isa.Inst, info *isa.OpInfo, env softfloat.Env, st *fpStage) {
	if info.Masked {
		m.execArithMasked(inst, info, env, st)
		return
	}
	c := &m.CPU
	st.vecSet = true
	if info.Prec == isa.F64 {
		// Lane-sliced dispatch: one opcode switch retires the whole
		// vector. dst is the staging copy, so it never aliases a/b even
		// when Rd is also a source.
		a := c.X[inst.Rs1][:info.Lanes]
		b := c.X[inst.Rs2][:info.Lanes]
		dst := st.vec[:info.Lanes]
		switch info.FP {
		case isa.FPAdd:
			st.raised |= softfloat.AddLanes64(dst, a, b, env)
		case isa.FPSub:
			st.raised |= softfloat.SubLanes64(dst, a, b, env)
		case isa.FPMul:
			st.raised |= softfloat.MulLanes64(dst, a, b, env)
		case isa.FPDiv:
			st.raised |= softfloat.DivLanes64(dst, a, b, env)
		case isa.FPSqrt:
			st.raised |= softfloat.SqrtLanes64(dst, a, env)
		case isa.FPMin:
			st.raised |= softfloat.MinLanes64(dst, a, b, env)
		case isa.FPMax:
			st.raised |= softfloat.MaxLanes64(dst, a, b, env)
		}
		return
	}
	// f32 lanes are packed two per 64-bit word: gather into flat scratch,
	// dispatch once over the slice, scatter back into the staging vector.
	var ab, bb, db [2 * isa.VecWords]uint32
	for l := 0; l < info.Lanes; l++ {
		ab[l] = c.lane32(inst.Rs1, l)
		bb[l] = c.lane32(inst.Rs2, l)
	}
	a, b, dst := ab[:info.Lanes], bb[:info.Lanes], db[:info.Lanes]
	switch info.FP {
	case isa.FPAdd:
		st.raised |= softfloat.AddLanes32(dst, a, b, env)
	case isa.FPSub:
		st.raised |= softfloat.SubLanes32(dst, a, b, env)
	case isa.FPMul:
		st.raised |= softfloat.MulLanes32(dst, a, b, env)
	case isa.FPDiv:
		st.raised |= softfloat.DivLanes32(dst, a, b, env)
	case isa.FPSqrt:
		st.raised |= softfloat.SqrtLanes32(dst, a, env)
	case isa.FPMin:
		st.raised |= softfloat.MinLanes32(dst, a, b, env)
	case isa.FPMax:
		st.raised |= softfloat.MaxLanes32(dst, a, b, env)
	}
	for l := 0; l < info.Lanes; l++ {
		stSetLane32(&st.vec, l, db[l])
	}
}

// execArithMasked executes a write-masked arithmetic form: only lanes
// whose mask bit is set compute (and may raise); masked-off lanes keep
// the destination's prior contents, which the staging preload already
// provides (merge masking).
func (m *Machine) execArithMasked(inst *isa.Inst, info *isa.OpInfo, env softfloat.Env, st *fpStage) {
	c := &m.CPU
	st.vecSet = true
	mask := m.laneMask(inst, info)
	if info.Prec == isa.F64 {
		for l := 0; l < info.Lanes; l++ {
			if mask>>uint(l)&1 == 0 {
				continue
			}
			a := c.X[inst.Rs1][l]
			b := c.X[inst.Rs2][l]
			var z uint64
			var fl softfloat.Flags
			switch info.FP {
			case isa.FPAdd:
				z, fl = softfloat.Add64(a, b, env)
			case isa.FPSub:
				z, fl = softfloat.Sub64(a, b, env)
			case isa.FPMul:
				z, fl = softfloat.Mul64(a, b, env)
			case isa.FPDiv:
				z, fl = softfloat.Div64(a, b, env)
			case isa.FPSqrt:
				z, fl = softfloat.Sqrt64(a, env)
			case isa.FPMin:
				z, fl = softfloat.Min64(a, b, env)
			case isa.FPMax:
				z, fl = softfloat.Max64(a, b, env)
			}
			st.vec[l] = z
			st.raised |= fl
		}
		return
	}
	for l := 0; l < info.Lanes; l++ {
		if mask>>uint(l)&1 == 0 {
			continue
		}
		a := c.lane32(inst.Rs1, l)
		b := c.lane32(inst.Rs2, l)
		var z uint32
		var fl softfloat.Flags
		switch info.FP {
		case isa.FPAdd:
			z, fl = softfloat.Add32(a, b, env)
		case isa.FPSub:
			z, fl = softfloat.Sub32(a, b, env)
		case isa.FPMul:
			z, fl = softfloat.Mul32(a, b, env)
		case isa.FPDiv:
			z, fl = softfloat.Div32(a, b, env)
		case isa.FPSqrt:
			z, fl = softfloat.Sqrt32(a, env)
		case isa.FPMin:
			z, fl = softfloat.Min32(a, b, env)
		case isa.FPMax:
			z, fl = softfloat.Max32(a, b, env)
		}
		stSetLane32(&st.vec, l, z)
		st.raised |= fl
	}
}

// negSign64 flips the sign bit (exact, no flags), used for FMA variants.
func negSign64(x uint64) uint64 { return x ^ 1<<63 }

func negSign32(x uint32) uint32 { return x ^ 1<<31 }

func (m *Machine) execFMA(inst *isa.Inst, info *isa.OpInfo, env softfloat.Env, st *fpStage) {
	c := &m.CPU
	st.vecSet = true
	negProd, negAdd := info.FMA.NegProduct(), info.FMA.NegAddend()
	if info.Prec == isa.F64 {
		a := c.X[inst.Rs1][:info.Lanes]
		b := c.X[inst.Rs2][:info.Lanes]
		d := c.X[inst.Rs3][:info.Lanes]
		// Sign variants flip operands into scratch so the plain fused
		// kernel serves all four forms; the common vfmadd forms pass the
		// register slices straight through.
		var as, ds [isa.VecWords]uint64
		if negProd {
			for l, v := range a {
				as[l] = negSign64(v)
			}
			a = as[:info.Lanes]
		}
		if negAdd {
			for l, v := range d {
				ds[l] = negSign64(v)
			}
			d = ds[:info.Lanes]
		}
		st.raised |= softfloat.FMALanes64(st.vec[:info.Lanes], a, b, d, env)
		return
	}
	var ab, bb, db, zb [2 * isa.VecWords]uint32
	for l := 0; l < info.Lanes; l++ {
		a := c.lane32(inst.Rs1, l)
		d := c.lane32(inst.Rs3, l)
		if negProd {
			a = negSign32(a)
		}
		if negAdd {
			d = negSign32(d)
		}
		ab[l], bb[l], db[l] = a, c.lane32(inst.Rs2, l), d
	}
	st.raised |= softfloat.FMALanes32(zb[:info.Lanes], ab[:info.Lanes], bb[:info.Lanes], db[:info.Lanes], env)
	for l := 0; l < info.Lanes; l++ {
		stSetLane32(&st.vec, l, zb[l])
	}
}

func (m *Machine) execConvert(inst *isa.Inst, info *isa.OpInfo, env softfloat.Env, st *fpStage) {
	c := &m.CPU
	switch info.Cvt {
	case isa.CvtSD2SS:
		z, fl := softfloat.F64ToF32(c.X[inst.Rs1][0], env)
		st.vecSet = true
		stSetLane32(&st.vec, 0, z)
		st.raised = fl
	case isa.CvtSS2SD:
		z, fl := softfloat.F32ToF64(c.lane32(inst.Rs1, 0), env)
		st.vecSet = true
		st.vec[0] = z
		st.raised = fl
	case isa.CvtSI2SD:
		st.vecSet = true
		st.vec[0] = softfloat.I32ToF64(int32(c.R[inst.Rs1]))
	case isa.CvtSI2SDQ:
		z, fl := softfloat.I64ToF64(int64(c.R[inst.Rs1]), env)
		st.vecSet = true
		st.vec[0] = z
		st.raised = fl
	case isa.CvtSI2SS:
		z, fl := softfloat.I32ToF32(int32(c.R[inst.Rs1]), env)
		st.vecSet = true
		stSetLane32(&st.vec, 0, z)
		st.raised = fl
	case isa.CvtSI2SSQ:
		z, fl := softfloat.I64ToF32(int64(c.R[inst.Rs1]), env)
		st.vecSet = true
		stSetLane32(&st.vec, 0, z)
		st.raised = fl
	case isa.CvtSD2SI:
		z, fl := softfloat.F64ToI32(c.X[inst.Rs1][0], env)
		st.intSet = true
		st.intVal = uint64(int64(z))
		st.raised = fl
	case isa.CvtTSD2SI:
		z, fl := softfloat.F64ToI32Trunc(c.X[inst.Rs1][0], env)
		st.intSet = true
		st.intVal = uint64(int64(z))
		st.raised = fl
	case isa.CvtTSD2SIQ:
		z, fl := softfloat.F64ToI64Trunc(c.X[inst.Rs1][0], env)
		st.intSet = true
		st.intVal = uint64(z)
		st.raised = fl
	case isa.CvtSS2SI:
		z, fl := softfloat.F32ToI32(c.lane32(inst.Rs1, 0), env)
		st.intSet = true
		st.intVal = uint64(int64(z))
		st.raised = fl
	case isa.CvtTSS2SI:
		z, fl := softfloat.F32ToI32Trunc(c.lane32(inst.Rs1, 0), env)
		st.intSet = true
		st.intVal = uint64(int64(z))
		st.raised = fl
	case isa.CvtPS2DQ:
		st.vecSet = true
		for l := 0; l < info.Lanes; l++ {
			z, fl := softfloat.F32ToI32(c.lane32(inst.Rs1, l), env)
			stSetLane32(&st.vec, l, uint32(z))
			st.raised |= fl
		}
	}
}

func (m *Machine) execCompare(inst *isa.Inst, info *isa.OpInfo, env softfloat.Env, st *fpStage) {
	c := &m.CPU
	switch inst.Op {
	case isa.OpCMPSD:
		z, fl := softfloat.Cmp64(c.X[inst.Rs1][0], c.X[inst.Rs2][0], softfloat.CmpPredicate(inst.Imm), env)
		st.vecSet = true
		st.vec[0] = z
		st.raised = fl
	case isa.OpCMPSS:
		z, fl := softfloat.Cmp32(c.lane32(inst.Rs1, 0), c.lane32(inst.Rs2, 0), softfloat.CmpPredicate(inst.Imm), env)
		st.vecSet = true
		stSetLane32(&st.vec, 0, z)
		st.raised = fl
	default:
		var r softfloat.CmpResult
		var fl softfloat.Flags
		if info.Prec == isa.F64 {
			if info.Signaling {
				r, fl = softfloat.Comi64(c.X[inst.Rs1][0], c.X[inst.Rs2][0], env)
			} else {
				r, fl = softfloat.Ucomi64(c.X[inst.Rs1][0], c.X[inst.Rs2][0], env)
			}
		} else {
			if info.Signaling {
				r, fl = softfloat.Comi32(c.lane32(inst.Rs1, 0), c.lane32(inst.Rs2, 0), env)
			} else {
				r, fl = softfloat.Ucomi32(c.lane32(inst.Rs1, 0), c.lane32(inst.Rs2, 0), env)
			}
		}
		st.intSet = true
		st.intVal = uint64(int64(r))
		st.raised = fl
	}
}

func (m *Machine) execRound(inst *isa.Inst, info *isa.OpInfo, env softfloat.Env, st *fpStage) {
	c := &m.CPU
	imm := isa.RoundImm(inst.Imm)
	rm := softfloat.RoundingMode(imm & 3)
	if imm&isa.RoundImmMXCSR != 0 {
		rm = env.RM
	}
	suppress := imm&isa.RoundImmNoInexact != 0
	st.vecSet = true
	if info.Prec == isa.F64 {
		for l := 0; l < info.Lanes; l++ {
			z, fl := softfloat.RoundToInt64(c.X[inst.Rs1][l], rm, suppress, env)
			st.vec[l] = z
			st.raised |= fl
		}
		return
	}
	for l := 0; l < info.Lanes; l++ {
		z, fl := softfloat.RoundToInt32(c.lane32(inst.Rs1, l), rm, suppress, env)
		stSetLane32(&st.vec, l, z)
		st.raised |= fl
	}
}

// execDot implements dpps/vdpps with an implied 0xFF mask: within each
// 128-bit group, four products are summed pairwise and the sum is
// broadcast to the group's lanes.
func (m *Machine) execDot(inst *isa.Inst, info *isa.OpInfo, env softfloat.Env, st *fpStage) {
	c := &m.CPU
	st.vecSet = true
	groups := info.Lanes / 4
	for g := 0; g < groups; g++ {
		var p [4]uint32
		for i := 0; i < 4; i++ {
			l := g*4 + i
			z, fl := softfloat.Mul32(c.lane32(inst.Rs1, l), c.lane32(inst.Rs2, l), env)
			p[i] = z
			st.raised |= fl
		}
		s01, fl := softfloat.Add32(p[0], p[1], env)
		st.raised |= fl
		s23, fl2 := softfloat.Add32(p[2], p[3], env)
		st.raised |= fl2
		sum, fl3 := softfloat.Add32(s01, s23, env)
		st.raised |= fl3
		for i := 0; i < 4; i++ {
			stSetLane32(&st.vec, g*4+i, sum)
		}
	}
}
