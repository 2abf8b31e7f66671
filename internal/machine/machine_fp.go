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

// laneOps maps an arithmetic form's operation, and fmaOps a fused
// form's sign variant, to the lane kernels' op.
var (
	laneOps = [...]softfloat.Op{
		isa.FPAdd: softfloat.OpAdd, isa.FPSub: softfloat.OpSub, isa.FPMul: softfloat.OpMul,
		isa.FPDiv: softfloat.OpDiv, isa.FPSqrt: softfloat.OpSqrt,
		isa.FPMin: softfloat.OpMin, isa.FPMax: softfloat.OpMax,
	}
	fmaOps = [...]softfloat.Op{
		isa.FMAdd: softfloat.OpFMAdd, isa.FMSub: softfloat.OpFMSub,
		isa.FNMAdd: softfloat.OpFNMAdd, isa.FNMSub: softfloat.OpFNMSub,
	}
)

// execArith retires an arithmetic form with one kernel call on the
// register words. Only lanes whose mask bit is set compute (and may
// raise); the others keep the destination's prior contents, which the
// staging preload provides: the upper lanes of a scalar form, and the
// masked-off lanes of a write-masked one (merge masking). dst is the
// staging copy, so it never aliases a source even when Rd is one.
func (m *Machine) execArith(inst *isa.Inst, info *isa.OpInfo, env softfloat.Env, st *fpStage) {
	c := &m.CPU
	st.vecSet = true
	mask := uint64(1)<<uint(info.Lanes) - 1
	if info.Masked {
		mask = m.laneMask(inst, info)
	}
	a, b := c.X[inst.Rs1][:], c.X[inst.Rs2][:]
	if info.Prec == isa.F64 {
		st.raised |= softfloat.Lanes64(laneOps[info.FP], st.vec[:], a, b, b, mask, env)
		return
	}
	st.raised |= softfloat.Lanes32(laneOps[info.FP], st.vec[:], a, b, b, mask, env)
}

// execFMA retires a fused form like execArith; the variant's signs fold
// into the kernel's op.
func (m *Machine) execFMA(inst *isa.Inst, info *isa.OpInfo, env softfloat.Env, st *fpStage) {
	c := &m.CPU
	st.vecSet = true
	op := fmaOps[info.FMA]
	mask := uint64(1)<<uint(info.Lanes) - 1
	a, b, d := c.X[inst.Rs1][:], c.X[inst.Rs2][:], c.X[inst.Rs3][:]
	if info.Prec == isa.F64 {
		st.raised |= softfloat.Lanes64(op, st.vec[:], a, b, d, mask, env)
		return
	}
	st.raised |= softfloat.Lanes32(op, st.vec[:], a, b, d, mask, env)
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
