package machine

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/softfloat"
)

// Superblock execution engine: RunStraight dispatches whole decoded
// straight-line regions from a per-machine cache instead of re-resolving
// RIP, re-checking breakpoints, and re-branching on the opcode class for
// every Step. A region is the maximal run of straight-line instructions
// from a start index — it ends at the first control transfer (branch,
// hlt, callc) or stubbed breakpoint address — and its metadata bakes in
// everything that is static per instruction: the decoded Inst and
// OpInfo pointers and the retirement kind. Regions are keyed by (start
// index, code version); the version bumps whenever in-place execution
// behavior changes (SetBreakpoint/ClearBreakpoint), invalidating every
// cached region at once.
//
// Inside a region, RIP, nextIdx, and Retired are not updated per
// instruction: the dispatch loop tracks progress locally and flushes
// once per region (or at the first event), leaving the architectural
// state bit-identical to what per-instruction Step would produce —
// including on mid-region faults, where the flush credits exactly the
// cleanly retired prefix and leaves RIP on the faulting instruction.
// Nothing inside a straight run can set TF, arm a breakpoint, or
// deliver a signal (those happen in kernel event handling, outside
// RunStraight), so the entry checks hold for the whole run.

// SBKind is the precomputed retirement kind of one instruction inside a
// superblock region. It collapses the per-Step class switch and the
// masked/scalar sub-dispatch into one enum resolved at region build
// time.
type SBKind uint8

const (
	// SBNop retires with no architectural effect.
	SBNop SBKind = iota
	// SBInt is an integer ALU instruction (may fault on divide by zero).
	SBInt
	// SBMem is a load/store/MXCSR access (may fault on a bad address).
	SBMem
	// SBFPMove is a flagless vector register move.
	SBFPMove
	// SBMask is a mask-register move (kmov forms).
	SBMask
	// SBFPScalar64 is unmasked scalar binary64 arithmetic — the hottest
	// FP shape — retired through an inline fast lane that skips the
	// full-width staging buffer.
	SBFPScalar64
	// SBFP is any other floating point form, retired through the same
	// execFP path Step uses.
	SBFP
)

// sbMeta is the cached per-instruction metadata of a region entry. For
// the SBFPScalar64 hot lane the operand registers and FP kind are
// flattened into the entry itself, so the dispatch loop touches only
// the sequential meta slice instead of chasing the Inst and OpInfo
// pointers per instruction.
type sbMeta struct {
	kind         SBKind
	fp           isa.FPOp
	rd, rs1, rs2 uint8
	inst         *isa.Inst
	info         *isa.OpInfo
}

// sbRegion is one cached straight-line region. meta is empty when the
// start instruction is itself a terminator (branch, hlt, callc, or a
// stubbed address); dispatch then falls back to Step for it.
type sbRegion struct {
	version uint64
	built   bool
	meta    []sbMeta
}

// regionFor returns the cached region starting at instruction idx,
// (re)building it when absent or staled by a code-version bump.
func (m *Machine) regionFor(idx int) *sbRegion {
	if m.sbCache == nil {
		m.sbCache = make([]sbRegion, len(m.Prog.Insts))
	}
	r := &m.sbCache[idx]
	if !r.built || r.version != m.codeVersion {
		m.buildRegion(r, idx)
	}
	return r
}

// buildRegion decodes the maximal straight-line region from idx.
func (m *Machine) buildRegion(r *sbRegion, idx int) {
	r.version = m.codeVersion
	r.built = true
	r.meta = r.meta[:0]
	for j := idx; j < len(m.Prog.Insts); j++ {
		if m.Breakpoints != nil && m.Breakpoints[m.Prog.AddrOf(j)] {
			return // the stub faults at fetch; Step delivers it
		}
		inst := &m.Prog.Insts[j]
		info := inst.Op.Info()
		var kind SBKind
		switch info.Class {
		case isa.ClassSys:
			if inst.Op != isa.OpNOP {
				return // hlt and callc terminate the region
			}
			kind = SBNop
		case isa.ClassBranch:
			return
		case isa.ClassInt:
			kind = SBInt
		case isa.ClassMem:
			kind = SBMem
		case isa.ClassFPMove:
			kind = SBFPMove
		case isa.ClassMask:
			kind = SBMask
		default:
			kind = SBFP
			if info.Class == isa.ClassFPArith && !info.Masked && info.Prec == isa.F64 && info.Lanes == 1 {
				kind = SBFPScalar64
			}
		}
		r.meta = append(r.meta, sbMeta{
			kind: kind, fp: info.FP,
			rd: inst.Rd, rs1: inst.Rs1, rs2: inst.Rs2,
			inst: inst, info: info,
		})
	}
}

// runSuperblock is RunStraight's cached dispatch loop (TF clear, no
// shadow sink attached).
func (m *Machine) runSuperblock(max uint64) (uint64, Event) {
	var n uint64
	for n < max {
		// Resolve the start index exactly as Step does.
		idx := m.nextIdx
		if idx < 0 || idx >= len(m.Prog.Insts) || m.Prog.Base+uint64(idx)*isa.InstBytes != m.CPU.RIP {
			idx = m.Prog.IndexOf(m.CPU.RIP)
			if idx < 0 {
				return n, m.faultEvent(fmt.Sprintf("bad rip %#x", m.CPU.RIP), m.CPU.RIP)
			}
			m.nextIdx = idx
		}
		r := m.regionFor(idx)
		meta := r.meta
		if len(meta) == 0 {
			// The region starts at a terminator: one stepped instruction
			// handles the branch/hlt/callc/breakpoint precisely.
			ev := m.Step()
			if ev != nil {
				return n, ev
			}
			n++
			continue
		}
		limit := len(meta)
		if rem := max - n; uint64(limit) > rem {
			limit = int(rem)
		}
		startAddr := m.CPU.RIP
		// The softfloat environment is derived from MXCSR control bits,
		// which nothing inside a region mutates except a memory-class
		// instruction (ldmxcsr): derive it once and refresh after each
		// SBMem retire instead of re-deriving per FP instruction.
		env := m.CPU.MXCSR.Env()
		c := &m.CPU
		var ev Event
		k := 0
		for k < limit {
			mt := &meta[k]
			if mt.kind == SBFPScalar64 {
				// Inline hot lane: unmasked scalar binary64 arithmetic,
				// dispatched on the flattened meta fields. Mirrors
				// execFPScalar64 exactly; duplicated here because the
				// call (and the execMeta switch in front of it) costs as
				// much as the arithmetic for the cheap ops.
				a := c.X[mt.rs1][0]
				b := c.X[mt.rs2][0]
				var z uint64
				var fl softfloat.Flags
				switch mt.fp {
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
				unmasked := c.MXCSR.Unmasked(fl)
				c.MXCSR.SetFlags(fl)
				if unmasked != 0 {
					ev = m.fpEventAt(startAddr+uint64(k)*isa.InstBytes, idx+k, fl, unmasked)
					break
				}
				c.X[mt.rd][0] = z
				if m.Flops != nil {
					m.countFlops(mt.inst, mt.info)
				}
				k++
				continue
			}
			ev = m.execMeta(mt, idx+k, startAddr+uint64(k)*isa.InstBytes, env)
			if ev != nil {
				break
			}
			if mt.kind == SBMem {
				env = m.CPU.MXCSR.Env()
			}
			k++
		}
		// Flush the batched retirement state: k instructions retired
		// cleanly, and on an event RIP must address the eventful
		// instruction with the prefix credited — the same state
		// per-instruction stepping leaves behind.
		m.CPU.RIP = startAddr + uint64(k)*isa.InstBytes
		m.nextIdx = idx + k
		m.Retired += uint64(k)
		n += uint64(k)
		if ev != nil {
			return n, ev
		}
		if k == len(meta) && n < max {
			// The region's terminator.
			ev := m.Step()
			if ev != nil {
				return n, ev
			}
			n++
		}
	}
	return n, nil
}

// execMeta retires one region entry. It must not touch RIP, nextIdx, or
// Retired — the dispatch loop batches those — and a non-nil event means
// the instruction did not retire (except events Step-paths also deliver
// post-retire, which cannot occur here: those are branch/sys kinds,
// never cached in meta). env is the caller's hoisted copy of
// m.CPU.MXCSR.Env(), valid because the dispatch loop refreshes it after
// every instruction that can rewrite MXCSR control bits.
func (m *Machine) execMeta(mt *sbMeta, idx int, addr uint64, env softfloat.Env) Event {
	switch mt.kind {
	case SBNop:
	case SBInt:
		return m.execInt(mt.inst, addr)
	case SBMem:
		return m.execMem(mt.inst, addr)
	case SBFPMove:
		m.execMove(mt.inst)
	case SBMask:
		m.execMask(mt.inst)
	case SBFPScalar64:
		return m.execFPScalar64(mt.inst, mt.info, idx, addr, env)
	case SBFP:
		return m.execFP(mt.inst, mt.info, idx, addr)
	}
	return nil
}

// execFPScalar64 retires unmasked scalar binary64 arithmetic without
// staging a full vector: lane 0 is computed, flags settle, and on a
// clean retire the single lane writes back directly.
func (m *Machine) execFPScalar64(inst *isa.Inst, info *isa.OpInfo, idx int, addr uint64, env softfloat.Env) Event {
	c := &m.CPU
	a := c.X[inst.Rs1][0]
	b := c.X[inst.Rs2][0]
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
	unmasked := c.MXCSR.Unmasked(fl)
	c.MXCSR.SetFlags(fl)
	if unmasked != 0 {
		return m.fpEventAt(addr, idx, fl, unmasked)
	}
	c.X[inst.Rd][0] = z
	if m.Flops != nil {
		m.countFlops(inst, info)
	}
	return nil
}
