package machine

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/softfloat"
)

// Superblock execution engine: RunStraight dispatches whole decoded
// regions from a per-machine cache instead of re-resolving RIP,
// re-checking breakpoints, and re-branching on the opcode class for
// every Step. A region is the maximal run of straight-line instructions
// from a start index together with the branch (jmp, a conditional
// branch, call, or ret) that ends it; it ends before hlt, callc, or a
// stubbed breakpoint address, which retire through Step. Its metadata
// bakes in everything that is static per instruction: the decoded Inst
// pointer, the retirement kind and inline operands. Regions are keyed by
// (start index, code version); the version bumps whenever in-place
// execution behavior changes (SetBreakpoint/ClearBreakpoint, and
// SetShadow: a sink's observed instructions retire as SBShadow),
// invalidating every cached region at once.
//
// Inside a region, RIP, nextIdx, and Retired are not updated per
// instruction: the dispatch loop tracks progress locally and flushes
// once per region (or at the first event), leaving the architectural
// state bit-identical to what per-instruction Step would produce —
// including on mid-region faults, where the flush credits exactly the
// cleanly retired prefix and leaves RIP on the faulting instruction.
// A retired branch flushes RIP and nextIdx to its target, and the loop
// continues with the region there through the same RIP-to-index check
// Step makes, so a target outside the program faults as "bad rip"
// exactly as it would under Step; a direct branch back to its own
// region's start skips both and runs the region again. Nothing inside a
// straight run can set TF, arm a breakpoint, or deliver a signal (those
// happen in kernel event handling, outside RunStraight), so the entry
// checks hold for the whole run. Two shapes of integer code retire
// without dispatching each instruction (see shortcuts): counted
// self-loops and integer writes their run overwrites unread.

// SBKind is the precomputed retirement kind of one instruction inside a
// superblock region. It collapses the per-Step class switch and the
// masked/scalar sub-dispatch into one enum resolved at region build
// time.
type SBKind uint8

const (
	// SBNop retires with no architectural effect.
	SBNop SBKind = iota
	// SBInt is divq or remq (may fault on divide by zero), or another
	// integer ALU op that writes r0 or names a source out of range.
	SBInt
	// SBMovi through SBShri are the other integer ALU ops, retired inline.
	SBMovi
	SBMov
	SBAdd
	SBAddi
	SBSub
	SBMulq
	SBAnd
	SBOr
	SBXor
	SBShli
	SBShri
	// SBJmp through SBBgt are jmp and the six conditional branches.
	SBJmp
	SBBeq
	SBBne
	SBBlt
	SBBge
	SBBle
	SBBgt
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
	// SBBranch is the call or ret that ends a region (may fault on the
	// push or the pop).
	SBBranch
	// SBShadow is an instruction the attached shadow sink observes,
	// retired between its PreStep and Retired through the helper Step
	// uses for its class (execMem, execMove or execFP).
	SBShadow
	// SBDead is the first inline integer op of a span whose results the
	// rest of its run overwrites unread (see shortcuts); the loop jumps
	// over the span when the whole run retires in this pass.
	SBDead
	// SBLoop is the blt closing a counted self-loop (see shortcuts); its
	// imm is the counter's step, since its target is the region's start.
	SBLoop
)

// sbMeta is the cached per-instruction metadata of a region entry. The
// inline kinds' operands are flattened into it (imm is a direct
// branch's target index), so the loop need not chase the Inst pointer.
// An SBDead entry's span is the length of its dead span and end its
// distance to the end of its run; both fit in what was padding.
type sbMeta struct {
	kind         SBKind
	fp           isa.FPOp
	rd, rs1, rs2 uint8
	span, end    uint8
	imm          int64
	inst         *isa.Inst
}

// sbRegion is one cached region. meta is empty when the start
// instruction is hlt, callc, or a stubbed address; dispatch then falls
// back to Step for it.
type sbRegion struct {
	version uint64
	built   bool
	meta    []sbMeta
}

// opKinds maps integer ALU opcodes and branches to their kinds; execInt
// and execBranch look them up too, so both engines share helper cases.
var opKinds = func() []SBKind {
	t := make([]SBKind, isa.NumOpcodes())
	for op, k := range map[isa.Opcode]SBKind{
		isa.OpMOVI: SBMovi, isa.OpMOV: SBMov, isa.OpADD: SBAdd, isa.OpADDI: SBAddi,
		isa.OpSUB: SBSub, isa.OpMULQ: SBMulq, isa.OpDIVQ: SBInt, isa.OpREMQ: SBInt,
		isa.OpAND: SBAnd, isa.OpOR: SBOr, isa.OpXOR: SBXor, isa.OpSHLI: SBShli, isa.OpSHRI: SBShri,
		isa.OpJMP: SBJmp, isa.OpBEQ: SBBeq, isa.OpBNE: SBBne, isa.OpBLT: SBBlt,
		isa.OpBGE: SBBge, isa.OpBLE: SBBle, isa.OpBGT: SBBgt, isa.OpCALL: SBBranch, isa.OpRET: SBBranch,
	} {
		t[op] = k
	}
	return t
}()

// intResult is the integer ALU op of kind k (SBMovi through SBShri) on
// a = rs1, b = rs2 and imm, for execInt and the region loop alike. It
// must stay inlinable: the loop passes each kind as a constant, so the
// switch folds away and the op costs no call.
func intResult(k SBKind, a, b uint64, imm int64) uint64 {
	switch k {
	case SBMovi:
		return uint64(imm)
	case SBAdd:
		return a + b
	case SBAddi:
		return a + uint64(imm)
	case SBSub:
		return a - b
	case SBMulq:
		return uint64(int64(a) * int64(b))
	case SBAnd:
		return a & b
	case SBOr:
		return a | b
	case SBXor:
		return a ^ b
	case SBShli:
		return a << uint(imm)
	case SBShri:
		return a >> uint(imm)
	default: // SBMov
		return a
	}
}

// taken reports whether the direct branch of kind k (SBJmp through
// SBBgt) is taken with a = rs1, b = rs2, in execBranch and the loop.
func taken(k SBKind, a, b int64) bool {
	switch k {
	case SBBeq:
		return a == b
	case SBBne:
		return a != b
	case SBBlt:
		return a < b
	case SBBge:
		return a >= b
	case SBBle:
		return a <= b
	case SBBgt:
		return a > b
	default: // SBJmp
		return true
	}
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

// buildRegion decodes the region from idx: straight-line instructions
// up to and including the first branch.
func (m *Machine) buildRegion(r *sbRegion, idx int) {
	r.version = m.codeVersion
	r.built = true
	r.meta = r.meta[:0]
decode:
	for j := idx; j < len(m.Prog.Insts); j++ {
		if m.Breakpoints != nil && m.Breakpoints[m.Prog.AddrOf(j)] {
			break // the stub faults at fetch; Step delivers it
		}
		inst := &m.Prog.Insts[j]
		info := inst.Op.Info()
		var kind SBKind
		switch info.Class {
		case isa.ClassSys:
			if inst.Op != isa.OpNOP {
				break decode // hlt and callc end the region before them
			}
			kind = SBNop
		case isa.ClassBranch, isa.ClassInt:
			// execInt reads both sources, so it panics as under Step on
			// one out of range; such an op, and one writing r0, keeps it.
			kind = opKinds[inst.Op]
			if info.Class == isa.ClassInt && (inst.Rd == 0 || inst.Rs1 >= isa.NumIntRegs || inst.Rs2 >= isa.NumIntRegs) {
				kind = SBInt
			}
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
		if m.Shadow != nil && observed(info.Class) {
			kind = SBShadow
		}
		r.meta = append(r.meta, sbMeta{
			kind: kind, fp: info.FP,
			rd: inst.Rd, rs1: inst.Rs1, rs2: inst.Rs2, imm: inst.Imm,
			inst: inst,
		})
		if info.Class == isa.ClassBranch {
			break
		}
	}
	shortcuts(r.meta, idx)
}

// inlineInt reports whether k is an integer ALU op the loop retires
// inline (SBMovi through SBShri).
func inlineInt(k SBKind) bool { return k >= SBMovi && k <= SBShri }

// shortcuts marks the two shapes of integer code that the loop retires
// without dispatching each instruction, both exact by construction
// (DESIGN §10.1). meta is the region starting at instruction idx.
func shortcuts(meta []sbMeta, idx int) {
	// A counted self-loop: a body closed by blt ctr, lim back to idx.
	if last := len(meta) - 1; last > 0 && meta[last].kind == SBBlt && meta[last].imm == int64(idx) {
		if c := loopStep(meta[:last], meta[last].rs1, meta[last].rs2); c > 0 {
			meta[last].kind, meta[last].imm = SBLoop, c
		}
	}
	// Overwritten writes: each maximal run of inline ops (cut at 255, so
	// distances fit a byte) is walked backward with every register live
	// at its end; an op whose destination is not live is dead, and the
	// first op of each contiguous dead span becomes SBDead. Every op
	// counts as reading both source fields, which only keeps more alive.
	live, end := ^uint16(0), len(meta)
	for j := len(meta) - 1; j >= 0; j-- {
		mt := &meta[j]
		if !inlineInt(mt.kind) {
			live, end = ^uint16(0), j
			continue
		}
		if end-j > 255 {
			live, end = ^uint16(0), j+1
		}
		if live&(1<<mt.rd) != 0 {
			live = live&^(1<<mt.rd) | 1<<mt.rs1 | 1<<mt.rs2
			continue
		}
		mt.kind, mt.span, mt.end = SBDead, 1, uint8(end-j)
		if j+1 < end && meta[j+1].kind == SBDead {
			next := &meta[j+1]
			mt.span = next.span + 1
			next.kind, next.span, next.end = opKinds[next.inst.Op], 0, 0
		}
	}
}

// loopStep returns the counter's step c when a self-loop's body holds
// only inline ops and nops, writes ctr once, by addi ctr, ctr, c with
// c > 0, never writes lim, and writes every other register it writes
// before reading it, so that the counter is all a pass carries to the
// next; otherwise it returns 0.
func loopStep(body []sbMeta, ctr, lim uint8) int64 {
	var step int64
	var written, readFirst uint16
	for i := range body {
		mt := &body[i]
		if mt.kind == SBNop {
			continue
		}
		if !inlineInt(mt.kind) {
			return 0
		}
		readFirst |= (1<<mt.rs1 | 1<<mt.rs2) &^ written
		if mt.rd == ctr {
			if step != 0 || mt.kind != SBAddi || mt.rs1 != ctr || mt.imm <= 0 {
				return 0
			}
			step = mt.imm
		}
		written |= 1 << mt.rd
	}
	if written&(1<<lim) != 0 || readFirst&written&^(1<<ctr) != 0 {
		return 0
	}
	return step
}

// runSuperblock is RunStraight's cached dispatch loop (TF clear).
func (m *Machine) runSuperblock(max uint64) (uint64, Event) {
	c := &m.CPU
	var n uint64
regions:
	for n < max {
		// Resolve the start index exactly as Step does. This is also
		// the only check on a chained branch's target, which nothing
		// validates before a guest runs: an index outside the program,
		// or a ret's address, resolves from RIP or faults as bad rip, so
		// the region cache is never indexed out of range.
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
			// The region starts at hlt, callc, or a breakpoint stub: one
			// stepped instruction handles it precisely.
			ev := m.Step()
			if ev != nil {
				return n, ev
			}
			n++
			continue
		}
		// A branch counts against max like any other instruction; one
		// beyond the budget is left for the next call.
		startAddr := m.CPU.RIP
		var ev Event
		k, limit := 0, int(min(uint64(len(meta)), max-n))
		for ; k < limit; k++ {
			// Registers are read directly (see CPU.R).
			mt := &meta[k]
			switch mt.kind {
			case SBNop:
			case SBMovi:
				c.R[mt.rd] = intResult(SBMovi, 0, 0, mt.imm)
			case SBMov:
				c.R[mt.rd] = intResult(SBMov, c.R[mt.rs1], 0, 0)
			case SBAdd:
				c.R[mt.rd] = intResult(SBAdd, c.R[mt.rs1], c.R[mt.rs2], 0)
			case SBAddi:
				c.R[mt.rd] = intResult(SBAddi, c.R[mt.rs1], 0, mt.imm)
			case SBSub:
				c.R[mt.rd] = intResult(SBSub, c.R[mt.rs1], c.R[mt.rs2], 0)
			case SBMulq:
				c.R[mt.rd] = intResult(SBMulq, c.R[mt.rs1], c.R[mt.rs2], 0)
			case SBAnd:
				c.R[mt.rd] = intResult(SBAnd, c.R[mt.rs1], c.R[mt.rs2], 0)
			case SBOr:
				c.R[mt.rd] = intResult(SBOr, c.R[mt.rs1], c.R[mt.rs2], 0)
			case SBXor:
				c.R[mt.rd] = intResult(SBXor, c.R[mt.rs1], c.R[mt.rs2], 0)
			case SBShli:
				c.R[mt.rd] = intResult(SBShli, c.R[mt.rs1], 0, mt.imm)
			case SBShri:
				c.R[mt.rd] = intResult(SBShri, c.R[mt.rs1], 0, mt.imm)
			case SBJmp, SBBeq, SBBne, SBBlt, SBBge, SBBle, SBBgt:
				// The region's last entry: credit the region, then run it
				// again if the branch goes back to its start, else chain.
				next := idx + k + 1
				if taken(mt.kind, int64(c.R[mt.rs1]), int64(c.R[mt.rs2])) {
					next = int(mt.imm)
				}
				m.Retired += uint64(k + 1)
				n += uint64(k + 1)
				if next == idx {
					k, limit = -1, int(min(uint64(len(meta)), max-n))
					continue
				}
				m.CPU.RIP = m.Prog.AddrOf(next)
				m.nextIdx = next
				continue regions
			case SBLoop:
				// A counted self-loop's back edge, imm its step c. Taken,
				// ctr < lim, so the next R−1 passes, R = ⌈(lim−ctr)/c⌉,
				// leave ctr below lim without wrapping. Of the f =
				// min(R, ⌊B/L⌋) passes the budget B holds whole, the
				// first f−1 change only ctr, so they retire at once; the
				// next runs as usual and rewrites every other register
				// the body writes.
				m.Retired += uint64(k + 1)
				n += uint64(k + 1)
				ctr, lim := c.R[mt.rs1], c.R[mt.rs2]
				if !taken(SBBlt, int64(ctr), int64(lim)) {
					m.CPU.RIP = m.Prog.AddrOf(idx + k + 1)
					m.nextIdx = idx + k + 1
					continue regions
				}
				l, step := uint64(len(meta)), uint64(mt.imm)
				if f := min((lim-ctr-1)/step+1, (max-n)/l); f > 1 {
					c.R[mt.rs1] += (f - 1) * step
					m.Retired += (f - 1) * l
					n += (f - 1) * l
				}
				k, limit = -1, int(min(l, max-n))
				continue
			case SBDead:
				// The run's later ops overwrite this span's results unread,
				// so when the whole run retires in this pass it is skipped.
				if k+int(mt.end) <= limit {
					k += int(mt.span) - 1
					continue
				}
				fallthrough
			case SBInt:
				ev = m.execInt(mt.inst, startAddr+uint64(k)*isa.InstBytes)
			case SBMem:
				ev = m.execMem(mt.inst, startAddr+uint64(k)*isa.InstBytes)
			case SBFPMove:
				m.execMove(mt.inst)
			case SBMask:
				m.execMask(mt.inst)
			case SBFPScalar64:
				// Inline hot lane: unmasked scalar binary64 arithmetic,
				// dispatched on the flattened meta fields and computed on
				// lane 0 alone, because a call and a class switch in
				// front of it cost as much as the arithmetic for the
				// cheap ops. The environment is derived here, not kept
				// across iterations: a value live across the loop's
				// calls is spilled and reloaded on every instruction.
				env := c.MXCSR.Env()
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
				if ev = m.fpRetire(mt.inst, idx+k, startAddr+uint64(k)*isa.InstBytes, fl); ev == nil {
					c.X[mt.rd][0] = z
				}
			case SBFP:
				ev = m.execFP(mt.inst, mt.inst.Op.Info(), idx+k, startAddr+uint64(k)*isa.InstBytes)
			case SBShadow:
				addr, info := startAddr+uint64(k)*isa.InstBytes, mt.inst.Op.Info()
				m.Shadow.PreStep(addr, mt.inst, info)
				switch info.Class {
				case isa.ClassMem:
					ev = m.execMem(mt.inst, addr)
				case isa.ClassFPMove:
					m.execMove(mt.inst)
				default:
					ev = m.execFP(mt.inst, info, idx+k, addr)
				}
				if ev == nil {
					m.Shadow.Retired()
				}
			case SBBranch:
				// A call or ret, the region's last entry: retire it and
				// chain to the region at its target.
				var next uint64
				var nextIdx int
				if next, nextIdx, ev = m.execBranch(mt.inst, startAddr+uint64(k)*isa.InstBytes, idx+k); ev == nil {
					m.CPU.RIP = next
					m.nextIdx = nextIdx
					m.Retired += uint64(k + 1)
					n += uint64(k + 1)
					continue regions
				}
			}
			if ev != nil {
				break
			}
		}
		// Flush the batched retirement state: k instructions retired
		// cleanly since this pass over the region began at startAddr,
		// and on an event RIP must address the eventful instruction
		// with the prefix credited — the same state Step leaves behind.
		m.CPU.RIP = startAddr + uint64(k)*isa.InstBytes
		m.nextIdx = idx + k
		m.Retired += uint64(k)
		n += uint64(k)
		if ev != nil {
			return n, ev
		}
		if k == len(meta) && n < max {
			// The region ends before hlt, callc, a breakpoint stub, or
			// the end of the program.
			ev := m.Step()
			if ev != nil {
				return n, ev
			}
			n++
		}
	}
	return n, nil
}
