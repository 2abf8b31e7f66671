// Package machine implements the simulated guest CPU: an x64-subset
// register machine whose floating point unit is internal/softfloat and
// whose control/status register is internal/mxcsr.
//
// The two properties FPSpy depends on are reproduced faithfully:
//
//   - Precise floating point exceptions: when an operation raises a
//     condition whose MXCSR mask is clear, the instruction faults before
//     writeback — the sticky flags are updated, but no result is written
//     and the instruction pointer does not advance, exactly as a real SSE
//     unit delivers #XM.
//
//   - Hardware single-stepping: when the TF flag is set, a trap event is
//     raised after each instruction retires, mirroring x64 #DB delivery.
package machine

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mxcsr"
	"repro/internal/obs"
	"repro/internal/softfloat"
)

// CPU is the architectural register state of one hardware thread. It is
// the state a signal handler sees (and may rewrite) through mcontext.
type CPU struct {
	// R is the integer register file; R[15] is the stack pointer by
	// convention. R[0] reads as zero: machine writes go through setReg,
	// which drops them, and the kernel, libc and mpi write only R1 and SP.
	R [isa.NumIntRegs]uint64
	// X is the 512-bit vector register file, isa.VecWords lanes of 64
	// bits each. Narrower instruction forms touch only their low lanes.
	X [isa.NumVecRegs][isa.VecWords]uint64
	// K is the write-mask register file (AVX512-style k0..k7).
	K [isa.NumMaskRegs]uint64
	// RIP is the address of the next instruction.
	RIP uint64
	// TF is the single-step trap flag (RFLAGS.TF).
	TF bool
	// MXCSR is the floating point control/status register.
	MXCSR mxcsr.Reg
}

// Event is the reason Step stopped short of (or beyond) a plain retire.
//
// Events returned by Step and RunStraight point into per-machine scratch
// storage: they are valid only until the machine's next Step or
// RunStraight call. Callers that need to retain an event across steps
// must copy the pointed-to struct. (This keeps the trap hot path — one
// event per traced instruction — free of heap allocation.)
type Event interface{ isEvent() }

// FPEvent reports an unmasked floating point exception. The faulting
// instruction did not retire: flags were set sticky, but no result was
// written and RIP still addresses the instruction.
type FPEvent struct {
	// Addr is the address of the faulting instruction.
	Addr uint64
	// Index is its instruction index.
	Index int
	// Raised is the full set of conditions the operation produced.
	Raised softfloat.Flags
	// Unmasked is the subset that caused the fault.
	Unmasked softfloat.Flags
}

func (*FPEvent) isEvent() {}

// TrapEvent reports a single-step trap: the instruction at Addr retired
// with TF set, and RIP now addresses Next.
type TrapEvent struct {
	// Addr is the instruction that just retired.
	Addr uint64
	// Next is the new RIP.
	Next uint64
}

func (*TrapEvent) isEvent() {}

// HaltEvent reports that the program executed hlt (normal termination of
// the thread).
type HaltEvent struct{}

func (*HaltEvent) isEvent() {}

// BreakpointEvent reports that fetch hit a software breakpoint (the
// "stub the next instruction with an invalid opcode" mechanism of the
// paper's Section 3.8). The instruction at Addr has NOT executed.
type BreakpointEvent struct {
	// Addr is the stubbed instruction's address.
	Addr uint64
}

func (*BreakpointEvent) isEvent() {}

// CallCEvent reports that the program called a libc symbol; the kernel
// routes it through the dynamic linker's interposition chain. The call
// instruction has retired.
type CallCEvent struct {
	// Sym is the symbol name.
	Sym string
}

func (*CallCEvent) isEvent() {}

// FaultEvent reports a fatal machine fault (bad memory access, bad RIP,
// integer division by zero).
type FaultEvent struct {
	// Reason describes the fault.
	Reason string
	// Addr is the faulting instruction address.
	Addr uint64
}

func (*FaultEvent) isEvent() {}

// Machine couples CPU state with a program and data memory.
type Machine struct {
	// CPU is the architectural state.
	CPU CPU
	// Prog is the executing program.
	Prog *isa.Program
	// Mem is the data memory, shared by every thread of a process.
	Mem *Memory
	// Retired counts retired instructions (the virtual clock).
	Retired uint64
	// Breakpoints marks instruction addresses stubbed with an invalid
	// opcode (a per-hardware-thread view, like debug registers): fetch
	// faults before execution. This is the Section 3.8 alternative to
	// TF single-stepping.
	Breakpoints map[uint64]bool
	// Obs, when non-nil, receives machine-level observability counts
	// (guest MXCSR traffic, breakpoint arming). Nil means no
	// instrumentation; the execution paths are unchanged either way.
	Obs *obs.MachineMetrics
	// Flops, when non-nil, receives SDE-style FLOP accounting: per-op,
	// per-precision counts of retired floating point lane operations
	// (FMA counts 2 per lane, masked-off lanes count as skipped). Nil
	// means no accounting, same contract as Obs.
	Flops *obs.FlopMetrics
	// Shadow, when non-nil, observes the floating point and memory
	// instructions for the shadow-precision channel (internal/shadow)
	// under the ShadowSink contract, in both engines. The sink never
	// mutates machine state, so execution is bit-identical with or
	// without it. Set it with SetShadow.
	Shadow ShadowSink

	// codeVersion tags cached superblock regions; anything that changes
	// how an instruction executes in place (breakpoint stubbing, a
	// shadow sink attached or detached) bumps it, invalidating every
	// cached region at once.
	codeVersion uint64
	// sbCache holds decoded straight-line regions by start instruction
	// index, allocated lazily on the first superblock dispatch.
	sbCache []sbRegion

	// nextIdx caches the instruction index of CPU.RIP, or -1 when
	// unknown. It is always validated against RIP before use (AddrOf of
	// the cached index must equal RIP), so external RIP writes — signal
	// delivery, handler context edits, sigreturn — are safe without any
	// invalidation protocol: a stale value simply misses and Step falls
	// back to Program.IndexOf.
	nextIdx int

	// Scratch event storage. Step fills one of these and returns its
	// address instead of heap-allocating a new event per trap; see the
	// Event type's validity rule.
	evFP    FPEvent
	evTrap  TrapEvent
	evBP    BreakpointEvent
	evCallC CallCEvent
	evFault FaultEvent
	evHalt  HaltEvent
}

// SetBreakpoint stubs the instruction at addr.
func (m *Machine) SetBreakpoint(addr uint64) {
	if m.Breakpoints == nil {
		m.Breakpoints = make(map[uint64]bool)
	}
	m.Breakpoints[addr] = true
	m.codeVersion++
	if m.Obs != nil {
		m.Obs.BreakpointsArmed.Inc()
	}
}

// ClearBreakpoint restores the instruction at addr.
func (m *Machine) ClearBreakpoint(addr uint64) {
	delete(m.Breakpoints, addr)
	m.codeVersion++
}

// SetShadow attaches s as the shadow sink (nil detaches it) and
// invalidates the regions built for the other setting.
func (m *Machine) SetShadow(s ShadowSink) {
	m.Shadow = s
	m.codeVersion++
}

// New creates a machine for prog with memSize bytes of zeroed memory,
// the data segment loaded, RIP at the program entry, and MXCSR at its
// power-on default.
func New(prog *isa.Program, memSize int) *Machine {
	m := &Machine{Prog: prog, Mem: NewMemory(memSize)}
	if len(prog.Data) > 0 {
		m.Mem.loadSegment(prog.DataBase, prog.Data)
	}
	m.CPU.RIP = prog.Base
	m.CPU.MXCSR = mxcsr.Default
	return m
}

// fpEventAt stages an FP fault event in scratch storage.
func (m *Machine) fpEventAt(addr uint64, idx int, raised, unmasked softfloat.Flags) Event {
	m.evFP = FPEvent{Addr: addr, Index: idx, Raised: raised, Unmasked: unmasked}
	return &m.evFP
}

func (m *Machine) faultEvent(reason string, addr uint64) Event {
	m.evFault = FaultEvent{Reason: reason, Addr: addr}
	return &m.evFault
}

// setReg writes an integer register (writes to R0 are discarded).
func (c *CPU) setReg(r uint8, v uint64) {
	if r != 0 {
		c.R[r] = v
	}
}

// lane32 reads 32-bit lane i of vector register x.
func (c *CPU) lane32(x uint8, i int) uint32 {
	return uint32(c.X[x][i/2] >> (32 * uint(i%2)))
}

// setLane32 writes 32-bit lane i of vector register x.
func (c *CPU) setLane32(x uint8, i int, v uint32) {
	shift := 32 * uint(i%2)
	c.X[x][i/2] = c.X[x][i/2]&^(uint64(0xFFFFFFFF)<<shift) | uint64(v)<<shift
}

// Step executes one instruction. A nil event means the instruction
// retired normally (and TF was clear). A non-nil event is valid only
// until the next Step or RunStraight call (see Event).
func (m *Machine) Step() Event {
	if m.Breakpoints != nil && m.Breakpoints[m.CPU.RIP] {
		m.evBP = BreakpointEvent{Addr: m.CPU.RIP}
		return &m.evBP
	}
	// Resolve the instruction index through the cache: straight-line code
	// and direct branches never pay for IndexOf. The cached value is
	// trusted only if it maps back to the current RIP.
	idx := m.nextIdx
	if idx < 0 || idx >= len(m.Prog.Insts) || m.Prog.Base+uint64(idx)*isa.InstBytes != m.CPU.RIP {
		idx = m.Prog.IndexOf(m.CPU.RIP)
		if idx < 0 {
			return m.faultEvent(fmt.Sprintf("bad rip %#x", m.CPU.RIP), m.CPU.RIP)
		}
		m.nextIdx = idx
	}
	inst := &m.Prog.Insts[idx]
	info := inst.Op.Info()
	addr := m.CPU.RIP
	next := addr + isa.InstBytes
	var sink ShadowSink
	if m.Shadow != nil && observed(info.Class) {
		sink = m.Shadow
		sink.PreStep(addr, inst, info)
	}

	switch info.Class {
	case isa.ClassSys:
		switch inst.Op {
		case isa.OpNOP:
		case isa.OpHLT:
			return &m.evHalt
		case isa.OpCALLC:
			m.retire(next, idx+1)
			m.evCallC = CallCEvent{Sym: inst.Sym}
			return &m.evCallC
		}

	case isa.ClassInt:
		if ev := m.execInt(inst, addr); ev != nil {
			return ev
		}

	case isa.ClassBranch:
		target, targetIdx, ev := m.execBranch(inst, addr, idx)
		if ev != nil {
			return ev
		}
		return m.retireTo(addr, target, targetIdx)

	case isa.ClassMem:
		if ev := m.execMem(inst, addr); ev != nil {
			return ev
		}

	case isa.ClassFPMove:
		m.execMove(inst)

	case isa.ClassMask:
		m.execMask(inst)

	default:
		// Floating point execute path: compute results into a staging
		// buffer, then either fault (unmasked) or write back.
		if ev := m.execFP(inst, info, idx, addr); ev != nil {
			return ev
		}
	}

	if sink != nil {
		sink.Retired()
	}
	return m.retireTo(addr, next, idx+1)
}

// execBranch executes the branch at addr (instruction index idx): it
// evaluates the condition and moves the stack for call and ret. It
// returns the address of the next instruction and its index, -1 when a
// ret makes it unknown until fetch. A non-nil event (stack fault) means
// the branch did not retire. Step and the region loop both retire
// branches here.
func (m *Machine) execBranch(inst *isa.Inst, addr uint64, idx int) (uint64, int, Event) {
	c := &m.CPU
	a := int64(c.R[inst.Rs1])
	b := int64(c.R[inst.Rs2])
	switch inst.Op {
	case isa.OpCALL:
		// Push the return address on the stack.
		sp := c.R[isa.SP] - 8
		if !m.Mem.Store64(sp, addr+isa.InstBytes) {
			return 0, 0, m.faultEvent(fmt.Sprintf("stack overflow at %#x", sp), addr)
		}
		c.setReg(isa.SP, sp)
	case isa.OpRET:
		sp := c.R[isa.SP]
		ra, ok := m.Mem.Load64(sp)
		if !ok {
			return 0, 0, m.faultEvent(fmt.Sprintf("stack underflow at %#x", sp), addr)
		}
		c.setReg(isa.SP, sp+8)
		return ra, -1, nil
	default:
		if !taken(opKinds[inst.Op], a, b) {
			return addr + isa.InstBytes, idx + 1, nil
		}
	}
	// Direct branches carry their target as an instruction index, so
	// the next fetch needs no IndexOf either.
	ti := int(inst.Imm)
	return m.Prog.AddrOf(ti), ti, nil
}

// execInt executes an integer ALU instruction. A non-nil event (divide
// fault) means the instruction did not retire.
func (m *Machine) execInt(inst *isa.Inst, addr uint64) Event {
	c := &m.CPU
	a := c.R[inst.Rs1]
	b := c.R[inst.Rs2]
	k := opKinds[inst.Op]
	if k != SBInt {
		c.setReg(inst.Rd, intResult(k, a, b, inst.Imm))
		return nil
	}
	if b == 0 { // divq and remq
		return m.faultEvent("integer divide by zero", addr)
	}
	v := uint64(int64(a) % int64(b))
	if inst.Op == isa.OpDIVQ {
		v = uint64(int64(a) / int64(b))
	}
	c.setReg(inst.Rd, v)
	return nil
}

// execMem executes a load/store/MXCSR-access instruction. A non-nil
// event (memory fault) means the instruction did not retire and changed
// nothing.
func (m *Machine) execMem(inst *isa.Inst, addr uint64) Event {
	c := &m.CPU
	ea := c.R[inst.Rs1] + uint64(inst.Imm)
	switch inst.Op {
	case isa.OpLD:
		v, ok := m.Mem.Load64(ea)
		if !ok {
			return m.memFault(addr, ea)
		}
		c.setReg(inst.Rd, v)
	case isa.OpST:
		if !m.Mem.Store64(ea, c.R[inst.Rs2]) {
			return m.memFault(addr, ea)
		}
	case isa.OpFLD:
		v, ok := m.Mem.Load64(ea)
		if !ok {
			return m.memFault(addr, ea)
		}
		c.X[inst.Rd][0] = v
	case isa.OpFST:
		if !m.Mem.Store64(ea, c.X[inst.Rs2][0]) {
			return m.memFault(addr, ea)
		}
	case isa.OpFLDS:
		v, ok := m.Mem.Load32(ea)
		if !ok {
			return m.memFault(addr, ea)
		}
		c.X[inst.Rd][0] = uint64(v) // upper bits zeroed, movss load semantics
	case isa.OpFSTS:
		if !m.Mem.Store32(ea, uint32(c.X[inst.Rs2][0])) {
			return m.memFault(addr, ea)
		}
	case isa.OpFLDV, isa.OpFLDVZ, isa.OpFSTV, isa.OpFSTVZ:
		// The whole range is checked before a lane moves, so a faulting
		// access leaves register and memory as they were, as on x86.
		lanes := uint64(4)
		if inst.Op == isa.OpFLDVZ || inst.Op == isa.OpFSTVZ {
			lanes = isa.VecWords
		}
		if !m.Mem.inBounds(ea, 8*lanes) {
			return m.memFault(addr, ea)
		}
		for l := range lanes {
			if inst.Op == isa.OpFLDV || inst.Op == isa.OpFLDVZ {
				c.X[inst.Rd][l], _ = m.Mem.Load64(ea + l*8)
			} else {
				m.Mem.Store64(ea+l*8, c.X[inst.Rs2][l])
			}
		}
	case isa.OpLDMXCSR:
		v, ok := m.Mem.Load32(ea)
		if !ok {
			return m.memFault(addr, ea)
		}
		c.MXCSR = mxcsr.Reg(v)
		if m.Obs != nil {
			m.Obs.GuestMXCSRWrites.Inc()
		}
	case isa.OpSTMXCSR:
		if !m.Mem.Store32(ea, uint32(c.MXCSR)) {
			return m.memFault(addr, ea)
		}
		if m.Obs != nil {
			m.Obs.GuestMXCSRReads.Inc()
		}
	}
	return nil
}

// execMove executes a flagless vector register move.
func (m *Machine) execMove(inst *isa.Inst) {
	c := &m.CPU
	switch inst.Op {
	case isa.OpMOVSD:
		c.X[inst.Rd][0] = c.X[inst.Rs1][0]
	case isa.OpMOVSS:
		c.setLane32(inst.Rd, 0, c.lane32(inst.Rs1, 0))
	case isa.OpMOVAPD:
		c.X[inst.Rd] = c.X[inst.Rs1]
	case isa.OpMOVQX:
		c.X[inst.Rd][0] = c.R[inst.Rs1]
	case isa.OpMOVXQ:
		c.setReg(inst.Rd, c.X[inst.Rs1][0])
	}
}

// retire advances RIP and the retirement counter without checking TF
// (used before events that must fire with the instruction completed).
// idx is the instruction index of the new RIP, or -1 when unknown.
func (m *Machine) retire(next uint64, idx int) {
	m.CPU.RIP = next
	m.nextIdx = idx
	m.Retired++
}

// retireTo completes an instruction and delivers a single-step trap when
// TF is set. idx caches the instruction index of next (-1 when unknown).
func (m *Machine) retireTo(addr, next uint64, idx int) Event {
	m.retire(next, idx)
	if m.CPU.TF {
		m.evTrap = TrapEvent{Addr: addr, Next: next}
		return &m.evTrap
	}
	return nil
}

func (m *Machine) memFault(addr, ea uint64) Event {
	return m.faultEvent(fmt.Sprintf("bad memory access %#x", ea), addr)
}
