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
	// R is the integer register file; R[0] reads as zero and ignores
	// writes. R[15] is the stack pointer by convention.
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

// Machine couples CPU state with a program and flat data memory.
type Machine struct {
	// CPU is the architectural state.
	CPU CPU
	// Prog is the executing program.
	Prog *isa.Program
	// Mem is flat little-endian data memory.
	Mem []byte
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
	// Shadow, when non-nil, observes instruction flow for the
	// shadow-precision channel (internal/shadow): PreStep fires after
	// instruction resolution with pre-execution state still readable,
	// and Retired fires iff that instruction retires. The sink never
	// mutates machine state, so execution is bit-identical with or
	// without it. RunStraight falls back to the per-instruction path
	// while a sink is attached so superblock batching never skips a
	// notification.
	Shadow ShadowSink

	// codeVersion tags cached superblock regions; anything that changes
	// how an instruction executes in place (breakpoint stubbing) bumps
	// it, invalidating every cached region at once.
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

// New creates a machine for prog with memSize bytes of zeroed memory,
// the data segment loaded, RIP at the program entry, and MXCSR at its
// power-on default.
func New(prog *isa.Program, memSize int) *Machine {
	m := &Machine{Prog: prog, Mem: make([]byte, memSize)}
	if len(prog.Data) > 0 {
		if prog.DataBase+uint64(len(prog.Data)) > uint64(memSize) {
			panic(fmt.Sprintf("machine: data segment (%d bytes at %#x) exceeds memory (%d bytes)",
				len(prog.Data), prog.DataBase, memSize))
		}
		copy(m.Mem[prog.DataBase:], prog.Data)
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

// CloneMemory deep-copies machine memory (used by fork).
func (m *Machine) CloneMemory() []byte {
	dup := make([]byte, len(m.Mem))
	copy(dup, m.Mem)
	return dup
}

// inBounds reports whether [addr, addr+n) lies inside memory. The
// comparison is overflow-safe: addr+n can wrap for addresses near 2^64,
// so the check subtracts from the memory size instead of adding to the
// address.
func (m *Machine) inBounds(addr, n uint64) bool {
	size := uint64(len(m.Mem))
	return addr <= size && size-addr >= n
}

func (m *Machine) load64(addr uint64) (uint64, bool) {
	if !m.inBounds(addr, 8) {
		return 0, false
	}
	b := m.Mem[addr:]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56, true
}

func (m *Machine) store64(addr, v uint64) bool {
	if !m.inBounds(addr, 8) {
		return false
	}
	b := m.Mem[addr:]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
	return true
}

func (m *Machine) load32(addr uint64) (uint32, bool) {
	if !m.inBounds(addr, 4) {
		return 0, false
	}
	b := m.Mem[addr:]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, true
}

func (m *Machine) store32(addr uint64, v uint32) bool {
	if !m.inBounds(addr, 4) {
		return false
	}
	b := m.Mem[addr:]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	return true
}

// reg reads an integer register (R0 is hardwired zero).
func (c *CPU) reg(r uint8) uint64 {
	if r == 0 {
		return 0
	}
	return c.R[r]
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
	if m.Shadow != nil {
		m.Shadow.PreStep(addr, inst, info)
	}
	c := &m.CPU

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
		a := int64(c.reg(inst.Rs1))
		b := int64(c.reg(inst.Rs2))
		taken := false
		switch inst.Op {
		case isa.OpJMP:
			taken = true
		case isa.OpBEQ:
			taken = a == b
		case isa.OpBNE:
			taken = a != b
		case isa.OpBLT:
			taken = a < b
		case isa.OpBGE:
			taken = a >= b
		case isa.OpBLE:
			taken = a <= b
		case isa.OpBGT:
			taken = a > b
		case isa.OpCALL:
			// Push the return address on the stack.
			sp := c.reg(isa.SP) - 8
			if !m.store64(sp, next) {
				return m.faultEvent(fmt.Sprintf("stack overflow at %#x", sp), addr)
			}
			c.setReg(isa.SP, sp)
			taken = true
		case isa.OpRET:
			sp := c.reg(isa.SP)
			ra, ok := m.load64(sp)
			if !ok {
				return m.faultEvent(fmt.Sprintf("stack underflow at %#x", sp), addr)
			}
			c.setReg(isa.SP, sp+8)
			// Indirect target: the next index is unknown until fetch.
			return m.retireTo(addr, ra, -1)
		}
		if taken {
			// Direct branches carry their target as an instruction index,
			// so the next fetch needs no IndexOf either.
			ti := int(inst.Imm)
			return m.retireTo(addr, m.Prog.AddrOf(ti), ti)
		}

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

	return m.retireTo(addr, next, idx+1)
}

// execInt executes an integer ALU instruction. A non-nil event (divide
// fault) means the instruction did not retire.
func (m *Machine) execInt(inst *isa.Inst, addr uint64) Event {
	c := &m.CPU
	a := c.reg(inst.Rs1)
	b := c.reg(inst.Rs2)
	var v uint64
	switch inst.Op {
	case isa.OpMOVI:
		v = uint64(inst.Imm)
	case isa.OpMOV:
		v = a
	case isa.OpADD:
		v = a + b
	case isa.OpADDI:
		v = a + uint64(inst.Imm)
	case isa.OpSUB:
		v = a - b
	case isa.OpMULQ:
		v = uint64(int64(a) * int64(b))
	case isa.OpDIVQ, isa.OpREMQ:
		if b == 0 {
			return m.faultEvent("integer divide by zero", addr)
		}
		if inst.Op == isa.OpDIVQ {
			v = uint64(int64(a) / int64(b))
		} else {
			v = uint64(int64(a) % int64(b))
		}
	case isa.OpAND:
		v = a & b
	case isa.OpOR:
		v = a | b
	case isa.OpXOR:
		v = a ^ b
	case isa.OpSHLI:
		v = a << uint(inst.Imm)
	case isa.OpSHRI:
		v = a >> uint(inst.Imm)
	}
	c.setReg(inst.Rd, v)
	return nil
}

// execMem executes a load/store/MXCSR-access instruction. A non-nil
// event (memory fault) means the instruction did not retire; partial
// vector stores before a fault match the stepped path by construction
// since both run this code.
func (m *Machine) execMem(inst *isa.Inst, addr uint64) Event {
	c := &m.CPU
	ea := c.reg(inst.Rs1) + uint64(inst.Imm)
	switch inst.Op {
	case isa.OpLD:
		v, ok := m.load64(ea)
		if !ok {
			return m.memFault(addr, ea)
		}
		c.setReg(inst.Rd, v)
	case isa.OpST:
		if !m.store64(ea, c.reg(inst.Rs2)) {
			return m.memFault(addr, ea)
		}
	case isa.OpFLD:
		v, ok := m.load64(ea)
		if !ok {
			return m.memFault(addr, ea)
		}
		c.X[inst.Rd][0] = v
	case isa.OpFST:
		if !m.store64(ea, c.X[inst.Rs2][0]) {
			return m.memFault(addr, ea)
		}
	case isa.OpFLDS:
		v, ok := m.load32(ea)
		if !ok {
			return m.memFault(addr, ea)
		}
		c.X[inst.Rd][0] = uint64(v) // upper bits zeroed, movss load semantics
	case isa.OpFSTS:
		if !m.store32(ea, uint32(c.X[inst.Rs2][0])) {
			return m.memFault(addr, ea)
		}
	case isa.OpFLDV:
		for l := 0; l < 4; l++ {
			v, ok := m.load64(ea + uint64(l)*8)
			if !ok {
				return m.memFault(addr, ea)
			}
			c.X[inst.Rd][l] = v
		}
	case isa.OpFSTV:
		for l := 0; l < 4; l++ {
			if !m.store64(ea+uint64(l)*8, c.X[inst.Rs2][l]) {
				return m.memFault(addr, ea)
			}
		}
	case isa.OpFLDVZ:
		for l := 0; l < isa.VecWords; l++ {
			v, ok := m.load64(ea + uint64(l)*8)
			if !ok {
				return m.memFault(addr, ea)
			}
			c.X[inst.Rd][l] = v
		}
	case isa.OpFSTVZ:
		for l := 0; l < isa.VecWords; l++ {
			if !m.store64(ea+uint64(l)*8, c.X[inst.Rs2][l]) {
				return m.memFault(addr, ea)
			}
		}
	case isa.OpLDMXCSR:
		v, ok := m.load32(ea)
		if !ok {
			return m.memFault(addr, ea)
		}
		c.MXCSR = mxcsr.Reg(v)
		if m.Obs != nil {
			m.Obs.GuestMXCSRWrites.Inc()
		}
	case isa.OpSTMXCSR:
		if !m.store32(ea, uint32(c.MXCSR)) {
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
		c.X[inst.Rd][0] = c.reg(inst.Rs1)
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
	if m.Shadow != nil {
		m.Shadow.Retired()
	}
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
