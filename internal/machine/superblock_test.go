package machine

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/softfloat"
)

// wideFPProgram emits a program exercising the forms the superblock
// engine special-cases: 512-bit packed arithmetic, write-masked forms,
// mask-register moves, full-width loads/stores, FMA, sqrt, and scalar
// binary64 — in a loop with calls so regions rebuild and re-dispatch.
func wideFPProgram() *isa.Program {
	b := isa.NewBuilder("wide")
	a8 := b.Float64s(1, 2, 3, 4, 5, 6, 7, 8)
	c8 := b.Float64s(0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5)
	out := b.Zeros(8 * 8)
	fn := b.Label("fn")
	b.Movi(isa.R4, int64(a8))
	b.Fldvz(isa.X0, isa.R4, 0)
	b.Movi(isa.R4, int64(c8))
	b.Fldvz(isa.X1, isa.R4, 0)
	b.Movi(isa.R5, 0b10110101) // write mask
	b.Kmovq(isa.K1, isa.R5)
	b.Movi(isa.R2, 0)
	b.Movi(isa.R3, 30)
	top := b.Label("top")
	b.Bind(top)
	b.FP2(isa.OpVADDPDZ, isa.X2, isa.X0, isa.X1)
	b.FP2Masked(isa.OpVMULPDKZ, isa.X2, isa.X0, isa.X1, isa.K1)
	b.FP1Masked(isa.OpVSQRTPDKZ, isa.X3, isa.X2, isa.K1)
	b.FMA(isa.OpVFMADDPDZ, isa.X4, isa.X0, isa.X1, isa.X2)
	b.FP2(isa.OpDIVSD, isa.X5, isa.X0, isa.X1) // inexact each iteration
	b.Call(fn)
	b.Movi(isa.R4, int64(out))
	b.Fstvz(isa.R4, 0, isa.X4)
	b.Kmovrq(isa.R6, isa.K1)
	b.Addi(isa.R2, isa.R2, 1)
	b.Blt(isa.R2, isa.R3, top)
	b.Hlt()
	b.Bind(fn)
	b.FP2(isa.OpVSUBPSZ, isa.X6, isa.X1, isa.X0)
	b.Ret()
	return b.Build()
}

// branchProgram emits a loop that takes and falls through every
// conditional branch, calls two levels deep, and raises Inexact both in
// the loop and in the innermost call, so the FPSpy-style handler
// single-steps across region boundaries. R10 records each conditional
// branch's outcome as one bit, and R11/R12 count the calls. The program
// ends in a stack fault: a ret on the empty stack when underflow is set,
// else a call with SP at zero.
func branchProgram(underflow bool) *isa.Program {
	b := isa.NewBuilder("branches")
	top, done := b.Label("top"), b.Label("done")
	f1, f2 := b.Label("f1"), b.Label("f2")
	b.Movi(isa.R1, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R1)
	b.Movi(isa.R1, int64(math.Float64bits(3)))
	b.Movqx(isa.X1, isa.R1)
	b.Movi(isa.R2, 0) // loop counter
	b.Movi(isa.R3, 5) // trip count
	b.Movi(isa.R7, 2) // pivot the conditions compare the counter with
	b.Bind(top)
	for _, br := range []func(rs1, rs2 int, l *isa.Label){b.Beq, b.Bne, b.Blt, b.Bge, b.Ble, b.Bgt} {
		skip := b.Label("skip")
		b.Shli(isa.R10, isa.R10, 1)
		br(isa.R2, isa.R7, skip)
		b.Addi(isa.R10, isa.R10, 1) // fall-through sets the bit
		b.Bind(skip)
	}
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1) // inexact every iteration
	b.Call(f1)
	b.Addi(isa.R2, isa.R2, 1)
	b.Blt(isa.R2, isa.R3, top)
	b.Jmp(done)
	b.Bind(f1)
	b.Addi(isa.R11, isa.R11, 1)
	b.Call(f2)
	b.Ret()
	b.Bind(f2)
	b.Addi(isa.R12, isa.R12, 1)
	b.FP2(isa.OpADDSD, isa.X3, isa.X2, isa.X0) // inexact in the nested call
	b.Ret()
	b.Bind(done)
	if underflow {
		b.Ret() // SP is at the top of memory: the pop is out of bounds
	} else {
		b.Movi(isa.SP, 0)
		b.Call(f1) // the push wraps below zero
	}
	b.Hlt()
	return b.Build()
}

// branchSignature is the R10 that branchProgram leaves: one bit per
// conditional branch per iteration, set when the branch falls through.
func branchSignature() uint64 {
	var sig uint64
	for i := int64(0); i < 5; i++ {
		for _, taken := range []bool{i == 2, i != 2, i < 2, i >= 2, i <= 2, i > 2} {
			sig <<= 1
			if !taken {
				sig++
			}
		}
	}
	return sig
}

// intOpsProgram emits every integer ALU op the region loop retires
// inline twice: once writing r0, which must stay zero, and once reading
// r0 as a source. Then come shli and shri by 0, 63, 64 and -1, and the
// wrapping add, sub and mulq. Every result but the writes to r0 is
// stored to out in turn, for intOpsWant to pin.
func intOpsProgram() (prog *isa.Program, out uint64) {
	b := isa.NewBuilder("intops")
	out = b.Zeros(8 * len(intOpsWant))
	b.Movi(isa.R1, -3)
	b.Movi(isa.R2, 5)
	b.Movi(isa.R4, math.MinInt64+1)
	b.Movi(isa.R5, -1)
	b.Movi(isa.R6, 1<<32+1)
	b.Movi(isa.R14, int64(out))
	b.Movi(isa.R0, 9)
	b.Mov(isa.R0, isa.R1)
	for _, op := range []func(rd, rs1, rs2 int){b.Add, b.Sub, b.Mulq, b.And, b.Or, b.Xor} {
		op(isa.R0, isa.R1, isa.R2)
	}
	for _, op := range []func(rd, rs1 int, imm int64){b.Addi, b.Shli, b.Shri} {
		op(isa.R0, isa.R1, 1)
	}
	results := []func(){
		func() { b.Mov(isa.R3, isa.R0) },
		func() { b.Add(isa.R3, isa.R0, isa.R1) },
		func() { b.Addi(isa.R3, isa.R0, -7) },
		func() { b.Sub(isa.R3, isa.R0, isa.R2) },
		func() { b.Mulq(isa.R3, isa.R1, isa.R0) },
		func() { b.And(isa.R3, isa.R1, isa.R0) },
		func() { b.Or(isa.R3, isa.R0, isa.R2) },
		func() { b.Xor(isa.R3, isa.R1, isa.R0) },
		func() { b.Shli(isa.R3, isa.R0, 3) },
		func() { b.Shri(isa.R3, isa.R0, 3) },
		func() { b.Add(isa.R3, isa.R5, isa.R2) },
		func() { b.Sub(isa.R3, isa.R2, isa.R1) },
		func() { b.Mulq(isa.R3, isa.R6, isa.R6) },
		func() { b.Mulq(isa.R3, isa.R1, isa.R2) },
	}
	for _, n := range []int64{0, 63, 64, -1} {
		results = append(results, func() { b.Shli(isa.R3, isa.R4, n) }, func() { b.Shri(isa.R3, isa.R4, n) })
	}
	for i, emit := range results {
		emit()
		b.St(isa.R14, int64(8*i), isa.R3)
	}
	b.Hlt()
	return b.Build(), out
}

// intOpsWant is what intOpsProgram stores, in order, written out rather
// than computed so that a fault in the helper both engines share fails.
var intOpsWant = []uint64{
	0, 0xfffffffffffffffd, 0xfffffffffffffff9, 0xfffffffffffffffb, // mov, add, addi, sub from r0
	0, 0, 5, 0xfffffffffffffffd, 0, 0, // mulq, and, or, xor, shli, shri with r0
	4, 8, 0x200000001, 0xfffffffffffffff1, // wrapping add, sub, mulq; -3 * 5
	0x8000000000000001, 0x8000000000000001, // shli, shri by 0
	0x8000000000000000, 1, // by 63
	0, 0, // by 64
	0, 0, // by -1
}

// condProgram emits each conditional branch on operands whose difference
// is negative, zero and positive, a negative operand among them so that
// an unsigned comparison would decide otherwise, in a loop that a jmp
// back edge closes after two passes. R10 records each branch's outcome
// as one bit, set when the branch falls through.
func condProgram() *isa.Program {
	b := isa.NewBuilder("conds")
	top, done := b.Label("top"), b.Label("done")
	b.Movi(isa.R4, -5)
	b.Movi(isa.R5, 3)
	b.Movi(isa.R3, 2) // passes
	b.Bind(top)
	for _, br := range []func(rs1, rs2 int, l *isa.Label){b.Beq, b.Bne, b.Blt, b.Bge, b.Ble, b.Bgt} {
		for _, rs := range [][2]int{{isa.R4, isa.R5}, {isa.R4, isa.R4}, {isa.R5, isa.R4}} {
			skip := b.Label("skip")
			b.Shli(isa.R10, isa.R10, 1)
			br(rs[0], rs[1], skip)
			b.Addi(isa.R10, isa.R10, 1)
			b.Bind(skip)
		}
	}
	b.Addi(isa.R2, isa.R2, 1)
	b.Bge(isa.R2, isa.R3, done)
	b.Jmp(top)
	b.Bind(done)
	b.Hlt()
	return b.Build()
}

// condSignature is the R10 that condProgram leaves.
func condSignature() uint64 {
	var sig uint64
	for pass := 0; pass < 2; pass++ {
		for _, cond := range []func(a, b int64) bool{
			func(a, b int64) bool { return a == b }, func(a, b int64) bool { return a != b },
			func(a, b int64) bool { return a < b }, func(a, b int64) bool { return a >= b },
			func(a, b int64) bool { return a <= b }, func(a, b int64) bool { return a > b },
		} {
			for _, ab := range [][2]int64{{-5, 3}, {-5, -5}, {3, -5}} {
				sig <<= 1
				if !cond(ab[0], ab[1]) {
					sig++
				}
			}
		}
	}
	return sig
}

// selfLoopProgram emits a loop that is its own region, four iterations
// of x1 += 1.0, x2 = 1.0 / x1 and r2++, closed by a blt to its head. The
// division is inexact only in the third iteration, so the handler's
// fault and trap land in a later pass over the region. The preamble
// jumps to the head, or with mid set into the body, whose region then
// chains to the head; x1 starts at 0.0 or 1.0 to match.
func selfLoopProgram(mid bool) *isa.Program {
	b := isa.NewBuilder("selfloop")
	head, body := b.Label("head"), b.Label("body")
	b.Movi(isa.R1, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R1)
	b.Movqx(isa.X3, isa.R1)
	b.Movi(isa.R3, 4)
	if mid {
		b.Movqx(isa.X1, isa.R1)
		b.Jmp(body)
	} else {
		b.Movqx(isa.X1, isa.R0)
		b.Jmp(head)
	}
	b.Bind(head)
	b.FP2(isa.OpADDSD, isa.X1, isa.X1, isa.X3)
	b.Bind(body)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1) // idx 7 either way
	b.Addi(isa.R2, isa.R2, 1)
	b.Blt(isa.R2, isa.R3, head)
	b.Hlt()
	return b.Build()
}

// loopProgram emits r2 = start, r3 = lim and r8 = 3, a jmp to the loop
// head, so that every pass runs in the loop's own region, and the loop:
// body, closed by blt r2, r3 back to the head; then hlt.
func loopProgram(name string, start, lim int64, body func(b *isa.Builder)) *isa.Program {
	b := isa.NewBuilder(name)
	head := b.Label("head")
	b.Movi(isa.R2, start)
	b.Movi(isa.R3, lim)
	b.Movi(isa.R8, 3)
	b.Jmp(head)
	b.Bind(head)
	body(b)
	b.Blt(isa.R2, isa.R3, head)
	b.Hlt()
	return b.Build()
}

// counterStep is a loop body that only advances the counter r2.
func counterStep(step int64) func(b *isa.Builder) {
	return func(b *isa.Builder) { b.Addi(isa.R2, isa.R2, step) }
}

// shortcutCase is an engine differential program for the region
// shortcuts, counted self-loops and overwritten integer writes, with
// its outcome written out: the events and the retired count and
// registers after at most shortcutLimit retires.
type shortcutCase struct {
	prog    *isa.Program
	events  []string
	retired uint64
	regs    map[int]uint64
}

// shortcutLimit is where drive stops the shortcut programs that never
// halt: a counter wrapping past MaxInt64, and one from MinInt64 to
// MaxInt64.
const shortcutLimit = 1 << 14

// shortcutCases returns the shortcut programs.
func shortcutCases() []shortcutCase {
	halt := []string{"halt"}
	counter := isa.NewBuilder("counter") // entered by falling through
	top := counter.Label("top")
	counter.Movi(isa.R2, 0)
	counter.Movi(isa.R3, 1000)
	counter.Bind(top)
	counter.Addi(isa.R2, isa.R2, 1)
	counter.Blt(isa.R2, isa.R3, top)
	counter.Hlt()

	mulq := isa.NewBuilder("mulq-run")
	mulq.Movi(isa.R8, 7)
	for range 35 {
		mulq.Mulq(isa.R6, isa.R8, isa.R8)
	}
	mulq.Hlt()

	chained := isa.NewBuilder("chained")
	chained.Movi(isa.R5, 1)
	chained.Movi(isa.R5, 2)
	chained.Shli(isa.R5, isa.R8, 3)
	chained.Movi(isa.R5, 3)
	chained.Mov(isa.R6, isa.R5)
	chained.Movi(isa.R5, 4)
	chained.Hlt()

	between := isa.NewBuilder("read-between")
	between.Movi(isa.R7, 100)
	between.Movi(isa.R5, 11)
	between.Add(isa.R6, isa.R7, isa.R5) // reads r5 as its second source
	between.Movi(isa.R5, 2)
	between.Movi(isa.R9, 5)
	between.Addi(isa.R10, isa.R9, 1) // reads r9 as its only source
	between.Movi(isa.R9, 6)
	between.Hlt()

	long := isa.NewBuilder("long-run") // 301 inline ops
	long.Movi(isa.R8, 1000)
	for i := range int64(300) {
		if i%100 == 50 {
			long.Add(isa.R9, isa.R9, isa.R6)
		} else {
			long.Addi(isa.R6, isa.R8, i)
		}
	}
	long.Hlt()

	load := isa.NewBuilder("load-break")
	word := load.Words(0x123456789abcdef0)
	load.Movi(isa.R6, 12345)
	load.Movi(isa.R6, int64(word))
	load.Ld(isa.R7, isa.R6, 0)
	load.Movi(isa.R6, 0)
	load.Hlt()

	return []shortcutCase{
		{counter.Build(), halt, 2 + 2*1000, map[int]uint64{isa.R2: 1000}},
		{loopProgram("ctr-reads", 0, 100, func(b *isa.Builder) {
			b.Mulq(isa.R5, isa.R2, isa.R8)
			b.Nop()
			b.Addi(isa.R2, isa.R2, 1)
			b.Add(isa.R6, isa.R2, isa.R8)
		}), halt, 4 + 5*100, map[int]uint64{isa.R2: 100, isa.R5: 297, isa.R6: 103}},
		{loopProgram("carried", 0, 50, func(b *isa.Builder) {
			b.Add(isa.R4, isa.R4, isa.R2)
			b.Addi(isa.R2, isa.R2, 1)
		}), halt, 4 + 3*50, map[int]uint64{isa.R2: 50, isa.R4: 1225}},
		{loopProgram("step3", 1, 1001, func(b *isa.Builder) {
			b.Addi(isa.R2, isa.R2, 3)
			b.Xor(isa.R5, isa.R2, isa.R3)
		}), halt, 4 + 3*334, map[int]uint64{isa.R2: 1003, isa.R5: 2}},
		{loopProgram("moving-bound", 0, 0, func(b *isa.Builder) {
			b.Addi(isa.R2, isa.R2, 1)
			b.Shli(isa.R3, isa.R8, 5)
			b.Sub(isa.R3, isa.R3, isa.R2) // the bound is 96 - r2
		}), halt, 4 + 4*48, map[int]uint64{isa.R2: 48, isa.R3: 48}},
		{loopProgram("counter-twice", 0, 100, func(b *isa.Builder) {
			b.Addi(isa.R2, isa.R2, 1)
			b.Addi(isa.R2, isa.R2, 2)
		}), halt, 4 + 3*34, map[int]uint64{isa.R2: 102}},
		{loopProgram("geometric", 0, 100, func(b *isa.Builder) {
			b.Mulq(isa.R5, isa.R2, isa.R8)
			b.Addi(isa.R2, isa.R5, 1) // r2 = 3*r2 + 1
		}), halt, 4 + 3*5, map[int]uint64{isa.R2: 121, isa.R5: 120}},
		{loopProgram("max-exit", math.MaxInt64-9, math.MaxInt64, counterStep(3)),
			halt, 4 + 2*3, map[int]uint64{isa.R2: math.MaxInt64}},
		{loopProgram("max-wrap", math.MaxInt64-10, math.MaxInt64, counterStep(3)),
			nil, shortcutLimit, map[int]uint64{isa.R2: 0x8000000000005fef}},
		{loopProgram("min-start", math.MinInt64, math.MinInt64+1000, counterStep(7)),
			halt, 4 + 2*143, map[int]uint64{isa.R2: 0x80000000000003e9}},
		{loopProgram("min-to-max", math.MinInt64, math.MaxInt64, counterStep(1<<40)),
			nil, shortcutLimit, map[int]uint64{isa.R2: 0x801ffe0000000000}},
		{loopProgram("entered-done", 10, 5, counterStep(1)), halt, 4 + 2, map[int]uint64{isa.R2: 11}},
		{mulq.Build(), halt, 36, map[int]uint64{isa.R6: 49}},
		{chained.Build(), halt, 6, map[int]uint64{isa.R5: 4, isa.R6: 3}},
		{between.Build(), halt, 7, map[int]uint64{isa.R5: 2, isa.R6: 111, isa.R9: 6, isa.R10: 6}},
		{long.Build(), halt, 301, map[int]uint64{isa.R6: 1299, isa.R9: 3447}},
		{load.Build(), halt, 4, map[int]uint64{isa.R6: 0, isa.R7: 0x123456789abcdef0}},
	}
}

// diffMem is the memory size of the engine differentials: the data
// segment loads at 1 MiB, and the stack starts at the top.
const diffMem = 1 << 21

// drive runs m under the FPSpy-style handler until it halts, faults, or
// has retired limit instructions, and returns the events it saw. The
// handler masks the unmasked conditions of an FP fault and sets TF, then
// at the trap clears the sticky flags and unmasks them again. With no
// budgets every instruction is a Step; otherwise RunStraight retires the
// straight runs, its successive calls cycling through budgets, and each
// call must retire (and credit to Retired) exactly the n it reports, no
// more than its budget, and R0 must read zero after every call. Programs
// driven here make no libc calls.
func drive(t *testing.T, m *Machine, budgets []uint64, limit uint64) []string {
	t.Helper()
	m.CPU.R[isa.SP] = m.Mem.Size()
	m.CPU.MXCSR.Unmask(softfloat.FlagInexact)
	var events []string
	pending := softfloat.FlagInexact
	for i := 0; m.Retired < limit; i++ {
		var ev Event
		if m.CPU.TF || len(budgets) == 0 {
			ev = m.Step()
		} else {
			budget := min(budgets[i%len(budgets)], limit-m.Retired)
			before := m.Retired
			var n uint64
			n, ev = m.RunStraight(budget)
			if n > budget || m.Retired-before != n {
				t.Fatalf("RunStraight(%d) reported %d retires and credited %d", budget, n, m.Retired-before)
			}
		}
		if m.CPU.R[0] != 0 {
			t.Fatalf("R0 = %#x after %d retires", m.CPU.R[0], m.Retired)
		}
		switch e := ev.(type) {
		case nil:
		case *FPEvent:
			events = append(events, fmt.Sprintf("fp %#x %v", e.Addr, e.Unmasked))
			pending |= e.Unmasked
			m.CPU.MXCSR.Mask(e.Unmasked)
			m.CPU.TF = true
		case *TrapEvent:
			events = append(events, fmt.Sprintf("trap %#x", e.Addr))
			m.CPU.MXCSR.ClearFlags()
			m.CPU.MXCSR.Unmask(pending)
			m.CPU.TF = false
		case *HaltEvent:
			return append(events, "halt")
		case *FaultEvent:
			return append(events, fmt.Sprintf("fault %s at %#x", e.Reason, e.Addr))
		case *BreakpointEvent:
			return append(events, fmt.Sprintf("breakpoint %#x", e.Addr))
		default:
			t.Fatalf("unexpected event %T", ev)
		}
	}
	return events
}

// diffMachines describes the first difference in architectural state
// between two machines — CPU, Retired, or a memory byte — or returns "".
func diffMachines(a, b *Machine) string {
	if a.CPU != b.CPU {
		return fmt.Sprintf("CPU state diverged:\n %+v\n %+v", a.CPU, b.CPU)
	}
	if a.Retired != b.Retired {
		return fmt.Sprintf("retired %d and %d", a.Retired, b.Retired)
	}
	diff := ""
	for _, pair := range [2][2]*Memory{{a.Mem, b.Mem}, {b.Mem, a.Mem}} {
		pair[0].EachPage(func(base uint64, data []byte) {
			for i, v := range data {
				if diff == "" && pair[1].byteAt(base+uint64(i)) != v {
					diff = fmt.Sprintf("memory diverged at %#x", base+uint64(i))
				}
			}
		})
	}
	return diff
}

// notice is one shadow-sink notification a recorder logged: the
// PreStep address and opcode, and whether Retired followed.
type notice struct {
	addr    uint64
	op      isa.Opcode
	retired bool
}

// recorder is a test ShadowSink that logs every notification. A
// Retired with no PreStep before it since the last Retired logs a
// notice at address ^0, which no engine may produce.
type recorder struct{ log []notice }

func (r *recorder) PreStep(addr uint64, inst *isa.Inst, _ *isa.OpInfo) {
	r.log = append(r.log, notice{addr: addr, op: inst.Op})
}

func (r *recorder) Retired() {
	if n := len(r.log); n > 0 && !r.log[n-1].retired {
		r.log[n-1].retired = true
		return
	}
	r.log = append(r.log, notice{addr: ^uint64(0), retired: true})
}

// checkEngines is the engine differential: it drives prog through Step
// and then, once per budget sequence, through RunStraight, and fails t
// unless every run leaves the same CPU state, Retired, memory and event
// sequence. It then drives every run again with a recorder attached to
// each machine: the state and events must not change, and every
// recorder's log must equal the Step run's. It returns the Step
// reference machine and its events.
func checkEngines(t *testing.T, prog *isa.Program, limit uint64, budgets ...[]uint64) (*Machine, []string) {
	t.Helper()
	run := func(seq []uint64, sink bool) (*Machine, []string, []notice) {
		m := New(prog, diffMem)
		rec := &recorder{}
		if sink {
			m.SetShadow(rec)
		}
		events := drive(t, m, seq, limit)
		return m, events, rec.log
	}
	ref, want, _ := run(nil, false)
	for _, sink := range []bool{false, true} {
		refSink, wantSink, wantLog := run(nil, sink)
		if d := diffMachines(refSink, ref); d != "" || !slices.Equal(wantSink, want) {
			t.Fatalf("%s: Step with a sink attached: %s, events\n %q\nwant\n %q", prog.Name, d, wantSink, want)
		}
		for _, seq := range budgets {
			m, got, log := run(seq, sink)
			if d := diffMachines(m, ref); d != "" {
				t.Fatalf("%s, budgets %v, sink %v: %s", prog.Name, seq, sink, d)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s, budgets %v, sink %v: events\n %q\nwant (Step)\n %q", prog.Name, seq, sink, got, want)
			}
			if !slices.Equal(log, wantLog) {
				t.Fatalf("%s, budgets %v: sink log\n %v\nwant (Step)\n %v", prog.Name, seq, log, wantLog)
			}
		}
	}
	return ref, want
}

// everyBudget returns the budget sequences {1}, {2}, ..., {n}.
func everyBudget(n int) [][]uint64 {
	seqs := make([][]uint64, n)
	for i := range seqs {
		seqs[i] = []uint64{uint64(i + 1)}
	}
	return seqs
}

// TestSuperblockMatchesStep is the engine differential: the cached
// superblock dispatch and the precise per-instruction Step reference
// must produce bit-identical architectural outcomes — registers, mask
// registers, memory, retirement counts, and the event sequence — on
// programs covering every SBKind, every inline integer op writing and
// reading r0, shift counts 0, 63, 64 and -1, wrapping arithmetic, every
// branch opcode taken and not taken on signed operands, nested calls and
// both stack faults, a loop that is its own region with an event in a
// later pass, and the shortcut programs (counted self-loops, overwritten
// integer writes), at every RunStraight budget from 1 to the program's
// length; the shortcut programs also run under budgets long enough for
// a loop to skip many passes in one call.
func TestSuperblockMatchesStep(t *testing.T) {
	// Agreement alone would pass a fault or a runaway loop in semantics
	// the two engines share, so each program's outcome is also pinned.
	for _, prog := range []*isa.Program{wideFPProgram(), eventFPProgram()} {
		_, events := checkEngines(t, prog, 1<<20, everyBudget(len(prog.Insts))...)
		if len(events) == 0 || events[len(events)-1] != "halt" {
			t.Errorf("%s: events %q, want a halt at the end", prog.Name, events)
		}
	}
	for _, underflow := range []bool{true, false} {
		prog := branchProgram(underflow)
		ref, events := checkEngines(t, prog, 1<<20, everyBudget(len(prog.Insts))...)
		last := len(prog.Insts) - 2 // the ret, or the call after the movi
		want := fmt.Sprintf("fault stack overflow at %#x at %#x", ^uint64(7), prog.AddrOf(last))
		if underflow {
			want = fmt.Sprintf("fault stack underflow at %#x at %#x", uint64(diffMem), prog.AddrOf(last))
		}
		if len(events) == 0 || events[len(events)-1] != want {
			t.Errorf("underflow=%v: events %q, want %q at the end", underflow, events, want)
		}
		r := &ref.CPU.R
		if r[isa.R10] != branchSignature() || r[isa.R2] != 5 || r[isa.R11] != 5 || r[isa.R12] != 5 {
			t.Errorf("underflow=%v: signature %#x (want %#x), counter %d, calls %d and %d (want 5)",
				underflow, r[isa.R10], branchSignature(), r[isa.R2], r[isa.R11], r[isa.R12])
		}
	}
	prog, out := intOpsProgram()
	ref, events := checkEngines(t, prog, 1<<20, everyBudget(len(prog.Insts))...)
	if !slices.Equal(events, []string{"halt"}) {
		t.Errorf("intops: events %q, want a halt", events)
	}
	for i, want := range intOpsWant {
		if got, _ := ref.Mem.Load64(out + uint64(8*i)); got != want {
			t.Errorf("intops: result %d = %#x, want %#x", i, got, want)
		}
	}
	prog = condProgram()
	ref, events = checkEngines(t, prog, 1<<20, everyBudget(len(prog.Insts))...)
	if !slices.Equal(events, []string{"halt"}) || ref.CPU.R[isa.R10] != condSignature() || ref.CPU.R[isa.R2] != 2 {
		t.Errorf("conds: events %q, signature %#x (want %#x), passes %d (want 2)",
			events, ref.CPU.R[isa.R10], condSignature(), ref.CPU.R[isa.R2])
	}
	for _, mid := range []bool{false, true} {
		prog := selfLoopProgram(mid)
		ref, events := checkEngines(t, prog, 1<<20, everyBudget(len(prog.Insts))...)
		div := prog.AddrOf(7)
		want := []string{fmt.Sprintf("fp %#x %v", div, softfloat.FlagInexact), fmt.Sprintf("trap %#x", div), "halt"}
		retired := uint64(6 + 4*4) // the preamble, then four iterations
		if mid {
			retired-- // the first iteration starts after the addsd
		}
		c := &ref.CPU
		if !slices.Equal(events, want) || ref.Retired != retired || c.R[isa.R2] != 4 ||
			c.X[isa.X1][0] != math.Float64bits(4) || c.X[isa.X2][0] != math.Float64bits(0.25) {
			t.Errorf("selfloop mid=%v: events %q (want %q), retired %d (want %d), R2 %d, x1 %#x, x2 %#x",
				mid, events, want, ref.Retired, retired, c.R[isa.R2], c.X[isa.X1][0], c.X[isa.X2][0])
		}
	}
	for _, tc := range shortcutCases() {
		budgets := append(everyBudget(len(tc.prog.Insts)), []uint64{1 << 20}, []uint64{100, 3, 1000})
		ref, events := checkEngines(t, tc.prog, shortcutLimit, budgets...)
		if !slices.Equal(events, tc.events) || ref.Retired != tc.retired {
			t.Errorf("%s: events %q (want %q), retired %d (want %d)", tc.prog.Name, events, tc.events, ref.Retired, tc.retired)
		}
		for r, want := range tc.regs {
			if got := ref.CPU.R[r]; got != want {
				t.Errorf("%s: r%d = %#x, want %#x", tc.prog.Name, r, got, want)
			}
		}
		// A shortcut must also leave Step's state wherever a budget cuts
		// the run, not only after the run: drive the program to each
		// prefix of up to 600 retires in one RunStraight call.
		for limit := uint64(1); limit <= min(tc.retired, 600); limit++ {
			checkEngines(t, tc.prog, limit, []uint64{1 << 20})
		}
	}
}

// TestVectorAccessFaultHasNoEffect pins x86's precise faults on the
// vector forms: a fldv, fstv, fldvz or fstvz whose range runs past the
// end of memory faults, under Step and RunStraight alike, with the
// register and every memory word as they were, and does not retire.
func TestVectorAccessFaultHasNoEffect(t *testing.T) {
	const mem = 1 << 16
	for _, tc := range []struct {
		op   isa.Opcode
		span uint64 // bytes the access covers
	}{{isa.OpFLDV, 32}, {isa.OpFSTV, 32}, {isa.OpFLDVZ, 64}, {isa.OpFSTVZ, 64}} {
		for _, stepped := range []bool{true, false} {
			ea := uint64(mem) - tc.span/2 // the first half of the lanes is in bounds
			b := isa.NewBuilder(tc.op.String())
			b.Movi(isa.R1, int64(ea))
			b.Raw(isa.Inst{Op: tc.op, Rd: isa.X0, Rs1: isa.R1, Rs2: isa.X1})
			b.Hlt()
			m := New(b.Build(), mem)
			for l := range m.CPU.X[0] {
				m.CPU.X[isa.X0][l] = 0x1111 * uint64(l+1)
				m.CPU.X[isa.X1][l] = 0xaaaa * uint64(l+1)
			}
			for a := ea; a < mem; a += 8 {
				m.Mem.Store64(a, a)
			}
			before := m.CPU.X[isa.X0]
			var ev Event
			if stepped {
				if ev = m.Step(); ev == nil {
					ev = m.Step()
				}
			} else {
				_, ev = m.RunStraight(10)
			}
			want := fmt.Sprintf("bad memory access %#x", ea)
			if f, ok := ev.(*FaultEvent); !ok || f.Reason != want || f.Addr != m.Prog.AddrOf(1) {
				t.Fatalf("%v stepped=%v: event %#v, want %q at %#x", tc.op, stepped, ev, want, m.Prog.AddrOf(1))
			}
			if m.CPU.X[isa.X0] != before || m.Retired != 1 || m.CPU.RIP != m.Prog.AddrOf(1) {
				t.Errorf("%v stepped=%v: x0 %#x (was %#x), retired %d, RIP %#x", tc.op, stepped, m.CPU.X[isa.X0], before, m.Retired, m.CPU.RIP)
			}
			for a := ea; a < mem; a += 8 {
				if v, _ := m.Mem.Load64(a); v != a {
					t.Errorf("%v stepped=%v: memory at %#x = %#x, want %#x", tc.op, stepped, a, v, a)
				}
			}
		}
	}
}

// TestShadowSinkObservedClasses pins which instructions a shadow sink
// hears of, under Step and under RunStraight at every budget: every
// floating point class and every memory access, integer st included,
// each followed by Retired unless it faults; no integer ALU op, branch,
// mask move, nop or hlt.
func TestShadowSinkObservedClasses(t *testing.T) {
	b := isa.NewBuilder("classes")
	data := b.Float64s(1.5, 0)
	b.Movi(isa.R1, int64(data))                           // 0 int
	b.Fld(isa.X0, isa.R1, 0)                              // 1 mem
	b.FP2(isa.OpADDSD, isa.X1, isa.X0, isa.X0)            // 2 arith
	b.FMA(isa.OpVFMADDSD, isa.X2, isa.X0, isa.X1, isa.X0) // 3 fma
	b.FP1(isa.OpMOVSD, isa.X3, isa.X2)                    // 4 move
	b.Cvt(isa.OpCVTSD2SI, isa.R2, isa.X3)                 // 5 convert
	b.St(isa.R1, 8, isa.R2)                               // 6 integer st
	b.Ld(isa.R3, isa.R1, 8)                               // 7 ld
	b.Kmovq(isa.K1, isa.R3)                               // 8 mask
	b.Nop()                                               // 9 sys
	b.Ucomi(isa.OpUCOMISD, isa.R4, isa.X0, isa.X1)        // 10 compare
	b.Round(isa.OpROUNDSD, isa.X4, isa.X1, 0)             // 11 round
	b.FP2(isa.OpDPPS, isa.X5, isa.X0, isa.X1)             // 12 dot
	after := b.Label("after")
	b.Jmp(after) // 13 branch
	b.Bind(after)
	b.Addi(isa.R5, isa.R5, 1) // 14 int
	b.Movi(isa.R6, -8)        // 15 int
	b.St(isa.R6, 0, isa.R5)   // 16 st that faults
	b.Hlt()
	prog := b.Build()
	var want []notice
	for _, i := range []int{1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 16} {
		want = append(want, notice{addr: prog.AddrOf(i), op: prog.Insts[i].Op, retired: i != 16})
	}
	for _, seq := range append(everyBudget(len(prog.Insts)), nil) {
		m := New(prog, diffMem)
		rec := &recorder{}
		m.SetShadow(rec)
		events := drive(t, m, seq, 1<<10)
		if len(events) != 1 || !strings.HasPrefix(events[0], "fault bad memory access") {
			t.Fatalf("budgets %v: events %q, want one memory fault", seq, events)
		}
		if !slices.Equal(rec.log, want) {
			t.Fatalf("budgets %v: sink log\n %v\nwant\n %v", seq, rec.log, want)
		}
	}
}

// TestShadowSinkInvalidatesRegions pins the cache-coherence contract
// for the sink: attaching one to a machine whose regions are already
// cached takes effect on the next RunStraight, and detaching it stops
// the notifications, though the loop's region was built for the other
// setting each time.
func TestShadowSinkInvalidatesRegions(t *testing.T) {
	b := isa.NewBuilder("loop")
	top := b.Label("top")
	b.Movi(isa.R3, 10) // idx 0
	b.Bind(top)
	b.FP2(isa.OpADDSD, isa.X1, isa.X1, isa.X0) // idx 1
	b.Addi(isa.R2, isa.R2, 1)                  // idx 2
	b.Blt(isa.R2, isa.R3, top)                 // idx 3
	b.Hlt()
	m := New(b.Build(), 64)
	step := func(n uint64) {
		t.Helper()
		if got, ev := m.RunStraight(n); got != n || ev != nil {
			t.Fatalf("RunStraight(%d) ran %d, event %T", n, got, ev)
		}
	}
	step(1 + 3*2) // two iterations cache the loop's region
	rec := &recorder{}
	m.SetShadow(rec)
	step(3 * 3)
	want := notice{addr: m.Prog.AddrOf(1), op: isa.OpADDSD, retired: true}
	if !slices.Equal(rec.log, []notice{want, want, want}) {
		t.Fatalf("after attaching: sink log %v, want three retired addsd", rec.log)
	}
	m.SetShadow(nil)
	step(3 * 2)
	if len(rec.log) != 3 {
		t.Fatalf("after detaching: sink log grew to %v", rec.log)
	}
}

// TestBranchTargetsOutsideProgram guards the chained dispatch: a branch
// to an instruction index outside the program, or a ret to an address
// outside it or off the instruction grid, must end in a "bad rip" fault
// with the same state under Step and under RunStraight at every budget.
// Nothing validates branch targets before a submitted program runs.
func TestBranchTargetsOutsideProgram(t *testing.T) {
	const n = 9 // instructions in each program below
	const base uint64 = isa.DefaultCodeBase
	retTo := func(addr uint64) []isa.Inst {
		return []isa.Inst{
			{Op: isa.OpMOVI, Rd: isa.R4, Imm: int64(addr)},
			{Op: isa.OpADDI, Rd: isa.SP, Rs1: isa.SP, Imm: -8},
			{Op: isa.OpST, Rs1: isa.SP, Rs2: isa.R4},
			{Op: isa.OpRET},
		}
	}
	jump := func(op isa.Opcode, target int64) []isa.Inst {
		return []isa.Inst{{Op: isa.OpNOP}, {Op: isa.OpNOP}, {Op: isa.OpNOP}, {Op: op, Rs1: isa.R1, Rs2: isa.R2, Imm: target}}
	}
	cases := []struct {
		name string
		tail []isa.Inst
		rip  uint64 // the address the fault reports
	}{
		{"jmp-negative", jump(isa.OpJMP, -1), base - 4},
		{"jmp-far-negative", jump(isa.OpJMP, -1000), base - 4000},
		{"jmp-len", jump(isa.OpJMP, n), base + 4*n},
		{"jmp-beyond", jump(isa.OpJMP, 1<<20), base + 4<<20},
		{"beq-negative", jump(isa.OpBEQ, -3), base - 12},
		{"beq-len", jump(isa.OpBEQ, n), base + 4*n},
		{"beq-beyond", jump(isa.OpBEQ, n+7), base + 4*(n+7)},
		{"ret-below", retTo(0x10), 0x10},
		{"ret-past-end", retTo(base + 4*n), base + 4*n},
		{"ret-far", retTo(1 << 40), 1 << 40},
		{"ret-unaligned", retTo(base + 6), base + 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := isa.NewBuilder(tc.name)
			top := b.Label("top")
			b.Movi(isa.R1, 7)
			b.Movi(isa.R2, 7)
			b.Movi(isa.R3, 0)
			b.Bind(top)
			b.Addi(isa.R3, isa.R3, 1)
			b.Blt(isa.R3, isa.R2, top) // chain through a loop first
			for _, inst := range tc.tail {
				b.Raw(inst)
			}
			prog := b.Build()
			if len(prog.Insts) != n {
				t.Fatalf("program has %d instructions, want %d", len(prog.Insts), n)
			}
			_, events := checkEngines(t, prog, 1<<20, everyBudget(n+2)...)
			want := fmt.Sprintf("fault bad rip %#x at %#x", tc.rip, tc.rip)
			if len(events) == 0 || events[len(events)-1] != want {
				t.Errorf("events %q, want %q at the end", events, want)
			}
		})
	}
}

// TestSuperblockBreakpointInvalidation pins the cache-coherence
// contract: arming a breakpoint after regions were built and cached
// must still deliver the BreakpointEvent at the stub — a stale region
// would run straight through it.
func TestSuperblockBreakpointInvalidation(t *testing.T) {
	b := isa.NewBuilder("bp")
	b.Movi(isa.R1, 1) // idx 0
	b.Movi(isa.R2, 2) // idx 1
	b.Movi(isa.R3, 3) // idx 2
	b.Movi(isa.R4, 4) // idx 3
	b.Hlt()
	m := New(b.Build(), 64)

	// Warm the cache across the whole straight line.
	n, ev := m.RunStraight(2)
	if n != 2 || ev != nil {
		t.Fatalf("warmup ran %d, ev %T", n, ev)
	}
	// Arm a breakpoint on an address inside the already-cached region.
	bpAddr := m.Prog.AddrOf(3)
	m.SetBreakpoint(bpAddr)
	m.CPU.RIP = m.Prog.Base // restart
	m.nextIdx = 0
	n, ev = m.RunStraight(100)
	bp, ok := ev.(*BreakpointEvent)
	if !ok {
		t.Fatalf("after arming: ran %d, event %T, want *BreakpointEvent", n, ev)
	}
	if bp.Addr != bpAddr {
		t.Errorf("breakpoint at %#x, want %#x", bp.Addr, bpAddr)
	}
	if n != 3 {
		t.Errorf("credited %d clean retires before breakpoint, want 3", n)
	}
	// Clearing it must also invalidate: the run now reaches halt.
	m.ClearBreakpoint(bpAddr)
	m.CPU.RIP = m.Prog.Base
	m.nextIdx = 0
	_, ev = m.RunStraight(100)
	if _, ok := ev.(*HaltEvent); !ok {
		t.Fatalf("after clearing: event %T, want *HaltEvent", ev)
	}
	if m.CPU.R[isa.R4] != 4 {
		t.Error("instruction after cleared breakpoint did not execute")
	}

	// A loop head reached through a chained branch: warm-up chains
	// around the loop and stops on the back branch; the breakpoint armed
	// on the head must stop the branch's successor, not run through the
	// region cached for it.
	lb := isa.NewBuilder("bploop")
	head := lb.Label("head")
	lb.Movi(isa.R1, 0)   // idx 0
	lb.Movi(isa.R2, 100) // idx 1
	lb.Bind(head)
	lb.Addi(isa.R1, isa.R1, 1)   // idx 2
	lb.Blt(isa.R1, isa.R2, head) // idx 3
	lb.Hlt()
	m = New(lb.Build(), 64)
	if n, ev := m.RunStraight(9); n != 9 || ev != nil {
		t.Fatalf("loop warmup ran %d, ev %T", n, ev)
	}
	if m.CPU.RIP != m.Prog.AddrOf(3) || m.CPU.R[isa.R1] != 4 {
		t.Fatalf("loop warmup stopped at %#x with R1 = %d", m.CPU.RIP, m.CPU.R[isa.R1])
	}
	headAddr := m.Prog.AddrOf(2)
	m.SetBreakpoint(headAddr)
	n, ev = m.RunStraight(100)
	if bp, ok := ev.(*BreakpointEvent); !ok || bp.Addr != headAddr {
		t.Fatalf("after arming the loop head: ran %d, event %#v, want a breakpoint at %#x", n, ev, headAddr)
	}
	if n != 1 || m.Retired != 10 || m.CPU.R[isa.R1] != 4 || m.CPU.RIP != headAddr {
		t.Errorf("breakpoint after %d retires (%d total), R1 = %d, RIP %#x; want 1, 10, 4, %#x",
			n, m.Retired, m.CPU.R[isa.R1], m.CPU.RIP, headAddr)
	}
}

// TestMaskedLanesNeitherComputeNorRaise pins the merge-masking model: a
// masked-off lane keeps the destination's prior contents and suppresses
// the exception its computation would have raised.
func TestMaskedLanesNeitherComputeNorRaise(t *testing.T) {
	b := isa.NewBuilder("mask")
	b.Hlt()
	m := New(b.Build(), 64)
	one := math.Float64bits(1)
	for l := 0; l < isa.VecWords; l++ {
		m.CPU.X[isa.X0][l] = one
		m.CPU.X[isa.X1][l] = 0 // 1/0 would raise divide-by-zero
		m.CPU.X[isa.X2][l] = uint64(100 + l)
	}
	m.CPU.K[isa.K1] = 0b00000010 // only lane 1 active
	m.CPU.MXCSR.Unmask(softfloat.FlagDivideByZero)
	m.Prog.Insts = append([]isa.Inst{
		{Op: isa.OpVDIVPDKZ, Rd: isa.X2, Rs1: isa.X0, Rs2: isa.X1, Rs3: isa.K1},
	}, m.Prog.Insts...)
	m.CPU.RIP = m.Prog.Base

	// The single active lane divides by zero: the event fires, the
	// instruction does not retire, and no destination lane changes.
	ev := m.Step()
	fp, ok := ev.(*FPEvent)
	if !ok {
		t.Fatalf("active faulting lane: event %T, want *FPEvent", ev)
	}
	if fp.Raised&softfloat.FlagDivideByZero == 0 {
		t.Errorf("raised %v, want divide-by-zero", fp.Raised)
	}
	for l := 0; l < isa.VecWords; l++ {
		if m.CPU.X[isa.X2][l] != uint64(100+l) {
			t.Fatalf("lane %d clobbered by faulting masked op", l)
		}
	}

	// Mask off every lane: nothing computes, nothing raises.
	m.CPU.MXCSR.ClearFlags()
	m.CPU.K[isa.K1] = 0
	if ev := m.Step(); ev != nil {
		t.Fatalf("all-lanes-masked op raised %T", ev)
	}
	for l := 0; l < isa.VecWords; l++ {
		if m.CPU.X[isa.X2][l] != uint64(100+l) {
			t.Fatalf("lane %d written by fully masked op", l)
		}
	}
	if fl := m.CPU.MXCSR.Flags(); fl != 0 {
		t.Errorf("fully masked op set sticky flags %v", fl)
	}
}

// TestZFormFullWidth pins 512-bit semantics end to end: fldvz loads all
// eight words, vaddpdz computes every lane, fstvz stores them back.
func TestZFormFullWidth(t *testing.T) {
	b := isa.NewBuilder("zform")
	src := b.Float64s(1, 2, 3, 4, 5, 6, 7, 8)
	dst := b.Zeros(64)
	b.Movi(isa.R1, int64(src))
	b.Fldvz(isa.X0, isa.R1, 0)
	b.FP2(isa.OpVADDPDZ, isa.X1, isa.X0, isa.X0)
	b.Movi(isa.R2, int64(dst))
	b.Fstvz(isa.R2, 0, isa.X1)
	b.Hlt()
	m := New(b.Build(), 1<<21)
	for i := 0; i < 6; i++ {
		if ev := m.Step(); ev != nil {
			if _, ok := ev.(*HaltEvent); ok {
				break
			}
			t.Fatalf("step %d: event %T", i, ev)
		}
	}
	for l := 0; l < isa.VecWords; l++ {
		want := math.Float64bits(float64(l+1) * 2)
		if got := m.CPU.X[isa.X1][l]; got != want {
			t.Errorf("lane %d = %#x, want %#x", l, got, want)
		}
		gotMem, _ := m.Mem.Load64(dst + uint64(l)*8)
		if gotMem != want {
			t.Errorf("stored lane %d = %#x, want %#x", l, gotMem, want)
		}
	}
}

// fuzzOps is the instruction alphabet of FuzzSuperblockMatchesStep:
// integer ALU ops (divq and remq fault on a zero divisor), every branch,
// scalar, packed and masked FP, moves, loads and stores, MXCSR access,
// and hlt. It holds every opcode of the differential programs, so they
// seed the corpus exactly.
var fuzzOps = []isa.Opcode{
	isa.OpNOP, isa.OpHLT,
	isa.OpMOVI, isa.OpMOV, isa.OpADD, isa.OpADDI, isa.OpSUB, isa.OpMULQ, isa.OpDIVQ, isa.OpREMQ,
	isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpSHLI, isa.OpSHRI,
	isa.OpJMP, isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLE, isa.OpBGT, isa.OpCALL, isa.OpRET,
	isa.OpADDSD, isa.OpSUBSD, isa.OpMULSD, isa.OpDIVSD, isa.OpSQRTSD, isa.OpMINSD, isa.OpMAXSD,
	isa.OpADDSS, isa.OpADDPD, isa.OpMULPS, isa.OpCMPSD, isa.OpUCOMISD, isa.OpCVTSD2SI, isa.OpROUNDSD,
	isa.OpVADDPDZ, isa.OpVSUBPSZ, isa.OpVMULPDKZ, isa.OpVSQRTPDKZ, isa.OpVFMADDPDZ,
	isa.OpMOVSD, isa.OpMOVQX, isa.OpMOVXQ, isa.OpKMOVQ, isa.OpKMOVRQ,
	isa.OpLD, isa.OpST, isa.OpFLD, isa.OpFST, isa.OpFLDVZ, isa.OpFSTVZ, isa.OpLDMXCSR, isa.OpSTMXCSR,
}

// fuzzInstBytes is the size of one encoded fuzz instruction: an
// alphabet index, the four register nibbles, and a little-endian
// immediate. A branch keeps only the low byte of its immediate, as a
// signed target index, so targets land inside the program, before it,
// and past its end.
const fuzzInstBytes = 11

// fuzzProgram decodes a fuzz input into a program of at most 512
// instructions, room for a run of integer ops longer than 255, with data
// as its data segment.
func fuzzProgram(data, code []byte) *isa.Program {
	p := &isa.Program{Name: "fuzz", Base: isa.DefaultCodeBase, Data: data[:min(len(data), 4096)], DataBase: isa.DefaultDataBase}
	for ; len(code) >= fuzzInstBytes && len(p.Insts) < 512; code = code[fuzzInstBytes:] {
		inst := isa.Inst{
			Op: fuzzOps[int(code[0])%len(fuzzOps)],
			Rd: code[1] >> 4, Rs1: code[1] & 15, Rs2: code[2] >> 4, Rs3: code[2] & 15,
			Imm: int64(binary.LittleEndian.Uint64(code[3:fuzzInstBytes])),
		}
		if inst.Op.Info().Class == isa.ClassBranch {
			inst.Imm = int64(int8(inst.Imm))
		}
		p.Insts = append(p.Insts, inst)
	}
	return p
}

// fuzzEncode is fuzzProgram's inverse for programs within the alphabet.
func fuzzEncode(f *testing.F, p *isa.Program) []byte {
	var code []byte
	for _, inst := range p.Insts {
		op := slices.Index(fuzzOps, inst.Op)
		if op < 0 {
			f.Fatalf("%s: %v is outside the fuzz alphabet", p.Name, inst.Op)
		}
		code = append(code, byte(op), inst.Rd<<4|inst.Rs1, inst.Rs2<<4|inst.Rs3)
		code = binary.LittleEndian.AppendUint64(code, uint64(inst.Imm))
	}
	if back := fuzzProgram(p.Data, code); !slices.Equal(back.Insts, p.Insts) {
		f.Fatalf("%s does not survive the fuzz encoding", p.Name)
	}
	return code
}

// FuzzSuperblockMatchesStep feeds fuzzed programs to the engine
// differential: within 2,000 retired instructions, so programs that
// never halt are valid inputs, RunStraight under a fuzzed sequence of
// budgets must leave the same CPU state, Retired, memory and events as
// Step, and neither may panic.
func FuzzSuperblockMatchesStep(f *testing.F) {
	intOps, _ := intOpsProgram()
	seeds := []*isa.Program{wideFPProgram(), eventFPProgram(), branchProgram(true), branchProgram(false),
		intOps, condProgram(), selfLoopProgram(false), selfLoopProgram(true)}
	for _, tc := range shortcutCases() {
		seeds = append(seeds, tc.prog)
	}
	for _, p := range seeds {
		f.Add([]byte{12}, p.Data, fuzzEncode(f, p))
		f.Add([]byte{0, 6, 2, 40}, p.Data, fuzzEncode(f, p))
	}
	f.Fuzz(func(t *testing.T, budgets, data, code []byte) {
		var seq []uint64
		for _, b := range budgets[:min(len(budgets), 16)] {
			seq = append(seq, 1+uint64(b))
		}
		if len(seq) == 0 {
			seq = []uint64{13}
		}
		checkEngines(t, fuzzProgram(data, code), 2000, seq)
	})
}
