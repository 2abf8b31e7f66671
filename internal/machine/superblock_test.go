package machine

import (
	"math"
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

// drive runs m with the FPSpy-style mask-then-single-step handler,
// returning the observed event sequence. batched retires through
// RunStraight's superblocks; otherwise every instruction is a Step.
func drive(t *testing.T, m *Machine, batched bool) []string {
	t.Helper()
	m.CPU.R[isa.SP] = m.Mem.Size()
	m.CPU.MXCSR.Unmask(softfloat.FlagInexact)
	var events []string
	for i := 0; i < 100000; i++ {
		var ev Event
		if m.CPU.TF || !batched {
			ev = m.Step()
		} else {
			_, ev = m.RunStraight(13)
		}
		if ev == nil {
			continue
		}
		switch e := ev.(type) {
		case *FPEvent:
			events = append(events, "fp")
			_ = e
			m.CPU.MXCSR.Mask(softfloat.FlagInexact)
			m.CPU.TF = true
		case *TrapEvent:
			events = append(events, "trap")
			m.CPU.MXCSR.ClearFlags()
			m.CPU.MXCSR.Unmask(softfloat.FlagInexact)
			m.CPU.TF = false
		case *HaltEvent:
			return append(events, "halt")
		default:
			t.Fatalf("unexpected event %T", ev)
		}
	}
	t.Fatal("program did not halt")
	return nil
}

// TestSuperblockMatchesStep is the engine differential: the cached
// superblock dispatch and the precise per-instruction Step reference
// must produce bit-identical architectural outcomes — registers, mask
// registers, memory, retirement counts, and the event sequence — on a
// program covering every SBKind.
func TestSuperblockMatchesStep(t *testing.T) {
	for _, prog := range []func() *isa.Program{wideFPProgram, eventFPProgram} {
		cached := New(prog(), 1<<21)
		evA := drive(t, cached, true)
		plain := New(prog(), 1<<21)
		evB := drive(t, plain, false)

		if cached.CPU != plain.CPU {
			t.Errorf("CPU state diverged:\n cached %+v\n plain  %+v", cached.CPU, plain.CPU)
		}
		if cached.Retired != plain.Retired {
			t.Errorf("retired: cached %d, plain %d", cached.Retired, plain.Retired)
		}
		for i := uint64(0); i < cached.Mem.Size(); i++ {
			if cached.Mem.byteAt(i) != plain.Mem.byteAt(i) {
				t.Fatalf("memory diverged at %#x", i)
			}
		}
		if len(evA) != len(evB) {
			t.Fatalf("event counts: cached %d, plain %d", len(evA), len(evB))
		}
		for i := range evA {
			if evA[i] != evB[i] {
				t.Errorf("event %d: cached %s, plain %s", i, evA[i], evB[i])
			}
		}
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
