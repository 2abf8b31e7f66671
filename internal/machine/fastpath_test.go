package machine

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/softfloat"
)

// TestBoundsCheckOverflow is the regression test for the wrapped bounds
// comparison: a guest access near 2^64 made addr+8 overflow, pass the
// check, and panic the host on the slice expression. It must instead
// surface as a clean FaultEvent.
func TestBoundsCheckOverflow(t *testing.T) {
	for _, addr := range []uint64{
		0xFFFFFFFFFFFFFFFC, // addr+8 and addr+4 both wrap
		0xFFFFFFFFFFFFFFFF, // maximal address
		^uint64(0) - 6,     // addr+8 wraps, addr+4 does not
	} {
		b := isa.NewBuilder("wrap")
		b.Movi(isa.R1, int64(addr))
		b.Ld(isa.R2, isa.R1, 0)
		b.Hlt()
		m := New(b.Build(), 4096)
		var fault *FaultEvent
		for i := 0; i < 10 && fault == nil; i++ {
			if fe, ok := m.Step().(*FaultEvent); ok {
				fault = fe
			}
		}
		if fault == nil {
			t.Fatalf("load at %#x did not fault", addr)
		}
	}
	// The primitive accessors themselves must reject wrapping addresses.
	m := New(isa.NewBuilder("prim").Build(), 64)
	for _, addr := range []uint64{^uint64(0), ^uint64(0) - 3, ^uint64(0) - 7} {
		if _, ok := m.Mem.Load64(addr); ok {
			t.Errorf("load64(%#x) passed bounds check", addr)
		}
		if m.Mem.Store64(addr, 1) {
			t.Errorf("store64(%#x) passed bounds check", addr)
		}
		if _, ok := m.Mem.Load32(addr); ok {
			t.Errorf("load32(%#x) passed bounds check", addr)
		}
		if m.Mem.Store32(addr, 1) {
			t.Errorf("store32(%#x) passed bounds check", addr)
		}
	}
}

// eventFPProgram emits a program mixing straight-line arithmetic, loops,
// calls, and FP operations that raise (maskable) exceptions.
func eventFPProgram() *isa.Program {
	b := isa.NewBuilder("equiv")
	fn := b.Label("fn")
	b.Movi(isa.R1, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R1)
	b.Movi(isa.R1, int64(math.Float64bits(3)))
	b.Movqx(isa.X1, isa.R1)
	b.Movi(isa.R2, 0)
	b.Movi(isa.R3, 40)
	top := b.Label("top")
	b.Bind(top)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1) // inexact every iteration
	b.Call(fn)
	b.Addi(isa.R2, isa.R2, 1)
	b.Blt(isa.R2, isa.R3, top)
	b.Hlt()
	b.Bind(fn)
	b.FP2(isa.OpADDSD, isa.X3, isa.X2, isa.X0)
	b.Ret()
	return b.Build()
}

// TestRunStraightMatchesStep drives the same program through the precise
// per-instruction path and the batched fast path (with the FPSpy-style
// mask-then-single-step handler applied to both) and requires identical
// architectural outcomes: registers, RIP, retirement count, sticky
// flags, and the event sequence.
func TestRunStraightMatchesStep(t *testing.T) {
	type obs struct {
		kind string
		addr uint64
	}
	observe := func(ev Event) obs {
		switch e := ev.(type) {
		case *FPEvent:
			return obs{"fp", e.Addr}
		case *TrapEvent:
			return obs{"trap", e.Addr}
		case *HaltEvent:
			return obs{"halt", 0}
		case *FaultEvent:
			return obs{"fault", e.Addr}
		default:
			return obs{"?", 0}
		}
	}
	// handler reacts like FPSpy: on FP fault, mask + TF; on trap, unmask
	// + clear TF. Returns true on halt.
	handler := func(m *Machine, ev Event) bool {
		switch ev.(type) {
		case *FPEvent:
			m.CPU.MXCSR.Mask(softfloat.FlagInexact)
			m.CPU.TF = true
		case *TrapEvent:
			m.CPU.MXCSR.ClearFlags()
			m.CPU.MXCSR.Unmask(softfloat.FlagInexact)
			m.CPU.TF = false
		case *HaltEvent:
			return true
		}
		return false
	}

	precise := New(eventFPProgram(), 4096)
	precise.CPU.R[isa.SP] = 4096
	precise.CPU.MXCSR.Unmask(softfloat.FlagInexact)
	var preciseEvents []obs
	for i := 0; i < 100000; i++ {
		ev := precise.Step()
		if ev == nil {
			continue
		}
		preciseEvents = append(preciseEvents, observe(ev))
		if handler(precise, ev) {
			break
		}
	}

	fast := New(eventFPProgram(), 4096)
	fast.CPU.R[isa.SP] = 4096
	fast.CPU.MXCSR.Unmask(softfloat.FlagInexact)
	var fastEvents []obs
	for i := 0; i < 100000; i++ {
		var ev Event
		if fast.CPU.TF {
			ev = fast.Step()
		} else if _, ev = fast.RunStraight(7); ev == nil {
			continue
		}
		fastEvents = append(fastEvents, observe(ev))
		if handler(fast, ev) {
			break
		}
	}

	if precise.Retired != fast.Retired {
		t.Errorf("retired: precise %d, fast %d", precise.Retired, fast.Retired)
	}
	if precise.CPU != fast.CPU {
		t.Errorf("CPU state diverged:\n precise %+v\n fast    %+v", precise.CPU, fast.CPU)
	}
	if len(preciseEvents) != len(fastEvents) {
		t.Fatalf("event counts: precise %d, fast %d", len(preciseEvents), len(fastEvents))
	}
	for i := range preciseEvents {
		if preciseEvents[i] != fastEvents[i] {
			t.Errorf("event %d: precise %+v, fast %+v", i, preciseEvents[i], fastEvents[i])
		}
	}
}

// TestRunStraightTFStepsOnce pins the TF-mode bailout: with TF set the
// fast path must execute exactly one stepped instruction and return its
// trap event, crediting the same retirement (and thus the same
// virtual-timer progress) the precise path would — not silently return
// (0, nil) and leave the caller to re-drive the instruction.
func TestRunStraightTFStepsOnce(t *testing.T) {
	b := isa.NewBuilder("tf")
	b.Movi(isa.R1, 1)
	b.Hlt()
	m := New(b.Build(), 64)
	m.CPU.TF = true
	n, ev := m.RunStraight(10)
	if n != 0 {
		t.Fatalf("RunStraight under TF credited %d clean retires, want 0", n)
	}
	tr, ok := ev.(*TrapEvent)
	if !ok {
		t.Fatalf("RunStraight under TF returned %T, want *TrapEvent", ev)
	}
	if tr.Addr != m.Prog.AddrOf(0) || tr.Next != m.Prog.AddrOf(1) {
		t.Errorf("trap addr=%#x next=%#x, want %#x/%#x",
			tr.Addr, tr.Next, m.Prog.AddrOf(0), m.Prog.AddrOf(1))
	}
	if m.Retired != 1 {
		t.Fatalf("Retired = %d after TF fast path, want 1 (timer parity with Step)", m.Retired)
	}
	if m.CPU.R[isa.R1] != 1 {
		t.Error("the TF-stepped instruction did not execute")
	}

	// The stepped path on an identical machine must land in the same state.
	ref := New(b.Build(), 64)
	ref.CPU.TF = true
	rev := ref.Step()
	if rev == nil {
		t.Fatal("reference Step under TF produced no event")
	}
	if ref.Retired != m.Retired || ref.CPU.RIP != m.CPU.RIP {
		t.Errorf("TF fast path diverged from stepping: retired %d/%d rip %#x/%#x",
			m.Retired, ref.Retired, m.CPU.RIP, ref.CPU.RIP)
	}
}

// TestCachedIndexSurvivesExternalRIPWrite exercises the index cache's
// validation: a handler-style rewrite of RIP (as signal delivery and
// sigreturn do) must not make Step execute the wrong instruction.
func TestCachedIndexSurvivesExternalRIPWrite(t *testing.T) {
	b := isa.NewBuilder("riprewrite")
	b.Movi(isa.R1, 10) // index 0
	b.Movi(isa.R2, 20) // index 1
	b.Movi(isa.R3, 30) // index 2
	b.Movi(isa.R4, 40) // index 3
	b.Hlt()
	m := New(b.Build(), 64)
	stepClean(t, m) // cache now expects index 1
	m.CPU.RIP = m.Prog.AddrOf(3)
	stepClean(t, m)
	if m.CPU.R[isa.R4] != 40 {
		t.Errorf("R4 = %d: cached index executed the wrong instruction", m.CPU.R[isa.R4])
	}
	if m.CPU.R[isa.R2] != 0 || m.CPU.R[isa.R3] != 0 {
		t.Error("skipped instructions executed")
	}
	// A rewrite to a bogus address must fault, not execute the cached slot.
	m2 := New(b.Build(), 64)
	stepClean(t, m2)
	m2.CPU.RIP = 0xDEAD
	if _, ok := m2.Step().(*FaultEvent); !ok {
		t.Error("bad RIP after external write did not fault")
	}
}
