package machine

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/mxcsr"
	"repro/internal/softfloat"
)

// run steps the machine until a halt, fault, or step limit, returning
// all FP events observed.
func run(t *testing.T, m *Machine, limit int) []*FPEvent {
	t.Helper()
	var evs []*FPEvent
	for i := 0; i < limit; i++ {
		switch ev := m.Step().(type) {
		case nil:
		case *HaltEvent:
			return evs
		case *FPEvent:
			// Events alias per-machine scratch storage; copy to retain.
			dup := *ev
			evs = append(evs, &dup)
			// Mask everything to make forward progress, like a handler
			// would.
			m.CPU.MXCSR.Mask(ev.Raised)
		case *FaultEvent:
			t.Fatalf("machine fault: %s at %#x", ev.Reason, ev.Addr)
		default:
			t.Fatalf("unexpected event %T", ev)
		}
	}
	t.Fatalf("step limit exceeded")
	return nil
}

func TestBasicLoopAndArith(t *testing.T) {
	// Sum 1..10 in integer regs; compute float 1/3 and store it.
	b := isa.NewBuilder("basic")
	b.Movi(isa.R1, 0)  // sum
	b.Movi(isa.R2, 1)  // i
	b.Movi(isa.R3, 11) // bound
	loop := b.Label("loop")
	b.Bind(loop)
	b.Add(isa.R1, isa.R1, isa.R2)
	b.Addi(isa.R2, isa.R2, 1)
	b.Blt(isa.R2, isa.R3, loop)
	// Float: x0 = 1.0, x1 = 3.0, x0 /= x1, store at 0.
	b.Movi(isa.R4, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R4)
	b.Movi(isa.R4, int64(math.Float64bits(3)))
	b.Movqx(isa.X1, isa.R4)
	b.FP2(isa.OpDIVSD, isa.X0, isa.X0, isa.X1)
	b.Movi(isa.R5, 0)
	b.Fst(isa.R5, 0, isa.X0)
	b.Hlt()
	m := New(b.Build(), 4096)
	m.CPU.R[isa.SP] = 4096
	run(t, m, 1000)
	if got := m.CPU.R[isa.R1]; got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
	v, _ := m.Mem.Load64(0)
	if f := math.Float64frombits(v); f != 1.0/3.0 {
		t.Errorf("stored %v, want 1/3", f)
	}
	// Inexact must be sticky in MXCSR.
	if m.CPU.MXCSR.Flags()&softfloat.FlagInexact == 0 {
		t.Error("PE flag not sticky after 1/3")
	}
}

func TestUnmaskedExceptionFaultsBeforeWriteback(t *testing.T) {
	b := isa.NewBuilder("fault")
	b.Movi(isa.R1, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R1)
	b.Movqx(isa.X1, isa.R0) // +0
	b.FP2(isa.OpDIVSD, isa.X0, isa.X0, isa.X1)
	b.Hlt()
	m := New(b.Build(), 256)
	m.CPU.MXCSR.Unmask(softfloat.FlagDivideByZero)
	var fault *FPEvent
	for i := 0; i < 10; i++ {
		ev := m.Step()
		if fe, ok := ev.(*FPEvent); ok {
			fault = fe
			break
		}
	}
	if fault == nil {
		t.Fatal("no FP fault delivered")
	}
	if fault.Unmasked != softfloat.FlagDivideByZero {
		t.Errorf("unmasked = %v, want ZE", fault.Unmasked)
	}
	// No writeback: X0 still holds 1.0, and RIP still points at divsd.
	if m.CPU.X[isa.X0][0] != math.Float64bits(1) {
		t.Errorf("X0 = %#x, writeback happened before fault", m.CPU.X[isa.X0][0])
	}
	if m.CPU.RIP != fault.Addr {
		t.Errorf("RIP advanced past the faulting instruction")
	}
	// Sticky flag set even though unmasked.
	if m.CPU.MXCSR.Flags()&softfloat.FlagDivideByZero == 0 {
		t.Error("ZE flag not set on unmasked fault")
	}
	// Mask it and restart: instruction completes with inf.
	m.CPU.MXCSR = mxcsr.Default
	if ev := m.Step(); ev != nil {
		t.Fatalf("restart produced %T", ev)
	}
	if !softfloat.IsInf64(m.CPU.X[isa.X0][0]) {
		t.Errorf("X0 = %#x after restart, want inf", m.CPU.X[isa.X0][0])
	}
}

func TestSingleStepTrap(t *testing.T) {
	b := isa.NewBuilder("step")
	b.Movi(isa.R1, 7)
	b.Movi(isa.R2, 8)
	b.Hlt()
	m := New(b.Build(), 64)
	m.CPU.TF = true
	ev := m.Step()
	tr, ok := ev.(*TrapEvent)
	if !ok {
		t.Fatalf("got %T, want TrapEvent", ev)
	}
	if tr.Addr != m.Prog.AddrOf(0) || tr.Next != m.Prog.AddrOf(1) {
		t.Errorf("trap addr=%#x next=%#x", tr.Addr, tr.Next)
	}
	if m.CPU.R[isa.R1] != 7 {
		t.Error("trapped instruction did not retire")
	}
	// Clear TF: no more traps.
	m.CPU.TF = false
	if ev := m.Step(); ev != nil {
		t.Fatalf("got %T after clearing TF", ev)
	}
}

func TestFPExceptionThenSingleStepProtocol(t *testing.T) {
	// The FPSpy individual-mode protocol: unmask, run to fault, mask +
	// set TF, restart, take the trap, unmask again.
	b := isa.NewBuilder("protocol")
	b.Movi(isa.R1, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R1)
	b.Movi(isa.R2, int64(math.Float64bits(3)))
	b.Movqx(isa.X1, isa.R2)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1) // inexact
	b.FP2(isa.OpADDSD, isa.X3, isa.X2, isa.X0) // inexact
	b.Hlt()
	m := New(b.Build(), 64)
	m.CPU.MXCSR.Unmask(softfloat.FlagInexact)

	faults, traps := 0, 0
	for i := 0; i < 50; i++ {
		switch ev := m.Step().(type) {
		case nil:
		case *HaltEvent:
			if faults != 2 || traps != 2 {
				t.Fatalf("faults=%d traps=%d, want 2 and 2", faults, traps)
			}
			return
		case *FPEvent:
			faults++
			// Handler: clear flags, mask exceptions, set TF.
			m.CPU.MXCSR.ClearFlags()
			m.CPU.MXCSR.Mask(softfloat.FlagInexact)
			m.CPU.TF = true
		case *TrapEvent:
			traps++
			// Handler: clear flags, unmask, clear TF.
			m.CPU.MXCSR.ClearFlags()
			m.CPU.MXCSR.Unmask(softfloat.FlagInexact)
			m.CPU.TF = false
		default:
			t.Fatalf("unexpected event %T", ev)
		}
	}
	t.Fatal("did not reach halt")
}

func TestPackedLanesORFlags(t *testing.T) {
	// addpd with one lane inexact and one exact: flags are the OR.
	b := isa.NewBuilder("packed")
	b.Hlt()
	m := New(b.Build(), 64)
	m.CPU.X[isa.X0] = [isa.VecWords]uint64{math.Float64bits(1), math.Float64bits(0.1), 0, 0}
	m.CPU.X[isa.X1] = [isa.VecWords]uint64{math.Float64bits(2), math.Float64bits(0.2), 0, 0}
	inst := &isa.Inst{Op: isa.OpADDPD, Rd: isa.X2, Rs1: isa.X0, Rs2: isa.X1}
	m.Prog.Insts = append([]isa.Inst{*inst}, m.Prog.Insts...)
	m.CPU.RIP = m.Prog.Base
	if ev := m.Step(); ev != nil {
		t.Fatalf("event %T", ev)
	}
	if m.CPU.X[isa.X2][0] != math.Float64bits(3) {
		t.Errorf("lane0 = %v", math.Float64frombits(m.CPU.X[isa.X2][0]))
	}
	pointOne, pointTwo := 0.1, 0.2
	if m.CPU.X[isa.X2][1] != math.Float64bits(pointOne+pointTwo) {
		t.Errorf("lane1 = %v", math.Float64frombits(m.CPU.X[isa.X2][1]))
	}
	if m.CPU.MXCSR.Flags()&softfloat.FlagInexact == 0 {
		t.Error("packed op did not OR lane flags")
	}
}

func TestCallAndRet(t *testing.T) {
	b := isa.NewBuilder("callret")
	fn := b.Label("fn")
	b.Movi(isa.R1, 1)
	b.Call(fn)
	b.Movi(isa.R3, 3)
	b.Hlt()
	b.Bind(fn)
	b.Movi(isa.R2, 2)
	b.Ret()
	m := New(b.Build(), 1024)
	m.CPU.R[isa.SP] = 1024
	run(t, m, 100)
	if m.CPU.R[isa.R1] != 1 || m.CPU.R[isa.R2] != 2 || m.CPU.R[isa.R3] != 3 {
		t.Errorf("regs = %d %d %d", m.CPU.R[isa.R1], m.CPU.R[isa.R2], m.CPU.R[isa.R3])
	}
}

func TestCallCEvent(t *testing.T) {
	b := isa.NewBuilder("callc")
	b.CallC("getpid")
	b.Hlt()
	m := New(b.Build(), 64)
	ev := m.Step()
	cc, ok := ev.(*CallCEvent)
	if !ok {
		t.Fatalf("got %T", ev)
	}
	if cc.Sym != "getpid" {
		t.Errorf("sym = %q", cc.Sym)
	}
	// The call instruction retired; next step halts.
	if _, ok := m.Step().(*HaltEvent); !ok {
		t.Error("halt not reached after callc")
	}
}

func TestUcomiWritesResult(t *testing.T) {
	b := isa.NewBuilder("ucomi")
	b.Movi(isa.R1, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R1)
	b.Movi(isa.R2, int64(math.Float64bits(2)))
	b.Movqx(isa.X1, isa.R2)
	b.Ucomi(isa.OpUCOMISD, isa.R3, isa.X0, isa.X1)
	b.Hlt()
	m := New(b.Build(), 64)
	run(t, m, 100)
	if int64(m.CPU.R[isa.R3]) != int64(softfloat.CmpLess) {
		t.Errorf("ucomi result = %d, want less", int64(m.CPU.R[isa.R3]))
	}
}

func TestR0Hardwired(t *testing.T) {
	b := isa.NewBuilder("r0")
	b.Movi(isa.R0, 42)
	b.Add(isa.R1, isa.R0, isa.R0)
	b.Hlt()
	m := New(b.Build(), 64)
	run(t, m, 10)
	if m.CPU.R[isa.R1] != 0 {
		t.Errorf("R0 writable: R1 = %d", m.CPU.R[isa.R1])
	}
}
