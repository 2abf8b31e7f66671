package machine

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/softfloat"
)

// stepClean steps once expecting no event.
func stepClean(t *testing.T, m *Machine) {
	t.Helper()
	if ev := m.Step(); ev != nil {
		t.Fatalf("unexpected event %T at %#x", ev, m.CPU.RIP)
	}
}

// runProgram builds, runs to halt, returns the machine.
func runProgram(t *testing.T, build func(b *isa.Builder)) *Machine {
	t.Helper()
	b := isa.NewBuilder("t")
	build(b)
	b.Hlt()
	m := New(b.Build(), 1<<21)
	for i := 0; i < 100000; i++ {
		switch ev := m.Step().(type) {
		case nil:
		case *HaltEvent:
			return m
		default:
			t.Fatalf("event %T", ev)
		}
	}
	t.Fatal("no halt")
	return nil
}

func TestConvertRoundTripThroughMachine(t *testing.T) {
	m := runProgram(t, func(b *isa.Builder) {
		b.Movi(isa.R1, 7)
		b.Cvt(isa.OpCVTSI2SD, isa.X0, isa.R1)  // 7.0
		b.Cvt(isa.OpCVTSD2SS, isa.X1, isa.X0)  // 7.0f
		b.Cvt(isa.OpCVTSS2SD, isa.X2, isa.X1)  // 7.0
		b.Cvt(isa.OpCVTTSD2SI, isa.R2, isa.X2) // 7
	})
	if m.CPU.X[isa.X0][0] != math.Float64bits(7) {
		t.Errorf("cvtsi2sd = %#x", m.CPU.X[isa.X0][0])
	}
	if uint32(m.CPU.X[isa.X1][0]) != math.Float32bits(7) {
		t.Errorf("cvtsd2ss = %#x", m.CPU.X[isa.X1][0])
	}
	if m.CPU.R[isa.R2] != 7 {
		t.Errorf("cvttsd2si = %d", m.CPU.R[isa.R2])
	}
}

func TestRoundImmediates(t *testing.T) {
	m := runProgram(t, func(b *isa.Builder) {
		b.Movi(isa.R1, int64(math.Float64bits(2.5)))
		b.Movqx(isa.X0, isa.R1)
		b.Round(isa.OpROUNDSD, isa.X1, isa.X0, isa.RoundImmNearest)
		b.Round(isa.OpROUNDSD, isa.X2, isa.X0, isa.RoundImmDown)
		b.Round(isa.OpROUNDSD, isa.X3, isa.X0, isa.RoundImmUp)
		b.Round(isa.OpROUNDSD, isa.X4, isa.X0, isa.RoundImmTrunc)
		// Suppress-inexact variant must not set PE; clear flags first
		// via an exact op... flags are sticky, so check via a fresh run
		// below instead.
	})
	want := []float64{2, 2, 3, 2}
	for i, w := range want {
		if got := math.Float64frombits(m.CPU.X[isa.X1+i][0]); got != w {
			t.Errorf("round[%d] = %v, want %v", i, got, w)
		}
	}
	if m.CPU.MXCSR.Flags()&softfloat.FlagInexact == 0 {
		t.Error("rounding 2.5 did not set PE")
	}
	// Suppressed inexact.
	m2 := runProgram(t, func(b *isa.Builder) {
		b.Movi(isa.R1, int64(math.Float64bits(2.5)))
		b.Movqx(isa.X0, isa.R1)
		b.Round(isa.OpROUNDSD, isa.X1, isa.X0, isa.RoundImmNearest|isa.RoundImmNoInexact)
	})
	if m2.CPU.MXCSR.Flags()&softfloat.FlagInexact != 0 {
		t.Error("suppressed round set PE")
	}
}

func TestRoundUsesMXCSRWhenRequested(t *testing.T) {
	// RC=RU in MXCSR, imm selects the MXCSR mode.
	b := isa.NewBuilder("rc")
	b.Movi(isa.R1, int64(math.Float64bits(2.25)))
	b.Movqx(isa.X0, isa.R1)
	b.Round(isa.OpROUNDSD, isa.X1, isa.X0, isa.RoundImmMXCSR)
	b.Hlt()
	mm := New(b.Build(), 1<<16)
	mm.CPU.MXCSR.SetRC(softfloat.RoundUp)
	for {
		ev := mm.Step()
		if _, ok := ev.(*HaltEvent); ok {
			break
		}
		if ev != nil {
			t.Fatalf("event %T", ev)
		}
	}
	if got := math.Float64frombits(mm.CPU.X[isa.X1][0]); got != 3 {
		t.Errorf("roundsd via MXCSR RU = %v, want 3", got)
	}
}

func TestDotProductBroadcast(t *testing.T) {
	b := isa.NewBuilder("dp")
	va := b.Float32s(1, 2, 3, 4, 5, 6, 7, 8)
	vb := b.Float32s(8, 7, 6, 5, 4, 3, 2, 1)
	b.Movi(isa.R1, int64(va))
	b.Fldv(isa.X0, isa.R1, 0)
	b.Movi(isa.R1, int64(vb))
	b.Fldv(isa.X1, isa.R1, 0)
	b.Dp(isa.OpVDPPS, isa.X2, isa.X0, isa.X1)
	b.Hlt()
	m := New(b.Build(), 1<<21)
	for {
		ev := m.Step()
		if _, ok := ev.(*HaltEvent); ok {
			break
		}
		if ev != nil {
			t.Fatalf("event %T", ev)
		}
	}
	// Group 0: 1*8+2*7+3*6+4*5 = 60, broadcast to lanes 0-3.
	// Group 1: 5*4+6*3+7*2+8*1 = 60, broadcast to lanes 4-7.
	for l := 0; l < 8; l++ {
		lane := uint32(m.CPU.X[isa.X2][l/2] >> (32 * uint(l%2)))
		if math.Float32frombits(lane) != 60 {
			t.Errorf("lane %d = %v, want 60", l, math.Float32frombits(lane))
		}
	}
}

func TestFTZThroughMXCSR(t *testing.T) {
	b := isa.NewBuilder("ftz")
	tiny := b.Float64s(1e-310, 0.1)
	b.Movi(isa.R1, int64(tiny))
	b.Fld(isa.X0, isa.R1, 0)
	b.Fld(isa.X1, isa.R1, 8)
	b.FP2(isa.OpMULSD, isa.X2, isa.X0, isa.X1)
	b.Hlt()
	m := New(b.Build(), 1<<21)
	m.CPU.MXCSR.SetFTZ(true)
	m.CPU.MXCSR.SetDAZ(true) // denormal operand treated as zero
	for {
		ev := m.Step()
		if _, ok := ev.(*HaltEvent); ok {
			break
		}
		if ev != nil {
			t.Fatalf("event %T", ev)
		}
	}
	// DAZ turned 1e-310 into 0, so the product is exactly +0 (no DE).
	if m.CPU.X[isa.X2][0] != 0 {
		t.Errorf("DAZ product = %#x", m.CPU.X[isa.X2][0])
	}
	if m.CPU.MXCSR.Flags()&softfloat.FlagDenormal != 0 {
		t.Error("DAZ did not suppress DE")
	}
}

func TestMachineDeterminism(t *testing.T) {
	// Two runs of the same program end in bit-identical architectural
	// state — the property resume/replay and the study depend on.
	build := func() *Machine {
		b := isa.NewBuilder("det")
		b.Movi(isa.R9, 12345)
		data := b.Zeros(256)
		b.Movi(isa.R10, int64(data))
		for i := 0; i < 30; i++ {
			b.Movi(isa.R6, 6364136223846793005)
			b.Mulq(isa.R9, isa.R9, isa.R6)
			b.Shri(isa.R7, isa.R9, 12)
			b.Cvt(isa.OpCVTSI2SDQ, isa.X0, isa.R7)
			b.FP1(isa.OpSQRTSD, isa.X1, isa.X0)
			b.Fst(isa.R10, int64(i%32)*8, isa.X1)
		}
		b.Hlt()
		m := New(b.Build(), 1<<21)
		for {
			ev := m.Step()
			if _, ok := ev.(*HaltEvent); ok {
				return m
			}
			if ev != nil {
				t.Fatalf("event %T", ev)
			}
		}
	}
	m1 := build()
	m2 := build()
	if m1.CPU != m2.CPU {
		t.Error("CPU state diverged between identical runs")
	}
	for i := uint64(0); i < m1.Mem.Size(); i++ {
		if m1.Mem.byteAt(i) != m2.Mem.byteAt(i) {
			t.Fatalf("memory diverged at %#x", i)
		}
	}
	if m1.Retired != m2.Retired {
		t.Error("retirement counts diverged")
	}
}

func TestScalarOpsPreserveUpperLanes(t *testing.T) {
	// SSE scalar semantics: lanes 1-3 of the destination are preserved.
	b := isa.NewBuilder("upper")
	b.Hlt()
	m := New(b.Build(), 1<<16)
	m.CPU.X[isa.X0] = [isa.VecWords]uint64{math.Float64bits(1), 111, 222, 333}
	m.CPU.X[isa.X1] = [isa.VecWords]uint64{math.Float64bits(2), 444, 555, 666}
	m.Prog.Insts = append([]isa.Inst{{Op: isa.OpADDSD, Rd: isa.X0, Rs1: isa.X0, Rs2: isa.X1}}, m.Prog.Insts...)
	m.CPU.RIP = m.Prog.Base
	if ev := m.Step(); ev != nil {
		t.Fatalf("event %T", ev)
	}
	if m.CPU.X[isa.X0][0] != math.Float64bits(3) {
		t.Errorf("lane0 = %#x", m.CPU.X[isa.X0][0])
	}
	if m.CPU.X[isa.X0][1] != 111 || m.CPU.X[isa.X0][3] != 333 {
		t.Error("upper lanes clobbered by scalar op")
	}
}

func TestCmpPredicateThroughMachine(t *testing.T) {
	m := runProgram(t, func(b *isa.Builder) {
		b.Movi(isa.R1, int64(math.Float64bits(1)))
		b.Movqx(isa.X0, isa.R1)
		b.Movi(isa.R1, int64(math.Float64bits(2)))
		b.Movqx(isa.X1, isa.R1)
		b.CmpPred(isa.OpCMPSD, isa.X2, isa.X0, isa.X1, isa.CmpImm(softfloat.CmpLT))
		b.CmpPred(isa.OpCMPSD, isa.X3, isa.X1, isa.X0, isa.CmpImm(softfloat.CmpLT))
	})
	if m.CPU.X[isa.X2][0] != ^uint64(0) {
		t.Errorf("1<2 mask = %#x", m.CPU.X[isa.X2][0])
	}
	if m.CPU.X[isa.X3][0] != 0 {
		t.Errorf("2<1 mask = %#x", m.CPU.X[isa.X3][0])
	}
}

func TestMovssSemantics(t *testing.T) {
	b := isa.NewBuilder("movss")
	b.Hlt()
	m := New(b.Build(), 1<<16)
	m.CPU.X[isa.X0] = [isa.VecWords]uint64{0xAAAA_BBBB_CCCC_DDDD, 7, 8, 9}
	m.CPU.X[isa.X1] = [isa.VecWords]uint64{0x1111_2222_3333_4444, 1, 2, 3}
	m.Prog.Insts = append([]isa.Inst{{Op: isa.OpMOVSS, Rd: isa.X0, Rs1: isa.X1}}, m.Prog.Insts...)
	m.CPU.RIP = m.Prog.Base
	if ev := m.Step(); ev != nil {
		t.Fatalf("event %T", ev)
	}
	// Only the low 32 bits of lane 0 move; everything else is preserved.
	if m.CPU.X[isa.X0][0] != 0xAAAA_BBBB_3333_4444 {
		t.Errorf("movss lane0 = %#x", m.CPU.X[isa.X0][0])
	}
	if m.CPU.X[isa.X0][1] != 7 {
		t.Error("movss clobbered upper lanes")
	}
}

func TestCloneMemoryIsDeep(t *testing.T) {
	b := isa.NewBuilder("clone")
	b.Hlt()
	m := New(b.Build(), 256)
	m.Mem.Store32(10, 42)
	dup := m.Mem.Clone()
	dup.Store32(10, 7)
	if v, _ := m.Mem.Load32(10); v != 42 {
		t.Error("Clone aliases the original")
	}
}

func TestBadRIPFaults(t *testing.T) {
	b := isa.NewBuilder("bad")
	b.Hlt()
	m := New(b.Build(), 256)
	m.CPU.RIP = 0x12345
	ev := m.Step()
	if _, ok := ev.(*FaultEvent); !ok {
		t.Fatalf("got %T", ev)
	}
}

func TestMemoryFaults(t *testing.T) {
	b := isa.NewBuilder("oob")
	b.Movi(isa.R1, 1<<40)
	b.Ld(isa.R2, isa.R1, 0)
	b.Hlt()
	m := New(b.Build(), 256)
	var fault *FaultEvent
	for i := 0; i < 10; i++ {
		if fe, ok := m.Step().(*FaultEvent); ok {
			fault = fe
			break
		}
	}
	if fault == nil {
		t.Fatal("no fault for out-of-bounds load")
	}
}

func TestIntegerDivideByZeroFaults(t *testing.T) {
	b := isa.NewBuilder("idiv0")
	b.Movi(isa.R1, 5)
	b.Divq(isa.R2, isa.R1, isa.R0)
	b.Hlt()
	m := New(b.Build(), 256)
	var fault *FaultEvent
	for i := 0; i < 10; i++ {
		if fe, ok := m.Step().(*FaultEvent); ok {
			fault = fe
			break
		}
	}
	if fault == nil {
		t.Fatal("no fault for integer divide by zero")
	}
}
