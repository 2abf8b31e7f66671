package machine

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mxcsr"
	"repro/internal/softfloat"
)

// run executes prog to the first non-nil event and returns it.
func runToEvent(t *testing.T, prog *isa.Program) (*Machine, Event) {
	t.Helper()
	m := New(prog, 1<<21)
	for i := 0; i < 10000; i++ {
		if ev := m.Step(); ev != nil {
			return m, ev
		}
	}
	t.Fatal("no event within 10000 steps")
	return nil, nil
}

func TestStmxcsrLdmxcsrRoundTrip(t *testing.T) {
	b := isa.NewBuilder("mxcsr-roundtrip")
	b.Movi(isa.R1, 0x8000)
	b.Stmxcsr(isa.R1, 0) // save power-on value
	b.Movi(isa.R2, 0x9000)
	b.Movi(isa.R3, int64(0x1F80&^(uint32(softfloat.FlagDivideByZero)<<7))) // unmask ZE
	b.St(isa.R2, 0, isa.R3)
	b.Ldmxcsr(isa.R2, 0)
	b.Stmxcsr(isa.R1, 8) // save stomped value
	b.Hlt()
	m, ev := runToEvent(t, b.Build())
	if _, ok := ev.(*HaltEvent); !ok {
		t.Fatalf("event = %T (%v)", ev, ev)
	}
	saved, _ := m.Mem.Load32(0x8000)
	if mxcsr.Reg(saved) != mxcsr.Default {
		t.Errorf("stmxcsr saved %#x, want power-on %#x", saved, uint32(mxcsr.Default))
	}
	stomped, _ := m.Mem.Load32(0x8008)
	if got := mxcsr.Reg(stomped).Masks(); got&softfloat.FlagDivideByZero != 0 {
		t.Errorf("ldmxcsr did not unmask ZE: masks=%v", got)
	}
	if m.CPU.MXCSR != mxcsr.Reg(stomped) {
		t.Errorf("live MXCSR %#x != stored %#x", uint32(m.CPU.MXCSR), stomped)
	}
}

func TestLdmxcsrUnmaskCausesFault(t *testing.T) {
	// The guest unmasks ZE via ldmxcsr, then divides by zero: the machine
	// must deliver a precise FP fault exactly as if libc feenableexcept
	// had been used.
	b := isa.NewBuilder("mxcsr-unmask-fault")
	val := b.Words(uint64(0x1F80 &^ (uint32(softfloat.FlagDivideByZero) << 7)))
	b.Movi(isa.R1, int64(val))
	b.Ldmxcsr(isa.R1, 0)
	one := b.Float64s(1)
	b.Movi(isa.R2, int64(one))
	b.Fld(isa.X0, isa.R2, 0)
	b.Movqx(isa.X1, isa.R0) // +0.0
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1)
	b.Hlt()
	m, ev := runToEvent(t, b.Build())
	fp, ok := ev.(*FPEvent)
	if !ok {
		t.Fatalf("event = %T (%v), want FPEvent", ev, ev)
	}
	if fp.Unmasked&softfloat.FlagDivideByZero == 0 {
		t.Errorf("unmasked = %v, want ZE", fp.Unmasked)
	}
	// Precise fault: RIP still addresses the divsd.
	if m.CPU.RIP != fp.Addr {
		t.Errorf("rip advanced past faulting instruction")
	}
}

func TestMxcsrInstBadAddressFaults(t *testing.T) {
	for name, emit := range map[string]func(b *isa.Builder){
		"ldmxcsr": func(b *isa.Builder) { b.Ldmxcsr(isa.R1, 0) },
		"stmxcsr": func(b *isa.Builder) { b.Stmxcsr(isa.R1, 0) },
	} {
		b := isa.NewBuilder(name + "-oob")
		b.Movi(isa.R1, 1<<40)
		emit(b)
		b.Hlt()
		_, ev := runToEvent(t, b.Build())
		if _, ok := ev.(*FaultEvent); !ok {
			t.Errorf("%s: event = %T, want FaultEvent", name, ev)
		}
	}
}

func TestMxcsrInstDisassembly(t *testing.T) {
	ld := isa.Inst{Op: isa.OpLDMXCSR, Rs1: 2, Imm: 16}
	if got := ld.String(); got != "ldmxcsr [r2+16]" {
		t.Errorf("ldmxcsr disasm = %q", got)
	}
	st := isa.Inst{Op: isa.OpSTMXCSR, Rs1: 3, Imm: -8}
	if got := st.String(); got != "stmxcsr [r3-8]" {
		t.Errorf("stmxcsr disasm = %q", got)
	}
}
