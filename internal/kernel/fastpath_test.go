package kernel

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/softfloat"
)

// fastpathWorkload builds a program exercising everything the batched
// runTask path interacts with: straight-line FP arithmetic raising
// unmasked exceptions (host handler runs the FPSpy mask/TF/unmask
// protocol), an interval timer with a guest handler, and libc calls.
func fastpathWorkload(timerKind TimerKind, interval int64) *isa.Program {
	b := isa.NewBuilder("fastpath")
	handler := b.Label("handler")
	b.Movi(isa.R1, int64(SIGVTALRM))
	if timerKind == TimerReal {
		b.Movi(isa.R1, int64(SIGALRM))
	}
	b.Lea(isa.R2, handler)
	b.CallC("signal")
	b.Movi(isa.R1, int64(timerKind))
	b.Movi(isa.R2, interval) // awkward interval, lands mid-batch
	b.CallC("setitimer")
	b.Movi(isa.R1, int64(softfloat.FlagInexact))
	b.CallC("feenableexcept")
	b.Movi(isa.R4, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R4)
	b.Movi(isa.R4, int64(math.Float64bits(3)))
	b.Movqx(isa.X1, isa.R4)
	b.Movi(isa.R5, 0)
	b.Movi(isa.R6, 60)
	loop := b.Label("loop")
	b.Bind(loop)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1) // inexact
	b.Addi(isa.R5, isa.R5, 1)
	b.Blt(isa.R5, isa.R6, loop)
	b.Hlt()
	b.Bind(handler)
	b.Movi(isa.R3, 512)
	b.Ld(isa.R4, isa.R3, 0)
	b.Addi(isa.R4, isa.R4, 1)
	b.St(isa.R3, 0, isa.R4) // count timer firings
	b.Movi(isa.R1, int64(timerKind))
	b.Movi(isa.R2, interval) // re-arm
	b.CallC("setitimer")
	b.CallC("rt_sigreturn")
	return b.Build()
}

// runFastpathWorkload spawns the workload with the FPSpy-style host
// SIGFPE/SIGTRAP handlers installed and runs it to completion. om may be
// nil (observability off) or a registry to instrument the kernel with;
// either way the simulation must behave identically.
func runFastpathWorkload(t *testing.T, timerKind TimerKind, interval int64, noFast bool, om *obs.Metrics) (*Kernel, *Process, int) {
	t.Helper()
	k := New()
	k.Obs = om
	k.NoFastPath = noFast
	p, err := k.Spawn(fastpathWorkload(timerKind, interval), 1<<16, nil)
	if err != nil {
		t.Fatal(err)
	}
	fpEvents := 0
	k.SetSigAction(p, SIGFPE, &SigAction{Host: func(k *Kernel, task *Task, info *SigInfo, mc *MContext) {
		fpEvents++
		mc.CPU.MXCSR.Mask(info.Raised)
		mc.CPU.TF = true
	}})
	k.SetSigAction(p, SIGTRAP, &SigAction{Host: func(k *Kernel, task *Task, info *SigInfo, mc *MContext) {
		mc.CPU.MXCSR.ClearFlags()
		mc.CPU.MXCSR.Unmask(softfloat.FlagInexact)
		mc.CPU.TF = false
	}})
	k.Run(1 << 20)
	if !p.Exited {
		t.Fatal("process did not exit")
	}
	return k, p, fpEvents
}

// TestFastPathMatchesPrecise requires the batched fast path and the
// precise per-instruction path to be bit-identical on a workload mixing
// FP trap-and-emulate cycles, interval timers, and libc calls: same
// retirement count, same user/system/wall cycles, same timer firings,
// same FP event count.
func TestFastPathMatchesPrecise(t *testing.T) {
	for _, tc := range []struct {
		kind TimerKind
		// The virtual timer counts retired instructions; the real timer
		// counts cycles, so its interval must exceed the handler's own
		// cycle cost (two syscalls + handler entry) or re-arming livelocks.
		interval int64
	}{
		{TimerVirtual, 53},
		{TimerReal, 7919},
	} {
		kind := tc.kind
		fk, fp, fev := runFastpathWorkload(t, kind, tc.interval, false, nil)
		pk, pp, pev := runFastpathWorkload(t, kind, tc.interval, true, nil)

		if fev != pev {
			t.Errorf("timer %d: FP events fast=%d precise=%d", kind, fev, pev)
		}
		if fev == 0 {
			t.Errorf("timer %d: workload raised no FP events", kind)
		}
		if got, want := fp.Tasks[0].M.Retired, pp.Tasks[0].M.Retired; got != want {
			t.Errorf("timer %d: retired fast=%d precise=%d", kind, got, want)
		}
		fu, fs := fp.ProcessTimes()
		pu, ps := pp.ProcessTimes()
		if fu != pu || fs != ps {
			t.Errorf("timer %d: cycles fast=(%d,%d) precise=(%d,%d)", kind, fu, fs, pu, ps)
		}
		if fk.Cycles != pk.Cycles {
			t.Errorf("timer %d: wall cycles fast=%d precise=%d", kind, fk.Cycles, pk.Cycles)
		}
		if memByte(fp, 512) != memByte(pp, 512) {
			t.Errorf("timer %d: timer firings fast=%d precise=%d", kind, memByte(fp, 512), memByte(pp, 512))
		}
		if memByte(fp, 512) == 0 {
			t.Errorf("timer %d: timer never fired", kind)
		}
		if fp.Tasks[0].M.CPU != pp.Tasks[0].M.CPU {
			t.Errorf("timer %d: final CPU state diverged", kind)
		}
	}
}
