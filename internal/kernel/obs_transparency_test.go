package kernel

import (
	"testing"

	"repro/internal/obs"
)

// TestFastPathMatchesPreciseUnderObs is the kernel-level transparency
// contract for the observability layer: enabling metrics must not
// perturb the simulation in any way. Both execution paths are run with
// and without a registry attached and every architectural observable —
// retirement counts, cycle accounting, timer firings, final CPU state —
// must be bit-identical. The instrumented runs must additionally produce
// counters that reconcile with the simulation's own accounting.
func TestFastPathMatchesPreciseUnderObs(t *testing.T) {
	const interval = 53
	for _, noFast := range []bool{false, true} {
		name := "fast"
		if noFast {
			name = "precise"
		}
		t.Run(name, func(t *testing.T) {
			bk, bp, bev := runFastpathWorkload(t, TimerVirtual, interval, noFast, nil)
			om := obs.New(obs.Options{})
			ok, op, oev := runFastpathWorkload(t, TimerVirtual, interval, noFast, om)

			if bev != oev {
				t.Errorf("FP events bare=%d instrumented=%d", bev, oev)
			}
			if got, want := op.Tasks[0].M.Retired, bp.Tasks[0].M.Retired; got != want {
				t.Errorf("retired bare=%d instrumented=%d", want, got)
			}
			bu, bs := bp.ProcessTimes()
			ou, os := op.ProcessTimes()
			if bu != ou || bs != os {
				t.Errorf("cycles bare=(%d,%d) instrumented=(%d,%d)", bu, bs, ou, os)
			}
			if bk.Cycles != ok.Cycles {
				t.Errorf("wall cycles bare=%d instrumented=%d", bk.Cycles, ok.Cycles)
			}
			if memByte(bp, 512) != memByte(op, 512) {
				t.Errorf("timer firings bare=%d instrumented=%d", memByte(bp, 512), memByte(op, 512))
			}
			if bp.Tasks[0].M.CPU != op.Tasks[0].M.CPU {
				t.Errorf("final CPU state diverged under obs")
			}

			// The instrumented run's counters must reconcile with the
			// simulation's own accounting, not merely be nonzero.
			km := &om.Kernel
			if got := km.Signals[SIGFPE].Load(); got != uint64(oev) {
				t.Errorf("SIGFPE counter %d, want %d", got, oev)
			}
			// Each FP event runs the two-trap protocol: SIGFPE mutates
			// MXCSR (mask) and TF (set), SIGTRAP mutates MXCSR (unmask)
			// and TF (clear).
			if got := km.Signals[SIGTRAP].Load(); got != uint64(oev) {
				t.Errorf("SIGTRAP counter %d, want %d", got, oev)
			}
			if got := km.MCtxMXCSR.Load(); got != uint64(2*oev) {
				t.Errorf("mcontext MXCSR mutations %d, want %d", got, 2*oev)
			}
			if got := km.MCtxTF.Load(); got != uint64(2*oev) {
				t.Errorf("mcontext TF mutations %d, want %d", got, 2*oev)
			}
			if got := km.TimerFires[TimerVirtual].Load(); got != uint64(memByte(op, 512)) {
				t.Errorf("timer-fire counter %d, want %d firings", got, memByte(op, 512))
			}
			// PreciseSteps counts step attempts: an unmasked FP fault
			// aborts its instruction (re-executed after the handler) and
			// the final HLT does not retire, so attempts exceed the
			// retirement count by exactly faults + 1.
			steps := km.FastSteps.Load() + km.PreciseSteps.Load()
			if want := op.Tasks[0].M.Retired + uint64(oev) + 1; steps != want {
				t.Errorf("fast+precise steps %d, want %d (retired %d + %d faults + hlt)",
					steps, want, op.Tasks[0].M.Retired, oev)
			}
			if noFast {
				if km.FastSteps.Load() != 0 {
					t.Errorf("fast steps %d on the precise path", km.FastSteps.Load())
				}
			} else {
				if km.FastSteps.Load() == 0 {
					t.Error("fast path retired no batched steps")
				}
				if km.FastBatch.Count() == 0 {
					t.Error("no fast-path batches observed")
				}
			}
			if km.SchedRounds.Load() == 0 {
				t.Error("no scheduler rounds observed")
			}
		})
	}
}
