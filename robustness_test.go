package fpspy_test

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	fpspy "repro"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/trace"
)

// divConsts loads 1.0 and 3.0 so subsequent DIVSDs raise inexact.
func divConsts(b *fpspy.Builder) {
	b.Movi(isa.R1, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R1)
	b.Movi(isa.R1, int64(math.Float64bits(3)))
	b.Movqx(isa.X1, isa.R1)
}

func divBurst(b *fpspy.Builder, n int) {
	for i := 0; i < n; i++ {
		b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1)
	}
}

// buildFEMeddler faults a few times, calls fesetround mid-run (forcing
// FPSpy to step aside), then keeps computing.
func buildFEMeddler() *fpspy.Program {
	b := fpspy.NewProgram("fe-meddler")
	divConsts(b)
	divBurst(b, 3)
	b.Movi(isa.R1, 1) // FE_DOWNWARD
	b.CallC("fesetround")
	divBurst(b, 3)
	b.Hlt()
	return b.Build()
}

// TestStepAsideRestoresThreadState drives a step-aside under every
// sampler variant and checks FPSpy left nothing of itself behind:
// dispositions restored, MXCSR masks back to default, single-step and
// breakpoint machinery cleared, sampler timers disarmed.
func TestStepAsideRestoresThreadState(t *testing.T) {
	cases := []struct {
		name string
		cfg  fpspy.Config
	}{
		{"plain", fpspy.Config{Mode: fpspy.ModeIndividual}},
		{"temporal-virtual", fpspy.Config{Mode: fpspy.ModeIndividual,
			SampleOnUS: 5, SampleOffUS: 40, VirtualTimer: true}},
		{"temporal-poisson", fpspy.Config{Mode: fpspy.ModeIndividual,
			SampleOnUS: 5, SampleOffUS: 40, Poisson: true, VirtualTimer: true}},
		{"temporal-real", fpspy.Config{Mode: fpspy.ModeIndividual,
			SampleOnUS: 5, SampleOffUS: 40}},
		{"breakpoints", fpspy.Config{Mode: fpspy.ModeIndividual, Breakpoints: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := fpspy.Run(buildFEMeddler(), fpspy.Options{Config: tc.cfg})
			if err != nil {
				t.Fatal(err)
			}
			if res.ExitCode != 0 {
				t.Fatalf("exit %d", res.ExitCode)
			}
			if res.Store.StepAsides != 1 {
				t.Fatalf("step-asides = %d, want 1", res.Store.StepAsides)
			}
			for _, sig := range []kernel.Signal{kernel.SIGFPE, kernel.SIGTRAP,
				kernel.SIGILL, kernel.SIGVTALRM, kernel.SIGALRM} {
				if res.Proc.Handlers[sig] != nil {
					t.Errorf("%v disposition still installed after step-aside", sig)
				}
			}
			for _, task := range res.Proc.Tasks {
				if got := task.M.CPU.MXCSR.Masks(); got != fpspy.AllEvents {
					t.Errorf("tid %d: MXCSR masks %v, want default %v", task.TID, got, fpspy.AllEvents)
				}
				if task.M.CPU.TF {
					t.Errorf("tid %d: trap flag left set", task.TID)
				}
				if task.M.Breakpoints != nil {
					t.Errorf("tid %d: breakpoints left planted", task.TID)
				}
				if task.TimerArmed(kernel.TimerVirtual) || task.TimerArmed(kernel.TimerReal) {
					t.Errorf("tid %d: sampler timer still armed", task.TID)
				}
			}
			// The abort is typed and visible through the monitor log.
			evs, err := trace.ParseMonitorLog([]byte(res.Store.MonitorLog()))
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, e := range evs {
				if e.Kind == trace.EventAbort {
					found = true
					if e.Reason != string(fpspy.AbortFEAccess) {
						t.Errorf("abort reason %q, want %q", e.Reason, fpspy.AbortFEAccess)
					}
					if e.From != "individual" || e.To != "detached" {
						t.Errorf("abort transition %s -> %s", e.From, e.To)
					}
				}
			}
			if !found {
				t.Error("no abort event in monitor log")
			}
		})
	}
}

// failingWriter models a full disk: every write fails.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) {
	return 0, errors.New("no space left on device")
}

// TestFlushErrorsSurfaceInResult pins the error path from trace flushing
// at thread teardown into Result.TraceErr — failures used to vanish.
func TestFlushErrorsSurfaceInResult(t *testing.T) {
	store := fpspy.NewStoreWithSink(func(fpspy.ThreadKey) io.Writer {
		return failingWriter{}
	})
	b := fpspy.NewProgram("flush-fail")
	divConsts(b)
	divBurst(b, 5)
	b.Hlt()
	res, err := fpspy.Run(b.Build(), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual},
		Store:  store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("a failing trace sink must not harm the guest: exit %d", res.ExitCode)
	}
	if res.TraceErr == nil {
		t.Fatal("Result.TraceErr is nil despite failing sink")
	}
	if !strings.Contains(res.TraceErr.Error(), "no space left on device") {
		t.Errorf("TraceErr %q does not carry the sink error", res.TraceErr)
	}
	if !strings.Contains(res.TraceErr.Error(), "flushing trace") {
		t.Errorf("TraceErr %q does not identify the failing thread trace", res.TraceErr)
	}
	if len(store.FlushErrs()) == 0 {
		t.Error("store recorded no flush errors")
	}
}

// onceFailingWriter fails its first write and accepts every later one: a
// transient media error in the middle of a run.
type onceFailingWriter struct {
	failed    bool
	delivered int // bytes accepted
}

func (w *onceFailingWriter) Write(p []byte) (int, error) {
	if !w.failed {
		w.failed = true
		return 0, errors.New("transient I/O error")
	}
	w.delivered += len(p)
	return len(p), nil
}

// TestMidRunAppendErrorSurfacesInResult: a sink that fails once mid-run
// makes the trace writer drop a buffer of records, and the flush at
// teardown then succeeds. The Append error must reach Result.TraceErr,
// or the run reads as complete with records missing.
func TestMidRunAppendErrorSurfacesInResult(t *testing.T) {
	sink := &onceFailingWriter{}
	store := fpspy.NewStoreWithSink(func(fpspy.ThreadKey) io.Writer { return sink })
	b := fpspy.NewProgram("append-fail")
	divConsts(b)
	divBurst(b, 600)
	b.Hlt()
	res, err := fpspy.Run(b.Build(), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual},
		Store:  store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if delivered := uint64(sink.delivered / trace.RecordSize); delivered >= store.Recorded {
		t.Fatalf("scenario lost no records: %d delivered of %d recorded", delivered, store.Recorded)
	}
	if res.TraceErr == nil {
		t.Fatal("records were lost mid-run but Result.TraceErr is nil")
	}
	if !strings.Contains(res.TraceErr.Error(), "transient I/O error") {
		t.Errorf("TraceErr %q does not carry the sink error", res.TraceErr)
	}
}

// TestSinkBackedTraceReadsAreErrors: a sink-backed store keeps no trace
// bytes, so reading a thread's trace back is an error, not a host panic.
func TestSinkBackedTraceReadsAreErrors(t *testing.T) {
	var keys []fpspy.ThreadKey
	store := fpspy.NewStoreWithSink(func(key fpspy.ThreadKey) io.Writer {
		keys = append(keys, key)
		return io.Discard
	})
	b := fpspy.NewProgram("sink-read")
	divConsts(b)
	divBurst(b, 5)
	b.Hlt()
	if _, err := fpspy.Run(b.Build(), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual},
		Store:  store,
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 {
		t.Fatal("the spy opened no trace")
	}
	for _, key := range keys {
		for name, read := range map[string]func() error{
			"Records":  func() error { _, err := store.Records(key); return err },
			"RawTrace": func() error { _, err := store.RawTrace(key); return err },
		} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s(%v) panicked: %v", name, key, r)
					}
				}()
				if read() == nil {
					t.Errorf("%s(%v) on a sink-backed thread returned no error", name, key)
				}
			}()
		}
	}
}

// buildSignalFighter registers a SIGFPE handler n times between faults.
func buildSignalFighter(n int) *fpspy.Program {
	b := fpspy.NewProgram("signal-fighter")
	handler := b.Label("handler")
	divConsts(b)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1)
	for i := 0; i < n; i++ {
		b.Movi(isa.R1, int64(kernel.SIGFPE))
		b.Lea(isa.R2, handler)
		b.CallC("signal")
		b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1)
	}
	b.Hlt()
	b.Bind(handler)
	b.CallC("rt_sigreturn")
	return b.Build()
}

// TestAggressiveCountsSignalFights: under FPE_AGGRESSIVE, each absorbed
// registration attempt is counted and logged so fpanalyze can report
// how hard the application fought for FPSpy's signals.
func TestAggressiveCountsSignalFights(t *testing.T) {
	res, err := fpspy.Run(buildSignalFighter(3), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual, Aggressive: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.StepAsides != 0 {
		t.Fatalf("aggressive spy stepped aside %d times", res.Store.StepAsides)
	}
	if got := res.Store.SignalFights()["SIGFPE"]; got != 3 {
		t.Errorf("SignalFights[SIGFPE] = %d, want 3", got)
	}
	// All four faults were still captured — absorption kept the spy on.
	if got := len(res.MustRecords()); got != 4 {
		t.Errorf("records = %d, want 4", got)
	}
	evs, err := trace.ParseMonitorLog([]byte(res.Store.MonitorLog()))
	if err != nil {
		t.Fatal(err)
	}
	var counts []uint64
	for _, e := range evs {
		if e.Kind == trace.EventSignalFight {
			if e.Signal != "SIGFPE" {
				t.Errorf("fight over %q, want SIGFPE", e.Signal)
			}
			counts = append(counts, e.Count)
		}
	}
	if fmt.Sprint(counts) != "[1 2 3]" {
		t.Errorf("fight counts %v, want cumulative [1 2 3]", counts)
	}
}

// buildStomper faults once, rewrites MXCSR behind FPSpy's back with
// ldmxcsr (masking only ZE, leaving inexact unmasked), then faults
// again so the integrity recheck fires.
func buildStomper() *fpspy.Program {
	b := fpspy.NewProgram("mxcsr-stomper")
	stomp := b.Words(0x200) // ZE mask bit only; all flags clear
	divConsts(b)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1)
	b.Movi(isa.R9, int64(stomp))
	b.Ldmxcsr(isa.R9, 0)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1)
	b.Hlt()
	return b.Build()
}

// TestAggressiveReassertsStompedMXCSR: an aggressive spy treats a
// stomped MXCSR as contention, re-asserts its masks, and keeps
// capturing, logging the re-assertion.
func TestAggressiveReassertsStompedMXCSR(t *testing.T) {
	res, err := fpspy.Run(buildStomper(), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual, Aggressive: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("exit %d", res.ExitCode)
	}
	if res.Store.StepAsides != 0 {
		t.Fatal("aggressive spy detached instead of re-asserting")
	}
	if got := len(res.MustRecords()); got != 2 {
		t.Errorf("records = %d, want 2 (capture survived the stomp)", got)
	}
	reasserts := 0
	for _, e := range res.Store.MonitorEvents() {
		if e.Kind == trace.EventReassert {
			reasserts++
			if e.Reason != string(fpspy.AbortMXCSRStomp) {
				t.Errorf("reassert reason %q, want %q", e.Reason, fpspy.AbortMXCSRStomp)
			}
		}
	}
	if reasserts != 1 {
		t.Errorf("reassert events = %d, want 1", reasserts)
	}
}

// TestDefaultSpyDetachesOnStomp: a mask-everything stomp never faults
// again, so it can only be noticed by the integrity check at thread
// teardown — which must still produce a typed mxcsr-stomp abort.
func TestDefaultSpyDetachesOnStomp(t *testing.T) {
	b := fpspy.NewProgram("mask-all-stomper")
	stomp := b.Words(0x1F80) // default masks, but not what an attached spy expects
	divConsts(b)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1)
	b.Movi(isa.R9, int64(stomp))
	b.Ldmxcsr(isa.R9, 0)
	divBurst(b, 3) // silent now: everything is masked
	b.Hlt()
	res, err := fpspy.Run(b.Build(), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("exit %d", res.ExitCode)
	}
	if res.Store.StepAsides != 1 {
		t.Fatalf("step-asides = %d, want 1", res.Store.StepAsides)
	}
	if got := len(res.MustRecords()); got != 1 {
		t.Errorf("records = %d, want 1 (only the pre-stomp fault)", got)
	}
	found := false
	for _, e := range res.Store.MonitorEvents() {
		if e.Kind == trace.EventAbort && e.Reason == string(fpspy.AbortMXCSRStomp) {
			found = true
		}
	}
	if !found {
		t.Error("no mxcsr-stomp abort in monitor log")
	}
}

// TestTrapStormDemotesToAggregate: a thread exceeding the FPE_STORM
// budget is demoted from individual to aggregate mode — pre-demotion
// records are kept, post-demotion faults stop, and the thread still
// yields a sticky-flag aggregate record at exit.
func TestTrapStormDemotesToAggregate(t *testing.T) {
	b := fpspy.NewProgram("trap-storm")
	divConsts(b)
	divBurst(b, 20)
	b.Hlt()
	res, err := fpspy.Run(b.Build(), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual,
			StormFaults: 4, StormCycles: 1_000_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("exit %d", res.ExitCode)
	}
	// Faults 1-3 recorded individually; the 4th trips the watchdog and
	// is absorbed by the demotion; 5-20 run under sticky aggregate masks.
	if got := len(res.MustRecords()); got != 3 {
		t.Errorf("individual records = %d, want 3", got)
	}
	demotes := 0
	for _, e := range res.Store.MonitorEvents() {
		if e.Kind == trace.EventDemote {
			demotes++
			if e.Reason != string(fpspy.AbortTrapStorm) {
				t.Errorf("demote reason %q, want %q", e.Reason, fpspy.AbortTrapStorm)
			}
			if e.From != "individual" || e.To != "aggregate" {
				t.Errorf("demote transition %s -> %s", e.From, e.To)
			}
		}
	}
	if demotes != 1 {
		t.Errorf("demote events = %d, want 1", demotes)
	}
	aggs := res.Aggregates()
	if len(aggs) != 1 {
		t.Fatalf("aggregates = %d, want 1", len(aggs))
	}
	if aggs[0].Reason != string(fpspy.AbortTrapStorm) {
		t.Errorf("aggregate reason %q, want trap-storm", aggs[0].Reason)
	}
	if aggs[0].Aborted {
		t.Error("demotion is not an abort: Aborted must be false")
	}
	if aggs[0].Flags == 0 {
		t.Error("aggregate record carries no sticky flags")
	}
}
