package fpspy_test

import (
	"math"
	"runtime"
	"testing"

	fpspy "repro"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/workload"
)

// buildEventProgram returns a program that performs, in order:
// nInexact inexact divisions (1/3), one divide-by-zero, and one
// invalid (0/0) — a controllable event generator.
func buildEventProgram(nInexact int) *fpspy.Program {
	b := fpspy.NewProgram("events")
	b.Movi(isa.R1, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R1)
	b.Movi(isa.R1, int64(math.Float64bits(3)))
	b.Movqx(isa.X1, isa.R1)
	b.Movi(isa.R2, 0)
	b.Movi(isa.R3, int64(nInexact))
	loop := b.Label("loop")
	b.Bind(loop)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1) // inexact
	b.Addi(isa.R2, isa.R2, 1)
	b.Blt(isa.R2, isa.R3, loop)
	b.Movqx(isa.X3, isa.R0)                    // +0
	b.FP2(isa.OpDIVSD, isa.X4, isa.X0, isa.X3) // 1/0: divide by zero
	b.FP2(isa.OpDIVSD, isa.X5, isa.X3, isa.X3) // 0/0: invalid
	b.Hlt()
	return b.Build()
}

// TestIndividualRunAllocationCeiling gates allocation as a layer: an
// individual-mode run of the 2000-event program allocates under 2 MiB
// in all. Guest memory allocates a page on its first write and the
// trace store grows one fixed-size staging block at a time, so a flat
// 16 MiB guest or a doubling trace buffer coming back fails it.
func TestIndividualRunAllocationCeiling(t *testing.T) {
	prog := buildEventProgram(2000)
	run := func() {
		if _, err := fpspy.Run(prog, fpspy.Options{
			Config: fpspy.Config{Mode: fpspy.ModeIndividual},
		}); err != nil {
			t.Fatal(err)
		}
	}
	run() // build lazily initialized tables outside the measurement
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	const ceiling = 2 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= ceiling {
		t.Fatalf("an individual-mode run allocated %d bytes, ceiling %d", got, ceiling)
	}
}

func TestAggregateModeCapturesStickySet(t *testing.T) {
	res, err := fpspy.Run(buildEventProgram(10), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeAggregate},
	})
	if err != nil {
		t.Fatal(err)
	}
	aggs := res.Aggregates()
	if len(aggs) != 1 {
		t.Fatalf("aggregates = %d, want 1", len(aggs))
	}
	want := fpspy.FlagInexact | fpspy.FlagDivideByZero | fpspy.FlagInvalid
	if aggs[0].Flags != want {
		t.Errorf("flags = %v, want %v", aggs[0].Flags, want)
	}
	if aggs[0].Aborted {
		t.Error("trace marked aborted")
	}
	// Aggregate mode records no individual events.
	if res.Store.Recorded != 0 {
		t.Errorf("recorded = %d in aggregate mode", res.Store.Recorded)
	}
}

func TestIndividualModeRecordsEveryEvent(t *testing.T) {
	const n = 25
	res, err := fpspy.Run(buildEventProgram(n), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := res.MustRecords()
	// n inexact + 1 dbz + 1 invalid.
	if len(recs) != n+2 {
		t.Fatalf("records = %d, want %d", len(recs), n+2)
	}
	var inexact, dbz, invalid int
	for i := range recs {
		switch {
		case recs[i].Event == fpspy.FlagDivideByZero:
			dbz++
		case recs[i].Event == fpspy.FlagInvalid:
			invalid++
		case recs[i].Event == fpspy.FlagInexact:
			inexact++
		}
		if recs[i].Rip == 0 {
			t.Fatal("record missing rip")
		}
	}
	if inexact != n || dbz != 1 || invalid != 1 {
		t.Errorf("inexact=%d dbz=%d invalid=%d", inexact, dbz, invalid)
	}
	// Sequence numbers are dense per thread.
	for i := range recs {
		if recs[i].Seq != uint64(i) {
			t.Fatalf("seq[%d] = %d", i, recs[i].Seq)
		}
	}
	// Mnemonic decoding works.
	if m := fpspy.Mnemonic(&recs[0]); m != "divsd" {
		t.Errorf("mnemonic = %q", m)
	}
}

func TestIndividualFilteringExcludesInexact(t *testing.T) {
	res, err := fpspy.Run(buildEventProgram(50), fpspy.Options{
		Config: fpspy.Config{
			Mode:       fpspy.ModeIndividual,
			ExceptList: fpspy.AllEvents &^ fpspy.FlagInexact,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := res.MustRecords()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2 (dbz + invalid)", len(recs))
	}
	for i := range recs {
		if recs[i].Event == fpspy.FlagInexact {
			t.Error("inexact captured despite filter")
		}
	}
	// Filtering means no overhead for filtered events: faults == records.
	if res.Store.Faults != 2 {
		t.Errorf("faults = %d, want 2", res.Store.Faults)
	}
}

func TestSubsamplingRecordsEveryNth(t *testing.T) {
	const n = 100
	res, err := fpspy.Run(buildEventProgram(n), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual, SampleEvery: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := res.MustRecords()
	// 102 faults total -> every 10th recorded.
	if len(recs) != 10 {
		t.Errorf("records = %d, want 10", len(recs))
	}
	if res.Store.Faults != n+2 {
		t.Errorf("faults = %d, want %d", res.Store.Faults, n+2)
	}
}

func TestMaxCountDisablesCapture(t *testing.T) {
	res, err := fpspy.Run(buildEventProgram(100), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual, MaxCount: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := res.MustRecords()
	if len(recs) != 7 {
		t.Errorf("records = %d, want 7", len(recs))
	}
	// After the cap, exceptions stay masked: far fewer than 102 faults.
	if res.Store.Faults > 8 {
		t.Errorf("faults = %d after maxcount, want <= 8", res.Store.Faults)
	}
}

// buildFESetEnvProgram does some rounding, then calls fesetenv (like
// WRF), then more rounding.
func buildFESetEnvProgram() *fpspy.Program {
	b := fpspy.NewProgram("wrf-like")
	b.Movi(isa.R1, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R1)
	b.Movi(isa.R1, int64(math.Float64bits(3)))
	b.Movqx(isa.X1, isa.R1)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1) // inexact before fesetenv
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1)
	b.Movi(isa.R1, 0) // FE_DFL_ENV
	b.CallC("fesetenv")
	b.FP2(isa.OpDIVSD, isa.X3, isa.X0, isa.X1) // after: unobserved
	b.FP2(isa.OpDIVSD, isa.X3, isa.X0, isa.X1)
	b.Hlt()
	return b.Build()
}

func TestStepAsideOnFESetEnvAggregate(t *testing.T) {
	// Aggregate mode: the application's floating point control use makes
	// FPSpy step aside; the aggregate record reports nothing (the WRF
	// row of the paper's Figure 9).
	res, err := fpspy.Run(buildFESetEnvProgram(), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeAggregate},
	})
	if err != nil {
		t.Fatal(err)
	}
	aggs := res.Aggregates()
	if len(aggs) != 1 {
		t.Fatalf("aggregates = %d", len(aggs))
	}
	if !aggs[0].Aborted || aggs[0].Flags != 0 {
		t.Errorf("agg = %+v, want aborted with no flags", aggs[0])
	}
	if res.Store.StepAsides != 1 {
		t.Errorf("stepasides = %d", res.Store.StepAsides)
	}
}

func TestStepAsideOnFESetEnvIndividualKeepsEarlierRecords(t *testing.T) {
	// Individual mode captures events as they arise, so the records
	// before fesetenv survive (the WRF row of Figure 14).
	res, err := fpspy.Run(buildFESetEnvProgram(), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := res.MustRecords()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want the 2 pre-fesetenv events", len(recs))
	}
	if res.Store.StepAsides != 1 {
		t.Errorf("stepasides = %d", res.Store.StepAsides)
	}
	// The application's fesetenv must still have taken effect (FPSpy
	// untangles, the call goes through).
	if res.ExitCode != 0 {
		t.Errorf("exit code %d", res.ExitCode)
	}
}

// buildSignalUserProgram installs its own SIGFPE handler (incidentally),
// then generates events.
func buildSignalUserProgram() *fpspy.Program {
	b := fpspy.NewProgram("signal-user")
	handler := b.Label("handler")
	b.Movi(isa.R1, 8) // SIGFPE
	b.Lea(isa.R2, handler)
	b.CallC("signal")
	b.Movi(isa.R1, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R1)
	b.Movi(isa.R1, int64(math.Float64bits(3)))
	b.Movqx(isa.X1, isa.R1)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1)
	b.Hlt()
	b.Bind(handler)
	b.CallC("rt_sigreturn")
	return b.Build()
}

func TestStepAsideWhenAppHooksSIGFPE(t *testing.T) {
	res, err := fpspy.Run(buildSignalUserProgram(), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.StepAsides != 1 {
		t.Errorf("stepasides = %d, want 1", res.Store.StepAsides)
	}
	if len(res.MustRecords()) != 0 {
		t.Error("events recorded after handing SIGFPE to the app")
	}
}

func TestAggressiveModeKeepsSpying(t *testing.T) {
	res, err := fpspy.Run(buildSignalUserProgram(), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual, Aggressive: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.StepAsides != 0 {
		t.Errorf("stepasides = %d, want 0 in aggressive mode", res.Store.StepAsides)
	}
	if got := len(res.MustRecords()); got != 2 {
		t.Errorf("records = %d, want 2", got)
	}
}

// buildThreadedProgram runs a worker thread that produces 1 divide by
// zero while the main thread produces inexact events.
func buildThreadedProgram() *fpspy.Program {
	b := fpspy.NewProgram("threaded")
	worker := b.Label("worker")
	b.Lea(isa.R1, worker)
	b.Movi(isa.R2, 0)
	b.CallC("pthread_create")
	b.Movi(isa.R1, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R1)
	b.Movi(isa.R1, int64(math.Float64bits(3)))
	b.Movqx(isa.X1, isa.R1)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1)
	// Wait for the worker's flag.
	b.Movi(isa.R7, 1024)
	wait := b.Label("wait")
	b.Bind(wait)
	b.Ld(isa.R6, isa.R7, 0)
	b.Beq(isa.R6, isa.R0, wait)
	b.Hlt()
	b.Bind(worker)
	b.Movi(isa.R3, int64(math.Float64bits(2)))
	b.Movqx(isa.X0, isa.R3)
	b.Movqx(isa.X1, isa.R0)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1) // 2/0
	b.Movi(isa.R3, 1024)
	b.Movi(isa.R4, 1)
	b.St(isa.R3, 0, isa.R4)
	b.CallC("pthread_exit")
	return b.Build()
}

func TestPerThreadTraces(t *testing.T) {
	res, err := fpspy.Run(buildThreadedProgram(), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual},
	})
	if err != nil {
		t.Fatal(err)
	}
	threads := res.Store.Threads()
	if len(threads) != 2 {
		t.Fatalf("threads with traces = %d, want 2", len(threads))
	}
	// One thread has the inexact, the other the divide by zero.
	var sawDBZ, sawInexact bool
	for _, key := range threads {
		recs, err := res.Store.Records(key)
		if err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			if recs[i].Event == fpspy.FlagDivideByZero {
				sawDBZ = true
			}
			if recs[i].Event == fpspy.FlagInexact {
				sawInexact = true
			}
			if int(recs[i].TID) != key.TID {
				t.Errorf("record tid %d in trace %v", recs[i].TID, key)
			}
		}
	}
	if !sawDBZ || !sawInexact {
		t.Errorf("dbz=%v inexact=%v", sawDBZ, sawInexact)
	}
}

func TestAggregateThreadsGetIndependentRecords(t *testing.T) {
	res, err := fpspy.Run(buildThreadedProgram(), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeAggregate},
	})
	if err != nil {
		t.Fatal(err)
	}
	aggs := res.Aggregates()
	if len(aggs) != 2 {
		t.Fatalf("aggregates = %d, want 2", len(aggs))
	}
	var all fpspy.Flags
	for _, a := range aggs {
		all |= a.Flags
	}
	if all&fpspy.FlagDivideByZero == 0 || all&fpspy.FlagInexact == 0 {
		t.Errorf("union = %v", all)
	}
}

func TestForkedProcessesBothTraced(t *testing.T) {
	b := fpspy.NewProgram("forker")
	b.Movi(isa.R1, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R1)
	b.Movi(isa.R1, int64(math.Float64bits(3)))
	b.Movqx(isa.X1, isa.R1)
	b.CallC("fork")
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1) // both sides do this
	b.Hlt()
	res, err := fpspy.Run(b.Build(), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual},
	})
	if err != nil {
		t.Fatal(err)
	}
	threads := res.Store.Threads()
	if len(threads) != 2 {
		t.Fatalf("traced threads = %d, want 2 (parent+child)", len(threads))
	}
	if threads[0].PID == threads[1].PID {
		t.Error("traces not split by process")
	}
	for _, key := range threads {
		recs, _ := res.Store.Records(key)
		if len(recs) != 1 {
			t.Errorf("%v: records = %d, want 1", key, len(recs))
		}
	}
}

func TestPoissonSamplingCapturesSubset(t *testing.T) {
	const n = 300000
	full, err := fpspy.Run(buildEventProgram(n), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual},
	})
	if err != nil {
		t.Fatal(err)
	}
	// ~5% coverage; periods short enough that the run spans dozens of
	// on/off cycles, so the observed fraction concentrates near the mean.
	sampled, err := fpspy.Run(buildEventProgram(n), fpspy.Options{
		Config: fpspy.Config{
			Mode:       fpspy.ModeIndividual,
			SampleOnUS: 1, SampleOffUS: 20,
			Poisson:      true,
			VirtualTimer: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	nf := len(full.MustRecords())
	ns := len(sampled.MustRecords())
	if nf != n+2 {
		t.Fatalf("full records = %d", nf)
	}
	frac := float64(ns) / float64(nf)
	if frac < 0.01 || frac > 0.15 {
		t.Errorf("sampled fraction = %.3f (%d of %d), want around 5%%", frac, ns, nf)
	}
	// Sampling reduces overhead: fewer faults taken.
	if sampled.Store.Faults >= full.Store.Faults {
		t.Errorf("sampled faults %d >= full faults %d", sampled.Store.Faults, full.Store.Faults)
	}
	// And wall time improves.
	if sampled.WallCycles >= full.WallCycles {
		t.Errorf("sampled wall %d >= full wall %d", sampled.WallCycles, full.WallCycles)
	}
}

func TestNoSpyBaselineHasNoOverheadOrRecords(t *testing.T) {
	res, err := fpspy.Run(buildEventProgram(100), fpspy.Options{NoSpy: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.Faults != 0 || res.Store.Recorded != 0 {
		t.Error("baseline observed events")
	}
	if len(res.Aggregates()) != 0 {
		t.Error("baseline produced aggregates")
	}
}

func TestAggregateOverheadIsVirtuallyZero(t *testing.T) {
	base, err := fpspy.Run(buildEventProgram(5000), fpspy.Options{NoSpy: true})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := fpspy.Run(buildEventProgram(5000), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeAggregate},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate mode adds only startup/teardown work: well under 1%.
	ratio := float64(agg.WallCycles) / float64(base.WallCycles)
	if ratio > 1.01 {
		t.Errorf("aggregate overhead ratio = %.4f", ratio)
	}
}

func TestDisableMakesFPSpyInert(t *testing.T) {
	res, err := fpspy.Run(buildEventProgram(10), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual, Disable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.Faults != 0 || len(res.MustRecords()) != 0 {
		t.Error("disabled FPSpy still captured events")
	}
}

// TestRunMitigatedRecordsObs: a mitigated run reports to Options.Obs the
// way Run does, so a study's mitigated leg shows up in the kernel and
// FLOP counters next to its shadowed leg.
func TestRunMitigatedRecordsObs(t *testing.T) {
	w, err := workload.ByName("wrf")
	if err != nil {
		t.Fatal(err)
	}
	om := obs.New(obs.Options{})
	_, stats, err := fpspy.RunMitigated(w.Build(workload.SizeSmall), 113, fpspy.Options{Obs: om})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Emulated == 0 {
		t.Fatal("mitigator emulated nothing; the check below would prove nothing")
	}
	if om.Kernel.FastSteps.Load() == 0 {
		t.Fatal("mitigated run under obs recorded no kernel steps")
	}
}
