package fpspy_test

import (
	"math"
	"slices"
	"testing"

	fpspy "repro"
	"repro/internal/chaos"
	"repro/internal/isa"
	"repro/internal/workload"
)

// buildTimerUserProgram hooks SIGVTALRM (the virtual sampler signal) and
// then produces rounding events.
func buildTimerUserProgram() *fpspy.Program {
	b := fpspy.NewProgram("timer-user")
	handler := b.Label("handler")
	b.Movi(isa.R1, 26) // SIGVTALRM
	b.Lea(isa.R2, handler)
	b.CallC("signal")
	b.Movi(isa.R1, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R1)
	b.Movi(isa.R1, int64(math.Float64bits(3)))
	b.Movqx(isa.X1, isa.R1)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1)
	b.Hlt()
	b.Bind(handler)
	b.CallC("rt_sigreturn")
	return b.Build()
}

func TestTimerSignalConflictOnlyWhenSampling(t *testing.T) {
	// With temporal sampling, the app touching SIGVTALRM makes FPSpy
	// step aside...
	res, err := fpspy.Run(buildTimerUserProgram(), fpspy.Options{
		Config: fpspy.Config{
			Mode: fpspy.ModeIndividual, SampleOnUS: 5, SampleOffUS: 100,
			Poisson: true, VirtualTimer: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.StepAsides != 1 {
		t.Errorf("sampling: step-asides = %d, want 1", res.Store.StepAsides)
	}
	// ...but without sampling the signal is not FPSpy's, so it keeps
	// spying.
	res, err = fpspy.Run(buildTimerUserProgram(), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.StepAsides != 0 {
		t.Errorf("no sampling: step-asides = %d, want 0", res.Store.StepAsides)
	}
	if len(res.MustRecords()) != 1 {
		t.Errorf("records = %d, want 1", len(res.MustRecords()))
	}
}

func TestMaxCountIsPerThread(t *testing.T) {
	// Two threads each produce 20 events; MaxCount 5 caps each thread
	// independently at 5.
	b := fpspy.NewProgram("maxcount-threads")
	worker := b.Label("worker")
	b.Lea(isa.R1, worker)
	b.Movi(isa.R2, 0)
	b.CallC("pthread_create")
	b.Mov(isa.R10, isa.R1)
	b.Movi(isa.R1, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R1)
	b.Movi(isa.R1, int64(math.Float64bits(3)))
	b.Movqx(isa.X1, isa.R1)
	loop1 := b.Label("loop1")
	b.Movi(isa.R8, 0)
	b.Movi(isa.R9, 20)
	b.Bind(loop1)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1)
	b.Addi(isa.R8, isa.R8, 1)
	b.Blt(isa.R8, isa.R9, loop1)
	b.Mov(isa.R1, isa.R10)
	b.CallC("pthread_join")
	b.Hlt()
	b.Bind(worker)
	b.Movi(isa.R1, int64(math.Float64bits(2)))
	b.Movqx(isa.X0, isa.R1)
	b.Movi(isa.R1, int64(math.Float64bits(7)))
	b.Movqx(isa.X1, isa.R1)
	loop2 := b.Label("loop2")
	b.Movi(isa.R8, 0)
	b.Movi(isa.R9, 20)
	b.Bind(loop2)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1)
	b.Addi(isa.R8, isa.R8, 1)
	b.Blt(isa.R8, isa.R9, loop2)
	b.CallC("pthread_exit")

	res, err := fpspy.Run(b.Build(), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual, MaxCount: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	threads := res.Store.Threads()
	if len(threads) != 2 {
		t.Fatalf("traced threads = %d", len(threads))
	}
	for _, key := range threads {
		recs, err := res.Store.Records(key)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 5 {
			t.Errorf("%v: records = %d, want 5", key, len(recs))
		}
	}
}

func TestAggregateModeSurvivesFork(t *testing.T) {
	b := fpspy.NewProgram("agg-fork")
	b.Movi(isa.R1, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R1)
	b.CallC("fork")
	child := b.Label("child")
	b.Beq(isa.R1, isa.R0, child)
	// Parent: divide by zero.
	b.Movqx(isa.X1, isa.R0)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1)
	b.Hlt()
	b.Bind(child)
	// Child: 0/0 invalid.
	b.Movqx(isa.X1, isa.R0)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X1, isa.X1)
	b.Hlt()
	res, err := fpspy.Run(b.Build(), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeAggregate},
	})
	if err != nil {
		t.Fatal(err)
	}
	aggs := res.Aggregates()
	if len(aggs) != 2 {
		t.Fatalf("aggregates = %d, want one per process", len(aggs))
	}
	var sawZE, sawIE bool
	for _, a := range aggs {
		if a.Flags&fpspy.FlagDivideByZero != 0 {
			sawZE = true
		}
		if a.Flags&fpspy.FlagInvalid != 0 {
			sawIE = true
		}
	}
	if !sawZE || !sawIE {
		t.Errorf("per-process events lost: ZE=%v IE=%v (%v)", sawZE, sawIE, aggs)
	}
}

func TestExceptListInvalidOnly(t *testing.T) {
	res, err := fpspy.Run(buildEventProgram(50), fpspy.Options{
		Config: fpspy.Config{
			Mode:       fpspy.ModeIndividual,
			ExceptList: fpspy.FlagInvalid,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := res.MustRecords()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want just the invalid", len(recs))
	}
	if recs[0].Event != fpspy.FlagInvalid {
		t.Errorf("event = %v", recs[0].Event)
	}
	// Only the one fault was ever taken: ZE and the 50 PEs stayed
	// masked, so overhead was confined to the selected event.
	if res.Store.Faults != 1 {
		t.Errorf("faults = %d, want 1", res.Store.Faults)
	}
}

func TestAppHandlerWorksAfterStepAside(t *testing.T) {
	// After FPSpy steps aside, the application's own SIGFPE handler (the
	// reason for the step-aside) must receive signals normally: the app
	// unmasks ZE, divides by zero, and its handler must run.
	b := fpspy.NewProgram("post-stepaside")
	handler := b.Label("handler")
	b.Movi(isa.R1, 8) // SIGFPE — triggers FPSpy step-aside, then installs
	b.Lea(isa.R2, handler)
	b.CallC("signal")
	b.Movi(isa.R1, int64(fpspy.FlagDivideByZero))
	b.CallC("feenableexcept")
	b.Movi(isa.R1, int64(fpspy.FlagDivideByZero))
	b.CallC("feraiseexcept") // synchronous: handler runs, no refault
	b.Movi(isa.R9, 55)
	b.Hlt()
	b.Bind(handler)
	b.Movi(isa.R3, 700)
	b.Movi(isa.R4, 1)
	b.St(isa.R3, 0, isa.R4)
	b.CallC("rt_sigreturn")
	res, err := fpspy.Run(b.Build(), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.StepAsides != 1 {
		t.Errorf("step-asides = %d", res.Store.StepAsides)
	}
	if v, _ := res.Proc.Mem.Load64(700); byte(v) != 1 {
		t.Error("app handler did not run after step-aside")
	}
	if res.Proc.Tasks[0].M.CPU.R[isa.R9] != 55 {
		t.Error("app did not resume after its handler")
	}
	if res.ExitCode != 0 {
		t.Errorf("exit %d", res.ExitCode)
	}
}

func TestRealTimerSampling(t *testing.T) {
	// Temporal sampling on the real-time base (SIGALRM instead of
	// SIGVTALRM): cycles including kernel time drive the sampler.
	const n = 100000
	res, err := fpspy.Run(buildEventProgram(n), fpspy.Options{
		Config: fpspy.Config{
			Mode:       fpspy.ModeIndividual,
			SampleOnUS: 1, SampleOffUS: 20,
			Poisson:      true,
			VirtualTimer: false, // FPE_TIMER=real
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := len(res.MustRecords())
	if got == 0 || got >= n {
		t.Errorf("real-time sampled records = %d of %d", got, n)
	}
	// Real-time accounting makes on-periods cover fewer instructions
	// (event handling burns the window), so capture sits below the
	// nominal instruction-time fraction.
	frac := float64(got) / float64(n)
	if frac > 0.3 {
		t.Errorf("real-time sampling captured %.2f of events", frac)
	}
}

func TestSubsampleComposesWithMaxCount(t *testing.T) {
	// FPE_SAMPLE=10 with FPE_MAXCOUNT=3: every 10th event recorded,
	// stop after 3 records (the paper's "after 10 million faulting
	// instructions are observed, FPSpy will disable itself").
	res, err := fpspy.Run(buildEventProgram(500), fpspy.Options{
		Config: fpspy.Config{
			Mode:        fpspy.ModeIndividual,
			SampleEvery: 10,
			MaxCount:    3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.MustRecords()); got != 3 {
		t.Errorf("records = %d, want 3", got)
	}
	// Faults stop shortly after the cap: 30 faults to fill the cap,
	// plus the one that hits it.
	if res.Store.Faults > 35 {
		t.Errorf("faults = %d, want ~30", res.Store.Faults)
	}
}

// TestBreakpointProtocolMatchesTF registers the Section 3.8
// invalid-opcode breakpoint with the oracle against TF single-stepping.
// Each record's stub executes once without retiring, at one
// instruction's cost, so steps, user and wall cycles and record times
// are exempt; guest state, every other record field and the monitor log
// must match.
func TestBreakpointProtocolMatchesTF(t *testing.T) {
	breakpoints := chaos.Check{
		Name:  "breakpoints",
		Alter: func(o *fpspy.Options) { o.Config.Breakpoints = true },
		Exempt: func(o *chaos.Observation) {
			o.Steps, o.UserCycles, o.WallCycles = 0, 0, 0
			o.Records = slices.Clone(o.Records)
			for i := range o.Records {
				o.Records[i].Time = 0
			}
		},
	}
	legs := verify(t, buildEventProgram(200), fpspy.Config{Mode: fpspy.ModeIndividual}, breakpoints)
	if code := legs[0].Procs[0].ExitCode; code != 0 {
		t.Fatalf("exit %d", code)
	}
}

// TestBreakpointProtocolCostsAsTF: the breakpoint protocol, like TF
// single-stepping, takes two kernel crossings per event, so on the
// calibrated Miniaero under Figure 6's 50:100 sampling the two cost the
// same wall cycles to within 5%.
func TestBreakpointProtocolCostsAsTF(t *testing.T) {
	wall := func(breakpoints bool) float64 {
		res, err := fpspy.Run(workload.BuildMiniaeroCalibrated(workload.SizeLarge), fpspy.Options{Config: fpspy.Config{
			Mode: fpspy.ModeIndividual, SampleOnUS: 50, SampleOffUS: 100,
			Poisson: true, VirtualTimer: true, Breakpoints: breakpoints,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Store.Recorded == 0 {
			t.Fatal("no events traced")
		}
		return float64(res.WallCycles)
	}
	if r := wall(true) / wall(false); r < 0.95 || r > 1.05 {
		t.Errorf("breakpoint/TF wall cycles = %.3f, want within [0.95, 1.05]", r)
	}
}

// TestPerThreadCostFlat is Section 3.7's scaling claim: FPSpy costs a
// fixed amount per thread, so the system cycles per worker thread stay
// flat from 1 to 16 workers, each tracing 200 rounding events.
func TestPerThreadCostFlat(t *testing.T) {
	perThread := map[int]float64{}
	for _, n := range []int{1, 4, 16} {
		res, err := fpspy.Run(buildWorkersProgram(n), fpspy.Options{Config: fpspy.Config{Mode: fpspy.ModeIndividual}})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(res.Store.Threads()); got != n+1 {
			t.Fatalf("%d workers: %d traced threads, want %d", n, got, n+1)
		}
		perThread[n] = float64(res.SysCycles) / float64(n)
	}
	if r := perThread[16] / perThread[1]; r < 0.6 || r > 1.5 {
		t.Errorf("per-thread sys cycles 16 vs 1 workers = %.3f (%.0f vs %.0f), want within [0.6, 1.5]", r, perThread[16], perThread[1])
	}
}

// buildWorkersProgram starts n worker threads that each divide 1 by 3
// 200 times and then bump a shared counter, which the main thread
// waits on.
func buildWorkersProgram(n int) *fpspy.Program {
	b := fpspy.NewProgram("workers")
	worker := b.Label("worker")
	for range n {
		b.Lea(isa.R1, worker)
		b.CallC("pthread_create")
	}
	b.Movi(isa.R7, 1024)
	wait := b.Label("wait")
	b.Bind(wait)
	b.Ld(isa.R6, isa.R7, 0)
	b.Movi(isa.R5, int64(n))
	b.Bne(isa.R6, isa.R5, wait)
	b.Hlt()
	b.Bind(worker)
	divConsts(b)
	b.Movi(isa.R8, 0)
	b.Movi(isa.R9, 200)
	top := b.Label("top")
	b.Bind(top)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1)
	b.Addi(isa.R8, isa.R8, 1)
	b.Blt(isa.R8, isa.R9, top)
	// An unlocked increment: the deterministic scheduler's quanta do not
	// split it at these thread counts.
	b.Movi(isa.R7, 1024)
	b.Ld(isa.R6, isa.R7, 0)
	b.Addi(isa.R6, isa.R6, 1)
	b.St(isa.R7, 0, isa.R6)
	b.CallC("pthread_exit")
	return b.Build()
}

// TestBreakpointProtocolWithThreads exercises per-thread breakpoint state.
func TestBreakpointProtocolWithThreads(t *testing.T) {
	res, err := fpspy.Run(buildThreadedProgram(), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual, Breakpoints: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Store.Threads()); got != 2 {
		t.Fatalf("traced threads = %d", got)
	}
	if res.EventSet()&(fpspy.FlagDivideByZero|fpspy.FlagInexact) !=
		fpspy.FlagDivideByZero|fpspy.FlagInexact {
		t.Errorf("events = %v", res.EventSet())
	}
}

// TestBreakpointStepAsideClearsStubs: stepping aside under the
// breakpoint protocol must leave no stubbed instructions behind.
func TestBreakpointStepAsideClearsStubs(t *testing.T) {
	res, err := fpspy.Run(buildFESetEnvProgram(), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual, Breakpoints: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.StepAsides != 1 {
		t.Errorf("step-asides = %d", res.Store.StepAsides)
	}
	if res.ExitCode != 0 {
		t.Errorf("exit %d: a stale breakpoint killed the app", res.ExitCode)
	}
	for _, task := range res.Proc.Tasks {
		if len(task.M.Breakpoints) != 0 {
			t.Errorf("stale breakpoints: %v", task.M.Breakpoints)
		}
	}
}
