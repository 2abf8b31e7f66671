package absint

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/softfloat"
	"repro/internal/trace"
)

// runConcrete executes a program on the bare machine with all exceptions
// masked, collecting the exact condition set each instruction index
// raises. It is the ground truth the static verdicts must cover.
func runConcrete(t *testing.T, p *isa.Program, maxSteps int) map[int]softfloat.Flags {
	t.Helper()
	m := machine.New(p, 2<<20)
	raised := make(map[int]softfloat.Flags)
	for i := 0; i < maxSteps; i++ {
		m.CPU.MXCSR.ClearFlags()
		idx := p.IndexOf(m.CPU.RIP)
		ev := m.Step()
		if fl := m.CPU.MXCSR.Flags(); fl != 0 && idx >= 0 {
			raised[idx] |= fl
		}
		switch ev.(type) {
		case *machine.HaltEvent:
			return raised
		case *machine.FaultEvent:
			return raised
		case *machine.CallCEvent:
			// No libc in these tests; treat as a no-op return.
		}
	}
	t.Fatalf("program %s did not halt in %d steps", p.Name, maxSteps)
	return nil
}

// checkAgainstConcrete asserts the static May covers every concretely
// raised condition and that Must conditions were actually raised.
func checkAgainstConcrete(t *testing.T, res *Result, raised map[int]softfloat.Flags) {
	t.Helper()
	for idx, fl := range raised {
		site := res.SiteAt(res.Prog.AddrOf(idx))
		if site == nil {
			t.Errorf("inst %d raised %v but is not a site", idx, fl)
			continue
		}
		if !site.Reachable {
			t.Errorf("inst %d (%s) raised %v but classified unreachable", idx, site.Op, fl)
		}
		if excess := fl &^ site.May; excess != 0 {
			t.Errorf("inst %d (%s): raised %v, static may=%v (unsound: %v)", idx, site.Op, fl, site.May, excess)
		}
		if miss := site.Must &^ fl; miss != 0 {
			t.Errorf("inst %d (%s): must=%v but only %v raised", idx, site.Op, site.Must, fl)
		}
	}
}

func TestConcreteStraightLine(t *testing.T) {
	b := isa.NewBuilder("straight")
	consts := b.Float64s(1.0, 2.0, 3.0, 0.0)
	b.Movi(isa.R1, int64(consts))
	b.Fld(isa.X1, isa.R1, 0)                   // 1.0
	b.Fld(isa.X2, isa.R1, 8)                   // 2.0
	b.Fld(isa.X3, isa.R1, 24)                  // 0.0
	b.FP2(isa.OpADDSD, isa.X4, isa.X1, isa.X2) // 1+2 = 3, exact
	b.FP2(isa.OpDIVSD, isa.X5, isa.X1, isa.X3) // 1/0: divide-by-zero
	b.FP2(isa.OpDIVSD, isa.X6, isa.X1, isa.X2) // 1/2 = 0.5, exact
	b.FP1(isa.OpSQRTSD, isa.X7, isa.X2)        // sqrt(2): inexact
	b.Hlt()
	p := b.Build()

	res := Analyze(p)
	checkAgainstConcrete(t, res, runConcrete(t, p, 1000))

	addSite := res.SiteAt(p.AddrOf(4))
	if addSite == nil || addSite.May != 0 {
		t.Fatalf("addsd of exact constants: may=%v, want 0", addSite.May)
	}
	if !addSite.Prunable {
		t.Error("exact addsd should be prunable")
	}
	divZero := res.SiteAt(p.AddrOf(5))
	if divZero.VerdictFor(softfloat.FlagDivideByZero) != MustTrap {
		t.Errorf("1/0: ZE verdict = %v, want must", divZero.VerdictFor(softfloat.FlagDivideByZero))
	}
	divHalf := res.SiteAt(p.AddrOf(6))
	if divHalf.May != 0 || !divHalf.Prunable {
		t.Errorf("1/2 exact: may=%v prunable=%v", divHalf.May, divHalf.Prunable)
	}
	sqrt2 := res.SiteAt(p.AddrOf(7))
	if sqrt2.VerdictFor(softfloat.FlagInexact) != MustTrap {
		t.Errorf("sqrt(2): PE verdict = %v, want must", sqrt2.VerdictFor(softfloat.FlagInexact))
	}
	if sqrt2.Prunable {
		t.Error("sqrt site must not be prunable (inexact raises)")
	}
}

func TestCallcHavocsState(t *testing.T) {
	b := isa.NewBuilder("havoc")
	consts := b.Float64s(1.0)
	b.Movi(isa.R1, int64(consts))
	b.Fld(isa.X1, isa.R1, 0)
	b.CallC("rand") // havoc: X1 unknown afterward
	b.FP2(isa.OpADDSD, isa.X2, isa.X1, isa.X1)
	b.FP2(isa.OpDIVSD, isa.X3, isa.X1, isa.X1)
	b.Hlt()
	p := b.Build()

	res := Analyze(p)
	add := res.SiteAt(p.AddrOf(3))
	if add.VerdictFor(softfloat.FlagInvalid) != MayTrap {
		t.Errorf("add of unknown: IE = %v, want may", add.VerdictFor(softfloat.FlagInvalid))
	}
	if add.May&softfloat.FlagDivideByZero != 0 {
		t.Error("addition can never raise divide-by-zero")
	}
	if add.Prunable {
		t.Error("unknown-operand add must not be prunable")
	}
	div := res.SiteAt(p.AddrOf(4))
	if div.VerdictFor(softfloat.FlagDivideByZero) != MayTrap {
		t.Errorf("x/x of unknown: ZE = %v, want may", div.VerdictFor(softfloat.FlagDivideByZero))
	}
}

func TestLdmxcsrDisablesPruning(t *testing.T) {
	b := isa.NewBuilder("envvary")
	consts := b.Float64s(1.0, 2.0)
	ctl := b.Words(0x1F80)
	b.Movi(isa.R1, int64(consts))
	b.Movi(isa.R2, int64(ctl))
	b.Ldmxcsr(isa.R2, 0)
	b.Fld(isa.X1, isa.R1, 0)
	b.Fld(isa.X2, isa.R1, 8)
	b.FP2(isa.OpADDSD, isa.X3, isa.X1, isa.X2)
	b.Hlt()
	p := b.Build()

	res := Analyze(p)
	if !res.EnvVaries {
		t.Fatal("reachable ldmxcsr should set EnvVaries")
	}
	if res.PrunableCount() != 0 {
		t.Errorf("prunable count = %d with varying env, want 0", res.PrunableCount())
	}
	// The add of 1.0+2.0 is exact under every rounding mode, so even the
	// all-environments analysis proves it quiet.
	add := res.SiteAt(p.AddrOf(5))
	if add.May != 0 {
		t.Errorf("exact add across all envs: may=%v, want 0", add.May)
	}
	checkAgainstConcrete(t, res, runConcrete(t, p, 1000))
}

func TestBranchPruning(t *testing.T) {
	b := isa.NewBuilder("deadbranch")
	consts := b.Float64s(1.0, 0.0)
	dead := b.Label("dead")
	done := b.Label("done")
	b.Movi(isa.R1, 7)
	b.Movi(isa.R2, int64(consts))
	b.Fld(isa.X1, isa.R2, 0)
	b.Fld(isa.X2, isa.R2, 8)
	b.Beq(isa.R1, isa.R0, dead) // 7 == 0: never taken
	b.Jmp(done)
	b.Bind(dead)
	b.FP2(isa.OpDIVSD, isa.X3, isa.X1, isa.X2) // 1/0, statically dead
	b.Bind(done)
	b.Hlt()
	p := b.Build()

	res := Analyze(p)
	div := res.SiteAt(p.AddrOf(6))
	if div.Reachable {
		t.Error("dead-branch division should be pruned by concrete branch evaluation")
	}
	if div.May != 0 || !div.Prunable {
		t.Errorf("dead site: may=%v prunable=%v", div.May, div.Prunable)
	}
	checkAgainstConcrete(t, res, runConcrete(t, p, 1000))
}

func TestLoopWidensAndTerminates(t *testing.T) {
	b := isa.NewBuilder("loop")
	consts := b.Float64s(1.0, 1e308)
	loop := b.Label("loop")
	b.Movi(isa.R1, 100)
	b.Movi(isa.R2, int64(consts))
	b.Fld(isa.X1, isa.R2, 0) // 1.0
	b.Fld(isa.X2, isa.R2, 8) // 1e308
	b.Bind(loop)
	b.FP2(isa.OpADDSD, isa.X3, isa.X3, isa.X2) // accumulates toward overflow
	b.Addi(isa.R1, isa.R1, -1)
	b.Bne(isa.R1, isa.R0, loop)
	b.Hlt()
	p := b.Build()

	res := Analyze(p) // must terminate (widening)
	add := res.SiteAt(p.AddrOf(4))
	if add.May&softfloat.FlagOverflow == 0 {
		t.Errorf("accumulating 1e308: may=%v, want overflow possible", add.May)
	}
	checkAgainstConcrete(t, res, runConcrete(t, p, 10000))
}

func TestSingles(t *testing.T) {
	b := isa.NewBuilder("singles")
	consts := b.Float32s(1.5, 2.5, float32(math.Pi))
	b.Movi(isa.R1, int64(consts))
	b.Flds(isa.X1, isa.R1, 0)
	b.Flds(isa.X2, isa.R1, 4)
	b.Flds(isa.X3, isa.R1, 8)
	b.FP2(isa.OpADDSS, isa.X4, isa.X1, isa.X2) // 1.5+2.5 = 4, exact
	b.FP2(isa.OpMULSS, isa.X5, isa.X1, isa.X3) // 1.5*pi: inexact
	b.Cvt(isa.OpCVTSS2SD, isa.X6, isa.X3)      // exact widening
	b.Cvt(isa.OpCVTTSS2SI, isa.R3, isa.X3)     // 3.14 -> 3: inexact
	b.Hlt()
	p := b.Build()

	res := Analyze(p)
	checkAgainstConcrete(t, res, runConcrete(t, p, 1000))

	add := res.SiteAt(p.AddrOf(4))
	if add.May != 0 || !add.Prunable {
		t.Errorf("exact addss: may=%v prunable=%v", add.May, add.Prunable)
	}
	mul := res.SiteAt(p.AddrOf(5))
	if mul.VerdictFor(softfloat.FlagInexact) != MustTrap {
		t.Errorf("1.5*pi: PE = %v, want must", mul.VerdictFor(softfloat.FlagInexact))
	}
	widen := res.SiteAt(p.AddrOf(6))
	if widen.May != 0 {
		t.Errorf("cvtss2sd of normal: may=%v, want 0", widen.May)
	}
	if widen.Prunable {
		t.Error("converts are not prunable (plain arithmetic only)")
	}
	toInt := res.SiteAt(p.AddrOf(7))
	if toInt.VerdictFor(softfloat.FlagInexact) != MustTrap {
		t.Errorf("cvttss2si pi: PE = %v, want must", toInt.VerdictFor(softfloat.FlagInexact))
	}
}

func TestDenormAndCompare(t *testing.T) {
	b := isa.NewBuilder("denorm")
	consts := b.Float64s(5e-324, 1.0)
	b.Movi(isa.R1, int64(consts))
	b.Fld(isa.X1, isa.R1, 0) // denormal
	b.Fld(isa.X2, isa.R1, 8)
	b.FP2(isa.OpMULSD, isa.X3, isa.X1, isa.X2) // denorm operand: DE
	b.Ucomi(isa.OpUCOMISD, isa.R3, isa.X1, isa.X2)
	b.Hlt()
	p := b.Build()

	res := Analyze(p)
	checkAgainstConcrete(t, res, runConcrete(t, p, 1000))

	mul := res.SiteAt(p.AddrOf(3))
	if mul.VerdictFor(softfloat.FlagDenormal) != MustTrap {
		t.Errorf("denorm*1: DE = %v, want must", mul.VerdictFor(softfloat.FlagDenormal))
	}
	cmp := res.SiteAt(p.AddrOf(4))
	if cmp.VerdictFor(softfloat.FlagDenormal) != MustTrap {
		t.Errorf("ucomi denorm: DE = %v, want must", cmp.VerdictFor(softfloat.FlagDenormal))
	}
	if cmp.May&softfloat.FlagInvalid != 0 {
		t.Error("ucomi of non-NaN constants cannot raise Invalid")
	}
}

func TestAddressTakenRootIsHavocked(t *testing.T) {
	b := isa.NewBuilder("roots")
	handler := b.Label("handler")
	consts := b.Float64s(1.0, 2.0)
	b.Movi(isa.R1, int64(consts))
	b.Fld(isa.X1, isa.R1, 0)
	b.Fld(isa.X2, isa.R1, 8)
	b.Lea(isa.R4, handler) // address-taken root
	b.FP2(isa.OpADDSD, isa.X3, isa.X1, isa.X2)
	b.Hlt()
	b.Bind(handler)
	b.FP2(isa.OpADDSD, isa.X5, isa.X6, isa.X7) // unknown operands
	b.Hlt()
	p := b.Build()

	res := Analyze(p)
	// A handler can run at any time and store to memory, so the initial
	// image is untrusted from entry on: the constant loads go to top and
	// the main-path add becomes may-trap.
	mainAdd := res.SiteAt(p.AddrOf(4))
	if mainAdd.VerdictFor(softfloat.FlagInvalid) != MayTrap {
		t.Errorf("main-path add with untrusted memory: IE = %v, want may", mainAdd.VerdictFor(softfloat.FlagInvalid))
	}
	if mainAdd.Prunable {
		t.Error("main-path add must not be prunable once memory is untrusted")
	}
	handlerAdd := res.SiteAt(p.AddrOf(6))
	if handlerAdd.VerdictFor(softfloat.FlagInvalid) != MayTrap {
		t.Errorf("handler add: IE = %v, want may (root state is havocked)", handlerAdd.VerdictFor(softfloat.FlagInvalid))
	}
	checkAgainstConcrete(t, res, runConcrete(t, p, 1000))
}

func TestMemoryInvalidationByStore(t *testing.T) {
	b := isa.NewBuilder("memstore")
	consts := b.Float64s(1.0, 2.0)
	b.Movi(isa.R1, int64(consts))
	b.Movi(isa.R2, 512)
	b.St(isa.R2, 0, isa.R1) // any store invalidates the initial image
	b.Fld(isa.X1, isa.R1, 0)
	b.FP2(isa.OpADDSD, isa.X2, isa.X1, isa.X1)
	b.Hlt()
	p := b.Build()

	res := Analyze(p)
	add := res.SiteAt(p.AddrOf(4))
	// After the store the load is unknown, so the add must be may-trap
	// for Invalid (NaN patterns can be loaded in principle).
	if add.VerdictFor(softfloat.FlagInvalid) != MayTrap {
		t.Errorf("post-store add: IE = %v, want may", add.VerdictFor(softfloat.FlagInvalid))
	}
	checkAgainstConcrete(t, res, runConcrete(t, p, 1000))
}

func TestPrunableAndCheckSoundness(t *testing.T) {
	b := isa.NewBuilder("prunable")
	consts := b.Float64s(1.0, 2.0)
	b.Movi(isa.R1, int64(consts))
	b.Fld(isa.X1, isa.R1, 0)
	b.Fld(isa.X2, isa.R1, 8)
	b.FP2(isa.OpADDSD, isa.X3, isa.X1, isa.X2) // exact: prunable
	b.FP1(isa.OpSQRTSD, isa.X4, isa.X2)        // inexact: not prunable
	b.Hlt()
	p := b.Build()

	res := Analyze(p)
	if !res.SiteAt(p.AddrOf(3)).Prunable {
		t.Error("the exact addsd should be prunable")
	}
	if res.SiteAt(p.AddrOf(4)).Prunable {
		t.Error("the sqrt must not be prunable")
	}
	if got := res.PrunableCount(); got != 1 {
		t.Errorf("prunable count = %d, want 1", got)
	}

	// A record raising Inexact at the sqrt site is consistent.
	ok := []trace.Record{{Rip: p.AddrOf(4), Raised: softfloat.FlagInexact}}
	if v := CheckSoundness(res, ok); len(v) != 0 {
		t.Errorf("consistent record flagged: %v", v)
	}
	// A record raising Invalid at the prunable add site is a violation.
	bad := []trace.Record{{Rip: p.AddrOf(3), Raised: softfloat.FlagInvalid}}
	v := CheckSoundness(res, bad)
	if len(v) != 1 || v[0].Excess != softfloat.FlagInvalid {
		t.Errorf("violation not detected: %v", v)
	}
	// A record at a non-site address is a violation too.
	stray := []trace.Record{{Rip: p.AddrOf(0), Raised: softfloat.FlagInexact}}
	if v := CheckSoundness(res, stray); len(v) != 1 {
		t.Errorf("stray-address record not flagged: %v", v)
	}
}

func TestAnalyzeIsCached(t *testing.T) {
	b := isa.NewBuilder("cached")
	b.FP2(isa.OpADDSD, isa.X1, isa.X1, isa.X2)
	b.Hlt()
	p := b.Build()
	r1 := Analyze(p)
	r2 := Analyze(p)
	if r1 != r2 {
		t.Error("Analyze should memoize per program")
	}
}

func TestFMAAndPacked(t *testing.T) {
	b := isa.NewBuilder("fma")
	consts := b.Float64s(1.5, 2.0, 3.0, 4.0)
	b.Movi(isa.R1, int64(consts))
	b.Fldv(isa.X1, isa.R1, 0)
	b.Fldv(isa.X2, isa.R1, 0)
	b.FMA(isa.OpVFMADDPD, isa.X3, isa.X1, isa.X2, isa.X1) // a*b+a, all lanes exact-able?
	b.FP2(isa.OpMULPD, isa.X4, isa.X1, isa.X2)
	b.Hlt()
	p := b.Build()

	res := Analyze(p)
	checkAgainstConcrete(t, res, runConcrete(t, p, 1000))
	mul := res.SiteAt(p.AddrOf(3))
	if mul == nil {
		t.Fatal("fma site missing")
	}
}
