package shadow_test

import (
	"math"
	"math/big"
	"testing"

	fpspy "repro"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mxcsr"
	"repro/internal/shadow"
	"repro/internal/softfloat"
	"repro/internal/workload"
)

// buildNaiveSum sums `inc` n times into x0 and stores the result at 128.
func buildNaiveSum(n int64, inc float64) *fpspy.Program {
	b := fpspy.NewProgram("naive-sum")
	b.Movi(isa.R6, int64(math.Float64bits(inc)))
	b.Movqx(isa.X1, isa.R6)
	b.Movqx(isa.X0, isa.R0)
	b.Movi(isa.R8, 0)
	b.Movi(isa.R9, n)
	top := b.Label("top")
	b.Bind(top)
	b.FP2(isa.OpADDSD, isa.X0, isa.X0, isa.X1)
	b.Addi(isa.R8, isa.R8, 1)
	b.Blt(isa.R8, isa.R9, top)
	b.Movi(isa.R10, 128)
	b.Fst(isa.R10, 0, isa.X0)
	b.Hlt()
	return b.Build()
}

func sumAt128(res *fpspy.Result) float64 {
	return math.Float64frombits(readF64(res.Proc.Mem, 128))
}

func TestMitigatedSummationIsMoreAccurate(t *testing.T) {
	const n = 50000
	exact := float64(n) * 0.1

	plain, err := fpspy.Run(buildNaiveSum(n, 0.1), fpspy.Options{NoSpy: true})
	if err != nil {
		t.Fatal(err)
	}
	mitigated, stats, err := fpspy.RunMitigated(buildNaiveSum(n, 0.1), 256, fpspy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plainErr := math.Abs(sumAt128(plain) - exact)
	mitErr := math.Abs(sumAt128(mitigated) - exact)
	// The first two additions (0+0.1 and 0.1+0.1) are exact and never
	// trap.
	if stats.Emulated < n-2 {
		t.Errorf("emulated = %d, want ~%d", stats.Emulated, n)
	}
	if stats.Improved == 0 {
		t.Error("no instruction's result improved")
	}
	if mitErr >= plainErr {
		t.Errorf("mitigated error %.3e not better than plain %.3e", mitErr, plainErr)
	}
	// The mitigated sum is correctly rounded from a 256-bit running sum:
	// within one ulp of exact.
	if mitErr > exact*1e-15 {
		t.Errorf("mitigated error %.3e too large", mitErr)
	}
	t.Logf("plain err %.3e, mitigated err %.3e, emulated %d improved %d fallbacks %d",
		plainErr, mitErr, stats.Emulated, stats.Improved, stats.Fallbacks)
}

func TestMitigationValueThroughMemoryStaysCorrect(t *testing.T) {
	// A value that round-trips through memory loses its shadow but must
	// keep its (rounded) value: compute 1/3, store, reload, multiply by
	// 3, store. The final value must equal the hardware-consistent
	// chain's within an ulp — and critically must not be garbage from a
	// stale shadow.
	b := fpspy.NewProgram("memtrip")
	b.Movi(isa.R6, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R6)
	b.Movi(isa.R6, int64(math.Float64bits(3)))
	b.Movqx(isa.X1, isa.R6)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1) // 1/3 (emulated)
	b.Movi(isa.R10, 128)
	b.Fst(isa.R10, 0, isa.X2)
	// Clobber x2 with an unobserved move, then reload from memory.
	b.Movqx(isa.X2, isa.R0)
	b.Fld(isa.X2, isa.R10, 0)
	b.FP2(isa.OpMULSD, isa.X3, isa.X2, isa.X1) // (1/3)*3 (emulated)
	b.Movi(isa.R10, 136)
	b.Fst(isa.R10, 0, isa.X3)
	b.Hlt()
	res, stats, err := fpspy.RunMitigated(b.Build(), 256, fpspy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	read := func(off uint64) float64 {
		return math.Float64frombits(readF64(res.Proc.Mem, off))
	}
	third := read(128)
	product := read(136)
	if third != 1.0/3.0 {
		t.Errorf("stored third = %v", third)
	}
	// (1/3 rounded) * 3 at high precision rounds to exactly 1.0.
	if product != 1.0 && math.Abs(product-1.0) > 1e-15 {
		t.Errorf("product = %v", product)
	}
	if stats.Emulated < 2 {
		t.Errorf("emulated = %d", stats.Emulated)
	}
}

func TestMitigationFallbackKeepsProgress(t *testing.T) {
	// A packed (unsupported) rounding instruction must fall back to
	// single-stepping and still complete with the hardware result.
	b := fpspy.NewProgram("fallback")
	third := 1.0 / 3.0
	addr := b.Float64s(third, third, third, third)
	b.Movi(isa.R9, int64(addr))
	b.Fldv(isa.X0, isa.R9, 0)
	b.Fldv(isa.X1, isa.R9, 0)
	b.FP2(isa.OpMULPD, isa.X2, isa.X0, isa.X1) // packed: falls back
	b.FP2(isa.OpMULSD, isa.X3, isa.X0, isa.X1) // scalar: emulated
	b.Hlt()
	res, stats, err := fpspy.RunMitigated(b.Build(), 128, fpspy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("exit %d", res.ExitCode)
	}
	if stats.Fallbacks == 0 {
		t.Error("packed op did not fall back")
	}
	if stats.Emulated == 0 {
		t.Error("scalar op not emulated")
	}
	cpu := &res.Proc.Tasks[0].M.CPU
	wantAdd := math.Float64bits(third * third)
	wantMul := math.Float64bits(third * third)
	if cpu.X[isa.X2][0] != wantAdd || cpu.X[isa.X3][0] != wantMul {
		t.Errorf("results: packed %#x scalar %#x want %#x %#x",
			cpu.X[isa.X2][0], cpu.X[isa.X3][0], wantAdd, wantMul)
	}
}

func TestMitigatedThreads(t *testing.T) {
	// Both threads' rounding is mitigated independently.
	b := fpspy.NewProgram("threads")
	worker := b.Label("worker")
	b.Lea(isa.R1, worker)
	b.Movi(isa.R2, 0)
	b.CallC("pthread_create")
	b.Movi(isa.R6, int64(math.Float64bits(0.1)))
	b.Movqx(isa.X1, isa.R6)
	b.Movqx(isa.X0, isa.R0)
	for i := 0; i < 10; i++ {
		b.FP2(isa.OpADDSD, isa.X0, isa.X0, isa.X1)
	}
	// Wait for worker flag.
	b.Movi(isa.R7, 1024)
	wait := b.Label("wait")
	b.Bind(wait)
	b.Ld(isa.R6, isa.R7, 0)
	b.Beq(isa.R6, isa.R0, wait)
	b.Hlt()
	b.Bind(worker)
	b.Movi(isa.R6, int64(math.Float64bits(0.2)))
	b.Movqx(isa.X1, isa.R6)
	b.Movqx(isa.X0, isa.R0)
	for i := 0; i < 10; i++ {
		b.FP2(isa.OpADDSD, isa.X0, isa.X0, isa.X1)
	}
	b.Movi(isa.R3, 1024)
	b.Movi(isa.R4, 1)
	b.St(isa.R3, 0, isa.R4)
	b.CallC("pthread_exit")
	_, stats, err := fpspy.RunMitigated(b.Build(), 256, fpspy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A few early additions in each thread are exact and never trap.
	if stats.Emulated < 12 {
		t.Errorf("emulated = %d, want most of ~20 across both threads", stats.Emulated)
	}
}

func TestMitigationOnNASKernel(t *testing.T) {
	// The mitigator runs underneath a real study workload: the NAS CG
	// kernel completes, with the bulk of its scalar double rounding
	// emulated at 128-bit precision and no crashes from the mixed
	// scalar/convert instruction stream.
	w, err := workload.ByName("nas-cg")
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := fpspy.RunMitigated(w.Build(workload.SizeSmall), 128, fpspy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("exit %d", res.ExitCode)
	}
	if stats.Emulated == 0 {
		t.Error("nothing emulated")
	}
	t.Logf("nas-cg mitigated: %d emulated, %d improved, %d fallbacks",
		stats.Emulated, stats.Improved, stats.Fallbacks)
}

func TestMitigationOnMiniaeroCalibrated(t *testing.T) {
	// Miniaero's calibrated build mixes sqrt, divide, min/max and
	// conversions; min/max raise no rounding traps, everything else is
	// either emulated or single-stepped, and the run completes.
	res, stats, err := fpspy.RunMitigated(workload.BuildMiniaeroCalibrated(workload.SizeSmall), 256, fpspy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("exit %d", res.ExitCode)
	}
	if stats.Emulated == 0 {
		t.Error("nothing emulated")
	}
}

func TestPatchedMitigatorEmulatesAtSites(t *testing.T) {
	// Profile the summation kernel, patch its rounding site, and run
	// with the binary-patching mitigator: same accuracy as
	// trap-and-emulate, but with permanent stubs and no FP unmasking.
	const n = 20000
	prog := buildNaiveSum(n, 0.1)
	sites, err := shadow.ProfileRoundingSites(prog, 1<<21, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 1 {
		t.Fatalf("profiled sites = %d, want the single addsd", len(sites))
	}

	k := kernel.New()
	stats := &shadow.MitigationStats{}
	k.RegisterPreload(shadow.PatchedPreloadName, shadow.PatchedFactory(256, sites, stats))
	p, err := k.Spawn(buildNaiveSum(n, 0.1), 1<<21,
		map[string]string{"LD_PRELOAD": shadow.PatchedPreloadName})
	if err != nil {
		t.Fatal(err)
	}
	k.Run(50_000_000)
	if !p.Exited || p.ExitCode != 0 {
		t.Fatalf("exited=%v code=%d", p.Exited, p.ExitCode)
	}
	if stats.Emulated < n-1 {
		t.Errorf("emulated = %d, want ~%d", stats.Emulated, n)
	}
	// The patched run's result is the correctly rounded 256-bit sum.
	got := math.Float64frombits(readF64(p.Mem, 128))
	exact := float64(n) * 0.1
	if math.Abs(got-exact) > exact*1e-15 {
		t.Errorf("patched result %v, exact %v", got, exact)
	}
	// Unlike the trap flavor, the FPU stays masked: no SIGFPE handler
	// exists, and a rounding op at an *unpatched* site runs natively.
	if p.Handlers[kernel.SIGFPE] != nil {
		t.Error("patched mitigator should not hook SIGFPE")
	}
}

func TestPatchedMitigatorSelfHealsUnsupportedSites(t *testing.T) {
	// A packed instruction at a patched site cannot be emulated; the
	// mitigator must unpatch it and let the hardware proceed.
	b := fpspy.NewProgram("packed-site")
	third := 1.0 / 3.0
	addr := b.Float64s(third, third, third, third)
	b.Movi(isa.R9, int64(addr))
	b.Fldv(isa.X0, isa.R9, 0)
	b.Fldv(isa.X1, isa.R9, 0)
	b.FP2(isa.OpMULPD, isa.X2, isa.X0, isa.X1)
	b.Hlt()
	prog := b.Build()
	site := prog.AddrOf(3) // the mulpd

	k := kernel.New()
	stats := &shadow.MitigationStats{}
	k.RegisterPreload(shadow.PatchedPreloadName, shadow.PatchedFactory(128, []uint64{site}, stats))
	p, err := k.Spawn(prog, 1<<21, map[string]string{"LD_PRELOAD": shadow.PatchedPreloadName})
	if err != nil {
		t.Fatal(err)
	}
	k.Run(1_000_000)
	if !p.Exited || p.ExitCode != 0 {
		t.Fatalf("exited=%v code=%d", p.Exited, p.ExitCode)
	}
	if stats.Fallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", stats.Fallbacks)
	}
	want := math.Float64bits(third * third)
	if p.Tasks[0].M.CPU.X[isa.X2][0] != want {
		t.Errorf("mulpd result %#x, want %#x", p.Tasks[0].M.CPU.X[isa.X2][0], want)
	}
}

// readF64 reads the binary64 word at off of a guest's memory.
func readF64(mem *machine.Memory, off uint64) uint64 {
	v, _ := mem.Load64(off)
	return v
}

// noPanic runs f, turning a host panic into a test failure.
func noPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("host panic: %v", r)
		}
	}()
	f()
}

func TestMitigatorNonFiniteOperands(t *testing.T) {
	// Two patched sites in a two-iteration loop: p, a mulsd by 1 that
	// forwards the first operand, then s, the site under test. The first
	// visit hands s non-finite operands (or a zero divisor); s must write
	// back the IEEE result, raise its sticky flags, count as emulated
	// without improving anything, and stay patched. The second visit
	// hands s the 113-bit shadow of 0.1·3, so its emulated result
	// differs from the hardware's.
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name string
		op   isa.Opcode
		a, b float64 // first-visit operands of s
		fin  float64 // second-visit right operand of s
		flag softfloat.Flags
	}{
		{"mulsd NaN*2", isa.OpMULSD, nan, 2, 3, 0},
		{"subsd Inf-Inf", isa.OpSUBSD, inf, inf, 0.30000000000000004, softfloat.FlagInvalid},
		{"mulsd Inf*0", isa.OpMULSD, inf, 0, 3, softfloat.FlagInvalid},
		{"divsd 1/0", isa.OpDIVSD, 1, 0, 3, softfloat.FlagDivideByZero},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pb := fpspy.NewProgram("nonfinite")
			rows := pb.Float64s(tc.a, 1, tc.b, 0.1, 3, tc.fin)
			outs := pb.Float64s(0, 0, 0)
			pb.Movi(isa.R4, int64(rows))
			pb.Movi(isa.R10, int64(outs))
			pb.Movi(isa.R8, 0)
			pb.Movi(isa.R9, 2)
			top := pb.Label("top")
			pb.Bind(top)
			pb.Fld(isa.X5, isa.R4, 0)
			pb.Fld(isa.X6, isa.R4, 8)
			pb.Fld(isa.X1, isa.R4, 16)
			site := pb.Len()
			pb.FP2(isa.OpMULSD, isa.X0, isa.X5, isa.X6)
			pb.FP2(tc.op, isa.X2, isa.X0, isa.X1)
			pb.Fst(isa.R10, 0, isa.X2)
			pb.Addi(isa.R4, isa.R4, 24)
			pb.Addi(isa.R10, isa.R10, 8)
			pb.Addi(isa.R8, isa.R8, 1)
			pb.Blt(isa.R8, isa.R9, top)
			pb.Stmxcsr(isa.R10, 0)
			pb.Hlt()
			prog := pb.Build()

			plain, err := fpspy.Run(prog, fpspy.Options{NoSpy: true, MemBytes: 1 << 21})
			if err != nil {
				t.Fatal(err)
			}
			k := kernel.New()
			stats := &shadow.MitigationStats{}
			sites := []uint64{prog.AddrOf(site), prog.AddrOf(site + 1)}
			k.RegisterPreload(shadow.PatchedPreloadName, shadow.PatchedFactory(113, sites, stats))
			p, err := k.Spawn(prog, 1<<21, map[string]string{"LD_PRELOAD": shadow.PatchedPreloadName})
			if err != nil {
				t.Fatal(err)
			}
			noPanic(t, func() { k.Run(1_000_000) })
			if !p.Exited || p.ExitCode != 0 {
				t.Fatalf("exited=%v code=%d", p.Exited, p.ExitCode)
			}
			if got, want := readF64(p.Mem, outs), readF64(plain.Proc.Mem, outs); got != want {
				t.Errorf("first visit wrote %#x, want the IEEE result %#x", got, want)
			}
			if stats.Emulated != 4 || stats.Improved != 1 || stats.Fallbacks != 0 {
				t.Errorf("stats %+v, want 4 emulated, 1 improved (the second visit of s), 0 fallbacks", *stats)
			}
			if got := mxcsr.Reg(readF64(p.Mem, outs+16)).Flags(); got&tc.flag != tc.flag {
				t.Errorf("sticky flags %v, want %v raised", got, tc.flag)
			}
			x0 := new(big.Float).SetPrec(113).Mul(big.NewFloat(0.1), big.NewFloat(3))
			want := new(big.Float).SetPrec(113)
			switch tc.op {
			case isa.OpMULSD:
				want.Mul(x0, big.NewFloat(tc.fin))
			case isa.OpSUBSD:
				want.Sub(x0, big.NewFloat(tc.fin))
			case isa.OpDIVSD:
				want.Quo(x0, big.NewFloat(tc.fin))
			}
			wf, _ := want.Float64()
			if got, hw := readF64(p.Mem, outs+8), readF64(plain.Proc.Mem, outs+8); got != math.Float64bits(wf) || got == hw {
				t.Errorf("second visit wrote %#x, want the 113-bit result %#x (hardware %#x)", got, math.Float64bits(wf), hw)
			}
		})
	}
	t.Run("divsd 1/0 with DivideByZero unmasked", func(t *testing.T) {
		// The guest asked for the trap, so the mitigator leaves the
		// instruction to the hardware, which raises it; with no guest
		// handler the default action ends the process, as it does
		// without the mitigator. The patched flavor unpatches the site,
		// the trap flavor's single step faults.
		unmasked := mxcsr.Default
		unmasked.Unmask(softfloat.FlagDivideByZero)
		pb := fpspy.NewProgram("nonfinite-trap")
		env := pb.Words(uint64(unmasked))
		vals := pb.Float64s(1, 0, 0)
		pb.Movi(isa.R4, int64(env))
		pb.Ldmxcsr(isa.R4, 0)
		pb.Movi(isa.R4, int64(vals))
		pb.Fld(isa.X0, isa.R4, 0)
		pb.Fld(isa.X1, isa.R4, 8)
		site := pb.Len()
		pb.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1)
		pb.Fst(isa.R4, 16, isa.X2)
		pb.Hlt()
		prog := pb.Build()
		plain, err := fpspy.Run(prog, fpspy.Options{NoSpy: true, MemBytes: 1 << 21})
		if err != nil {
			t.Fatal(err)
		}
		want := 128 + int(kernel.SIGFPE)
		if plain.ExitCode != want {
			t.Fatalf("unmitigated exit code %d, want %d", plain.ExitCode, want)
		}

		k := kernel.New()
		stats := &shadow.MitigationStats{}
		k.RegisterPreload(shadow.PatchedPreloadName, shadow.PatchedFactory(113, []uint64{prog.AddrOf(site)}, stats))
		p, err := k.Spawn(prog, 1<<21, map[string]string{"LD_PRELOAD": shadow.PatchedPreloadName})
		if err != nil {
			t.Fatal(err)
		}
		k.Run(1_000_000)
		if !p.Exited || p.ExitCode != want {
			t.Errorf("patched: exited=%v code=%d, want %d", p.Exited, p.ExitCode, want)
		}
		if stats.Emulated != 0 || stats.Fallbacks != 1 {
			t.Errorf("patched: stats %+v, want the site left to the hardware", *stats)
		}

		res, tstats, err := fpspy.RunMitigated(prog, 113, fpspy.Options{MemBytes: 1 << 21, MaxSteps: 1_000_000})
		if err != nil {
			t.Fatalf("trap: %v", err)
		}
		if res.ExitCode != want || tstats.Emulated != 0 || tstats.Fallbacks != 1 {
			t.Errorf("trap: code=%d stats %+v, want %d and one fallback", res.ExitCode, *tstats, want)
		}
	})
	t.Run("sqrtsd ignores a NaN second register", func(t *testing.T) {
		// The trap flavor reads only the operands a form has: sqrtsd
		// built with a NaN in its unused second source register.
		pb := fpspy.NewProgram("sqrt-rs2")
		vals := pb.Float64s(2, nan, 0)
		pb.Movi(isa.R4, int64(vals))
		pb.Fld(isa.X1, isa.R4, 0)
		pb.Fld(isa.X0, isa.R4, 8)
		pb.FP2(isa.OpSQRTSD, isa.X2, isa.X1, isa.X0)
		pb.Fst(isa.R4, 16, isa.X2)
		pb.Hlt()
		var res *fpspy.Result
		var stats *fpspy.MitigationStats
		noPanic(t, func() {
			var err error
			res, stats, err = fpspy.RunMitigated(pb.Build(), 113, fpspy.Options{MemBytes: 1 << 21})
			if err != nil {
				t.Fatal(err)
			}
		})
		if stats.Emulated != 1 || stats.Fallbacks != 0 {
			t.Errorf("stats %+v, want the sqrtsd emulated", *stats)
		}
		if got := readF64(res.Proc.Mem, vals+16); got != math.Float64bits(math.Sqrt2) {
			t.Errorf("sqrt(2) = %#x, want %#x", got, math.Float64bits(math.Sqrt2))
		}
	})
}

func TestMitigatorFMAImprovedMatchesHardware(t *testing.T) {
	// Both scalar binary64 FMA forms on operands whose 113-bit result
	// rounds to the hardware's: no write-back differs, so none counts as
	// improved, whatever the sign variant.
	for _, op := range []isa.Opcode{isa.OpVFMADDSD, isa.OpVFNMSUBSD} {
		pb := fpspy.NewProgram("fma-improved")
		vals := pb.Float64s(0.1, 3, 0.7)
		pb.Movi(isa.R4, int64(vals))
		pb.Fld(isa.X0, isa.R4, 0)
		pb.Fld(isa.X1, isa.R4, 8)
		pb.Fld(isa.X2, isa.R4, 16)
		pb.FMA(op, isa.X3, isa.X0, isa.X1, isa.X2)
		pb.Hlt()
		prog := pb.Build()
		plain, err := fpspy.Run(prog, fpspy.Options{NoSpy: true, MemBytes: 1 << 21})
		if err != nil {
			t.Fatal(err)
		}
		res, stats, err := fpspy.RunMitigated(prog, 113, fpspy.Options{MemBytes: 1 << 21})
		if err != nil {
			t.Fatal(err)
		}
		got, hw := res.Proc.Tasks[0].M.CPU.X[isa.X3][0], plain.Proc.Tasks[0].M.CPU.X[isa.X3][0]
		if stats.Emulated != 1 || got != hw {
			t.Fatalf("%v: emulated %d, wrote %#x, hardware %#x", op, stats.Emulated, got, hw)
		}
		if stats.Improved != 0 {
			t.Errorf("%v: improved = %d for a result equal to the hardware's", op, stats.Improved)
		}
	}
}

// TestMitigatorAllocs is the allocation gate: at p = 113 the software
// FPU runs in the fixed-width number system, so a mitigated guest makes
// fewer than one heap allocation per emulated instruction.
func TestMitigatorAllocs(t *testing.T) {
	build := func() *fpspy.Program {
		pb := fpspy.NewProgram("mitig-allocs")
		pb.Movi(isa.R1, int64(math.Float64bits(0.1)))
		pb.Movqx(isa.X0, isa.R1)
		pb.Movi(isa.R1, int64(math.Float64bits(1.0000000001)))
		pb.Movqx(isa.X1, isa.R1)
		pb.Movi(isa.R1, int64(math.Float64bits(3)))
		pb.Movqx(isa.X5, isa.R1)
		pb.Movi(isa.R2, 0)
		pb.Movi(isa.R3, 2000)
		loop := pb.Label("loop")
		pb.Bind(loop)
		pb.FP2(isa.OpADDSD, isa.X2, isa.X2, isa.X0)
		pb.FP2(isa.OpMULSD, isa.X3, isa.X2, isa.X1)
		pb.FP2(isa.OpDIVSD, isa.X4, isa.X3, isa.X5)
		pb.FP1(isa.OpSQRTSD, isa.X6, isa.X4)
		pb.Addi(isa.R2, isa.R2, 1)
		pb.Blt(isa.R2, isa.R3, loop)
		pb.Hlt()
		return pb.Build()
	}
	var emulated uint64
	allocs := testing.AllocsPerRun(2, func() {
		_, stats, err := fpspy.RunMitigated(build(), 113, fpspy.Options{MemBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		emulated = stats.Emulated
	})
	if emulated < 7000 {
		t.Fatalf("emulated %d instructions, want most of the loop's 8000", emulated)
	}
	per := allocs / float64(emulated)
	t.Logf("%.0f allocations over %d emulated instructions: %.4f each", allocs, emulated, per)
	if per >= 1 {
		t.Errorf("%.2f allocations per emulated instruction, want < 1", per)
	}
}
