package fpspy_test

// Microbenchmarks of one layer each: the soft FPU's scalar ops and lane
// kernels, the spy's per-event path, the shadow-precision channel and
// the Section 6 mitigator (go test -run '^$' -bench . -benchmem .).
// `fpstudy -only N` regenerates the paper's figures, internal/study's
// TestGoldenStudyOutput pins them and checks their claims, and bench/
// measures the system end to end.

import (
	"math"
	"runtime"
	"strconv"
	"testing"

	fpspy "repro"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/shadow"
	"repro/internal/softfloat"
)

// BenchmarkSpyCore measures the end-to-end cost of one traced floating
// point event (fault, record, single-step, restore).
func BenchmarkSpyCore(b *testing.B) {
	prog := buildEventProgram(2000)
	spy := func() {
		res, err := fpspy.Run(prog, fpspy.Options{
			Config: fpspy.Config{Mode: fpspy.ModeIndividual},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Store.Recorded == 0 {
			b.Fatal("no records")
		}
	}
	// Regression gate for the fast-path engine: before per-machine event
	// scratch and per-task signal scratch, each of the 2000 traced events
	// heap-allocated its event, siginfo, and mcontext (~12k allocs per
	// run). A run now makes about 135: the store, simulation setup and
	// the superblock region cache, a fixed cost per program shape, never
	// per event, region re-entry or chained branch. The ceiling leaves
	// headroom for those fixed costs but not for any per-event or
	// per-dispatch allocation creeping back in.
	if allocs := testing.AllocsPerRun(1, spy); allocs > 500 {
		b.Fatalf("spy core allocates %.0f times per run; per-event or per-region allocation has crept back in", allocs)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spy()
	}
}

// BenchmarkSoftFloatOps measures raw soft-FPU throughput.
func BenchmarkSoftFloatOps(b *testing.B) {
	env := softfloat.Env{RM: softfloat.RoundNearestEven}
	a := math.Float64bits(1.7)
	c := math.Float64bits(2.3)
	b.Run("Add64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, _ = softfloat.Add64(a, c, env)
			a = a&0x000FFFFFFFFFFFFF | 0x3FF0000000000000
		}
	})
	b.Run("Mul64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, _ = softfloat.Mul64(a, c, env)
			a = a&0x000FFFFFFFFFFFFF | 0x3FF0000000000000
		}
	})
	b.Run("Div64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, _ = softfloat.Div64(a, c, env)
			a = a&0x000FFFFFFFFFFFFF | 0x3FF0000000000000
		}
	})
	b.Run("FMA64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, _ = softfloat.FMA64(a, c, a, env)
			a = a&0x000FFFFFFFFFFFFF | 0x3FF0000000000000
		}
	})
	b.Run("Sqrt64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, _ = softfloat.Sqrt64(a, env)
			a = a&0x000FFFFFFFFFFFFF | 0x3FF0000000000000
		}
	})
}

// BenchmarkSoftFloatLanes compares per-lane scalar dispatch (what the
// machine's packed path did before lane batching: one exported-function
// call and flag merge per lane) against the lane kernels, per lane
// width; the binary32 kernel works on the packed register words. The
// per-lane rounding work is identical by construction
// (softfloat's TestLanesMatchScalar pins the kernels to the scalar ops
// bit for bit).
func BenchmarkSoftFloatLanes(b *testing.B) {
	env := softfloat.Env{RM: softfloat.RoundNearestEven}

	a64 := make([]uint64, isa.VecWords)
	c64 := make([]uint64, isa.VecWords)
	d64 := make([]uint64, isa.VecWords)
	for i := range a64 {
		a64[i] = math.Float64bits(0.1 + float64(i)*0.3)
		c64[i] = math.Float64bits(0.2 + float64(i)*0.7)
	}
	b.Run("width64/scalar", func(b *testing.B) {
		var fl softfloat.Flags
		for i := 0; i < b.N; i++ {
			for l := range d64 {
				z, f := softfloat.Add64(a64[l], c64[l], env)
				d64[l] = z
				fl |= f
			}
		}
		_ = fl
	})
	b.Run("width64/lanes", func(b *testing.B) {
		var fl softfloat.Flags
		for i := 0; i < b.N; i++ {
			fl |= softfloat.Lanes64(softfloat.OpAdd, d64, a64, c64, c64, 1<<len(d64)-1, env)
		}
		_ = fl
	})

	lanes32 := 2 * isa.VecWords
	a32 := make([]uint32, lanes32)
	c32 := make([]uint32, lanes32)
	d32 := make([]uint32, lanes32)
	aw := make([]uint64, isa.VecWords)
	cw := make([]uint64, isa.VecWords)
	dw := make([]uint64, isa.VecWords)
	for i := range a32 {
		a32[i] = math.Float32bits(0.1 + float32(i)*0.3)
		c32[i] = math.Float32bits(0.2 + float32(i)*0.7)
		aw[i/2] |= uint64(a32[i]) << (32 * uint(i%2))
		cw[i/2] |= uint64(c32[i]) << (32 * uint(i%2))
	}
	b.Run("width32/scalar", func(b *testing.B) {
		var fl softfloat.Flags
		for i := 0; i < b.N; i++ {
			for l := range d32 {
				z, f := softfloat.Add32(a32[l], c32[l], env)
				d32[l] = z
				fl |= f
			}
		}
		_ = fl
	})
	b.Run("width32/lanes", func(b *testing.B) {
		var fl softfloat.Flags
		for i := 0; i < b.N; i++ {
			fl |= softfloat.Lanes32(softfloat.OpAdd, dw, aw, cw, cw, 1<<lanes32-1, env)
		}
		_ = fl
	})
}

// BenchmarkSection6MitigationFlavors validates the feasibility model's
// prediction empirically: the binary-patching mitigator (one kernel
// crossing per rounding event, no FP unmasking) beats the
// trap-and-emulate mitigator (SIGFPE per event) on the same kernel,
// with identical numerical results. The p113 leg runs the software FPU
// in the fixed-width number system, the p256 leg in big.Float; each
// reports its host ns and heap allocations per emulated instruction,
// both flavors' runs included.
func BenchmarkSection6MitigationFlavors(b *testing.B) {
	const n = 20000
	prog := func() *fpspy.Program {
		pb := fpspy.NewProgram("mitig-bench")
		pb.Movi(6, int64(math.Float64bits(0.1)))
		pb.Movqx(1, 6)
		pb.Movqx(0, 0)
		pb.Movi(8, 0)
		pb.Movi(9, n)
		top := pb.Label("top")
		pb.Bind(top)
		pb.FP2(isa.OpADDSD, 0, 0, 1)
		pb.Addi(8, 8, 1)
		pb.Blt(8, 9, top)
		pb.Movi(10, 128)
		pb.Fst(10, 0, 0)
		pb.Hlt()
		return pb.Build()
	}
	sites, err := shadow.ProfileRoundingSites(prog(), 1<<21, 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	for _, prec := range []uint{113, 256} {
		b.Run("p"+strconv.FormatUint(uint64(prec), 10), func(b *testing.B) {
			var trapWall, patchWall float64
			var trapRes, patchRes, emulated uint64
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			for i := 0; i < b.N; i++ {
				res, stats, err := fpspy.RunMitigated(prog(), prec, fpspy.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if stats.Emulated == 0 {
					b.Fatal("trap flavor emulated nothing")
				}
				trapWall = float64(res.WallCycles)
				trapRes = readU64(res.Proc.Mem, 128)

				k := kernel.New()
				pstats := &shadow.MitigationStats{}
				k.RegisterPreload(shadow.PatchedPreloadName, shadow.PatchedFactory(prec, sites, pstats))
				p, err := k.Spawn(prog(), 1<<21, map[string]string{"LD_PRELOAD": shadow.PatchedPreloadName})
				if err != nil {
					b.Fatal(err)
				}
				k.Run(100_000_000)
				if !p.Exited {
					b.Fatal("patched run stuck")
				}
				patchWall = float64(k.Cycles)
				patchRes = readU64(p.Mem, 128)
				emulated += stats.Emulated + pstats.Emulated
			}
			runtime.ReadMemStats(&ms1)
			if trapRes != patchRes {
				b.Errorf("flavors disagree: %#x vs %#x", trapRes, patchRes)
			}
			speedup := trapWall / patchWall
			b.ReportMetric(speedup, "patch-speedup-x")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(emulated), "ns/emulated")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(emulated), "allocs/emulated")
			if speedup <= 1.0 {
				b.Errorf("patching did not win: %.3f", speedup)
			}
		})
	}
}

func readU64(mem *machine.Memory, off uint64) uint64 {
	v, _ := mem.Load64(off)
	return v
}

// BenchmarkShadowOverhead measures what the shadow-precision channel
// (FPE_SHADOW) costs on a rounding-heavy guest, swept across the
// precisions a root-cause study actually uses: off, binary64-matching
// 53, binary128 113, and an oversampled 256. Every shadowed lane is
// evaluated in the fixed-width number system up to 113 bits and in
// big.Float above (the 256 leg), so the legs price both paths. Each
// shadowed leg reports its host ns and heap allocations per shadowed
// lane; they include the unshadowed run's share, which the off leg
// shows. The off leg is the baseline the shadow differential suite
// proves bit-identical.
func BenchmarkShadowOverhead(b *testing.B) {
	// 2000 iterations of add/mul/div over values that round on every op.
	prog := func() *fpspy.Program {
		pb := fpspy.NewProgram("shadow-bench")
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
		pb.Addi(isa.R2, isa.R2, 1)
		pb.Blt(isa.R2, isa.R3, loop)
		pb.Hlt()
		return pb.Build()
	}()
	for _, prec := range []uint64{0, 53, 113, 256} {
		name := "off"
		if prec != 0 {
			name = "prec" + strconv.FormatUint(prec, 10)
		}
		b.Run(name, func(b *testing.B) {
			var lanes uint64
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			for i := 0; i < b.N; i++ {
				res, err := fpspy.Run(prog, fpspy.Options{
					Config: fpspy.Config{Mode: fpspy.ModeIndividual, ShadowPrec: prec},
				})
				if err != nil {
					b.Fatal(err)
				}
				rc := res.RootCause(prec)
				if prec == 0 && rc != nil {
					b.Fatal("shadow-off run attributed sites")
				}
				if prec != 0 && rc == nil {
					b.Fatal("shadow run attributed nothing")
				}
				if rc != nil {
					lanes += rc.TotalOps
				}
			}
			runtime.ReadMemStats(&ms1)
			if lanes > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(lanes), "ns/lane")
				b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(lanes), "allocs/lane")
			}
		})
	}
}
