package fpspy_test

// The benchmark harness regenerates every table and figure of the
// paper's evaluation. Run with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkFigureN measures the cost of regenerating that artifact
// and, under -v or test logging, emits the rendered table. Key scalar
// results (slowdowns, coverage counts) are reported as benchmark metrics
// so regressions in the *shape* of a result are visible in benchmark
// diffs. BenchmarkAblation* cover the design choices called out in
// DESIGN.md.

import (
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	fpspy "repro"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/shadow"
	"repro/internal/softfloat"
	"repro/internal/study"
	"repro/internal/trace"
	"repro/internal/workload"
)

// kernelDefaultCost exposes the kernel cost model for ablations.
func kernelDefaultCost() kernel.CostModel { return kernel.DefaultCostModel() }

// sharedStudy caches pass results across benchmarks so the full bench
// suite stays fast.
var (
	sharedStudy     *study.Study
	sharedStudyOnce sync.Once
)

func getStudy() *study.Study {
	sharedStudyOnce.Do(func() { sharedStudy = study.New() })
	return sharedStudy
}

// benchTable runs a figure generator b.N times and logs the rendering.
func benchTable(b *testing.B, gen func() (*study.Table, error)) *study.Table {
	b.Helper()
	var t *study.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = gen()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + t.Render())
	return t
}

// cell reads a table cell by row label and column name. The first
// matching header wins (Figure 8 has repeated mechanism groups).
func cell(t *study.Table, row, col string) string {
	ci := -1
	for i, h := range t.Header {
		if h == col {
			ci = i
			break
		}
	}
	if ci < 0 {
		return ""
	}
	for _, r := range t.Rows {
		if r[0] == row {
			return r[ci]
		}
	}
	return ""
}

func BenchmarkFigure6Overhead(b *testing.B) {
	s := getStudy()
	t := benchTable(b, s.Figure6)
	// Report the headline slowdowns as metrics.
	for _, r := range t.Rows {
		if strings.Contains(r[0], "50:100") {
			v, _ := strconv.ParseFloat(strings.TrimSuffix(r[len(r)-1], "x"), 64)
			b.ReportMetric(v, "max-slowdown-x")
		}
	}
}

func BenchmarkFigure7Inventory(b *testing.B) {
	s := getStudy()
	t := benchTable(b, s.Figure7)
	b.ReportMetric(float64(len(t.Rows)), "codes")
}

func BenchmarkFigure8SourceAnalysis(b *testing.B) {
	s := getStudy()
	t := benchTable(b, s.Figure8)
	// WRF is the only application with dynamic floating point control.
	if cell(t, "wrf", "fesetenv") != "T" {
		b.Error("WRF fesetenv reference missing")
	}
}

func BenchmarkFigure9Aggregate(b *testing.B) {
	s := getStudy()
	t := benchTable(b, s.Figure9)
	if cell(t, "enzo", "Invalid") != "T" || cell(t, "laghos", "DivideByZero") != "T" {
		b.Error("Figure 9 headline cells wrong")
	}
	if cell(t, "wrf", "Inexact") != "f" {
		b.Error("WRF row should be empty (FPSpy stepped aside)")
	}
}

func BenchmarkFigure10Parsec(b *testing.B) {
	s := getStudy()
	t := benchTable(b, s.Figure10)
	b.ReportMetric(float64(len(t.Rows)), "benchmarks")
}

func BenchmarkFigure11Filtered(b *testing.B) {
	s := getStudy()
	t := benchTable(b, s.Figure11)
	if cell(t, "miniaero", "Overflow") != "T" {
		b.Error("miniaero Overflow not captured by filtered tracing")
	}
}

func BenchmarkFigure12EnzoNaNs(b *testing.B) {
	s := getStudy()
	t := benchTable(b, s.Figure12)
	// The NaN rate must rise over the run (Figure 12's shape).
	first, _ := strconv.ParseFloat(t.Rows[0][1], 64)
	lastQuarter := t.Rows[3*len(t.Rows)/4]
	later, _ := strconv.ParseFloat(lastQuarter[1], 64)
	if later <= first {
		b.Errorf("NaN rate did not rise: %v -> %v", first, later)
	}
	b.ReportMetric(later/first, "rate-growth-x")
}

func BenchmarkFigure13LaghosBursts(b *testing.B) {
	s := getStudy()
	t := benchTable(b, s.Figure13)
	// Bursty: both zero bins and high-rate bins exist.
	zeros, busy := 0, 0
	for _, r := range t.Rows {
		v, _ := strconv.ParseFloat(r[1], 64)
		if v == 0 {
			zeros++
		} else {
			busy++
		}
	}
	if zeros == 0 || busy == 0 {
		b.Errorf("no burst structure: %d zero bins, %d busy bins", zeros, busy)
	}
	b.ReportMetric(float64(busy)/float64(zeros+busy), "burst-duty")
}

func BenchmarkFigure14Sampled(b *testing.B) {
	s := getStudy()
	t := benchTable(b, s.Figure14)
	// Sampling keeps the common events and misses the rare windows.
	if cell(t, "enzo", "Invalid") != "T" || cell(t, "laghos", "DivideByZero") != "T" {
		b.Error("sampling lost a persistent event class")
	}
	if cell(t, "miniaero", "Denorm") != "f" || cell(t, "gromacs", "Denorm") != "f" {
		b.Error("sampling should miss the one-shot denormal windows")
	}
	if cell(t, "wrf", "Inexact") != "T" {
		b.Error("WRF rounding should be visible under sampling")
	}
}

func BenchmarkFigure15InexactRates(b *testing.B) {
	s := getStudy()
	t := benchTable(b, s.Figure15)
	rate := func(name string) float64 {
		v, _ := strconv.ParseFloat(cell(t, name, "Inexact events/s"), 64)
		return v
	}
	// The paper's rate ordering: MOOSE and Miniaero at the top, GROMACS
	// at the bottom, LAMMPS and WRF in the low group.
	if rate("gromacs") >= rate("laghos") || rate("lammps") >= rate("laghos") {
		b.Error("rate ordering: low group not below laghos")
	}
	if rate("moose") <= rate("enzo") || rate("miniaero") <= rate("enzo") {
		b.Error("rate ordering: FEM/CFD codes should lead")
	}
	b.ReportMetric(rate("moose")/rate("gromacs"), "rate-spread-x")
}

func BenchmarkFigure16Cumulative(b *testing.B) {
	s := getStudy()
	t := benchTable(b, s.Figure16)
	// Cumulative counts are monotone by construction; verify growth.
	for _, r := range t.Rows {
		q1, _ := strconv.ParseFloat(r[1], 64)
		end, _ := strconv.ParseFloat(r[4], 64)
		if end < q1 || end == 0 {
			b.Errorf("%s: cumulative curve broken (%v .. %v)", r[0], q1, end)
		}
	}
}

func BenchmarkFigure17FormRank(b *testing.B) {
	s := getStudy()
	t := benchTable(b, s.Figure17)
	// The paper: fewer than 45 forms per code; a handful cover 99%.
	for _, r := range t.Rows {
		forms, _ := strconv.Atoi(r[2])
		cover, _ := strconv.Atoi(r[4])
		if forms >= 45 {
			b.Errorf("%s uses %d forms (>45)", r[0], forms)
		}
		if cover > 20 {
			b.Errorf("%s needs %d forms for 99%% coverage", r[0], cover)
		}
	}
}

func BenchmarkFigure18FormHistogram(b *testing.B) {
	s := getStudy()
	t := benchTable(b, s.Figure18)
	// GROMACS-only forms exist and no other single code contributes a
	// comparable private vocabulary.
	found := false
	for _, n := range t.Notes {
		if strings.Contains(n, "GROMACS-only forms") {
			found = true
			// The paper's headline: exactly 25 exclusive forms.
			if !strings.Contains(n, "GROMACS-only forms (25)") {
				b.Errorf("exclusive form count drifted: %s", n)
			}
			for _, f := range []string{"vdpps", "vfmaddps", "vucomiss", "vcvttss2si", "cvtsi2sdq", "vsqrtsd"} {
				if !strings.Contains(n, f) {
					b.Errorf("GROMACS-only list missing %s", f)
				}
			}
		}
	}
	if !found {
		b.Error("no GROMACS-only note")
	}
}

func BenchmarkFigure19AddressRank(b *testing.B) {
	s := getStudy()
	t := benchTable(b, s.Figure19)
	for _, r := range t.Rows {
		sites, _ := strconv.Atoi(r[1])
		cover, _ := strconv.Atoi(r[2])
		if sites >= 5000 {
			b.Errorf("%s has %d sites (>5000)", r[0], sites)
		}
		if cover > 100 {
			b.Errorf("%s needs %d sites for 99%%", r[0], cover)
		}
	}
}

func BenchmarkSection6Mitigation(b *testing.B) {
	s := getStudy()
	t := benchTable(b, s.Section6)
	// Locality should make patching win for every application.
	for _, r := range t.Rows {
		if r[len(r)-1] != "true" {
			b.Errorf("%s: patching does not win despite locality", r[0])
		}
	}
}

// --- Ablations (design choices from DESIGN.md) ---

// BenchmarkAblationFlagDetection compares the soft-float engine against
// a hardware-float + FMA-residual scheme for inexact detection (the
// alternative design for the FPU substrate).
func BenchmarkAblationFlagDetection(b *testing.B) {
	env := softfloat.Env{RM: softfloat.RoundNearestEven}
	xs := make([]uint64, 1024)
	for i := range xs {
		xs[i] = math.Float64bits(1.0 + float64(i)*0.3)
	}
	b.Run("softfloat", func(b *testing.B) {
		var flags softfloat.Flags
		for i := 0; i < b.N; i++ {
			a, c := xs[i%1024], xs[(i+7)%1024]
			_, fl := softfloat.Mul64(a, c, env)
			flags |= fl
		}
		_ = flags
	})
	b.Run("hw-residual", func(b *testing.B) {
		inexact := false
		for i := 0; i < b.N; i++ {
			a := math.Float64frombits(xs[i%1024])
			c := math.Float64frombits(xs[(i+7)%1024])
			p := a * c
			// Residual-based detection: exact iff fma(a,c,-p) == 0.
			inexact = math.FMA(a, c, -p) != 0 || inexact
		}
		_ = inexact
	})
}

// BenchmarkAblationTrapStrategy compares the single-event mechanisms:
// the TF single-step protocol, the *implemented* Section 3.8 breakpoint
// protocol (stub the next instruction with an invalid opcode), and a
// hypothetical one-crossing scheme modeled by zeroing the trap cost.
func BenchmarkAblationTrapStrategy(b *testing.B) {
	run := func(breakpoints, trapFree bool) float64 {
		opts := fpspy.Options{Config: fpspy.Config{
			Mode: fpspy.ModeIndividual, SampleOnUS: 50, SampleOffUS: 100,
			Poisson: true, VirtualTimer: true, Breakpoints: breakpoints,
		}}
		if trapFree {
			cm := kernelDefaultCost()
			cm.Trap = 0
			opts.CostModel = &cm
		}
		res, err := fpspy.Run(workload.BuildMiniaeroCalibrated(workload.SizeLarge), opts)
		if err != nil {
			b.Fatal(err)
		}
		return float64(res.WallCycles)
	}
	var tf, brk, oneCross float64
	for i := 0; i < b.N; i++ {
		tf = run(false, false)
		brk = run(true, false)
		oneCross = run(false, true)
	}
	b.ReportMetric(tf/oneCross, "two-vs-one-crossing-x")
	b.ReportMetric(brk/tf, "breakpoint-vs-tf-x")
	// Both real mechanisms take two kernel crossings per event; they
	// must cost the same to within scheduling noise.
	if brk/tf > 1.05 || brk/tf < 0.95 {
		b.Errorf("breakpoint protocol cost diverged: %.3f", brk/tf)
	}
}

// BenchmarkAblationSampling compares Poisson temporal sampling against
// deterministic 1-in-N subsampling at matched capture budgets: the
// temporal sampler preserves temporal structure, the subsampler
// preserves per-event-type proportions.
func BenchmarkAblationSampling(b *testing.B) {
	w, err := workload.ByName("laghos")
	if err != nil {
		b.Fatal(err)
	}
	var poisson, everyN int
	for i := 0; i < b.N; i++ {
		p, err := fpspy.Run(w.Build(workload.SizeLarge), fpspy.Options{
			Config: fpspy.Config{Mode: fpspy.ModeIndividual,
				SampleOnUS: 5, SampleOffUS: 100, Poisson: true, VirtualTimer: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		n, err := fpspy.Run(w.Build(workload.SizeLarge), fpspy.Options{
			Config: fpspy.Config{Mode: fpspy.ModeIndividual, SampleEvery: 20},
		})
		if err != nil {
			b.Fatal(err)
		}
		poisson = len(p.MustRecords())
		everyN = len(n.MustRecords())
	}
	b.ReportMetric(float64(poisson), "poisson-records")
	b.ReportMetric(float64(everyN), "subsample-records")
}

// BenchmarkAblationTraceWriter measures buffered record writing against
// per-record writes.
func BenchmarkAblationTraceWriter(b *testing.B) {
	rec := trace.Record{Time: 1, Rip: 2, Rsp: 3, TID: 4}
	b.Run("buffered", func(b *testing.B) {
		w := trace.NewWriter(discard{})
		for i := 0; i < b.N; i++ {
			rec.Seq = uint64(i)
			if err := w.Append(&rec); err != nil {
				b.Fatal(err)
			}
		}
		_ = w.Flush()
	})
	b.Run("unbuffered", func(b *testing.B) {
		var buf [trace.RecordSize]byte
		d := discard{}
		for i := 0; i < b.N; i++ {
			rec.Seq = uint64(i)
			rec.Encode(buf[:])
			if _, err := d.Write(buf[:]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

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
	// run). The run sits at ~141 allocs: store, trace buffer, simulation
	// setup, and the superblock region cache (one sbCache slice per machine plus one meta slice per
	// distinct region start, regions that start at a branch included — a
	// fixed cost per program shape, never per event, per region re-entry
	// or per chained branch). The ceiling leaves headroom for
	// those fixed costs but not for any per-event or per-dispatch
	// allocation creeping back in.
	if allocs := testing.AllocsPerRun(1, spy); allocs > 500 {
		b.Fatalf("spy core allocates %.0f times per run; per-event or per-region allocation has crept back in", allocs)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spy()
	}
}

// BenchmarkStudyFull regenerates the paper's entire evaluation from a
// cold cache, serially and on the parallel pass scheduler. The two
// produce byte-identical output (TestParallelStudyMatchesSerial); this
// measures what the scheduler buys in wall clock on multi-core hosts.
func BenchmarkStudyFull(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // one worker per CPU
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := study.NewWithWorkers(bc.workers)
				tables, err := s.All()
				if err != nil {
					b.Fatal(err)
				}
				if len(tables) != 15 {
					b.Fatalf("artifacts = %d, want 15", len(tables))
				}
			}
		})
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

// BenchmarkSection37Scaling reproduces the paper's Section 3.7 claim:
// FPSpy is embarrassingly parallel with a fixed overhead per thread, so
// per-thread cost stays flat as thread count grows.
func BenchmarkSection37Scaling(b *testing.B) {
	build := func(threads int) *fpspy.Program {
		pb := fpspy.NewProgram("scaling")
		worker := pb.Label("worker")
		for i := 0; i < threads; i++ {
			pb.Lea(1, worker)
			pb.Movi(2, int64(i))
			pb.CallC("pthread_create")
		}
		// Main waits for all workers via a shared counter.
		pb.Movi(7, 1024)
		wait := pb.Label("wait")
		pb.Bind(wait)
		pb.Ld(6, 7, 0)
		pb.Movi(5, int64(threads))
		pb.Bne(6, 5, wait)
		pb.Hlt()
		pb.Bind(worker)
		// Each worker produces 200 rounding events.
		pb.Movi(6, int64(math.Float64bits(1)))
		pb.Movqx(0, 6)
		pb.Movi(6, int64(math.Float64bits(3)))
		pb.Movqx(1, 6)
		pb.Movi(8, 0)
		pb.Movi(9, 200)
		top := pb.Label("top")
		pb.Bind(top)
		pb.FP2(isa.OpDIVSD, 2, 0, 1)
		pb.Addi(8, 8, 1)
		pb.Blt(8, 9, top)
		// count++ (single-writer increments are serialized by the
		// cooperative scheduler's quantum granularity; fine for a bench).
		pb.Movi(7, 1024)
		pb.Ld(6, 7, 0)
		pb.Addi(6, 6, 1)
		pb.St(7, 0, 6)
		pb.CallC("pthread_exit")
		return pb.Build()
	}
	perThread := map[int]float64{}
	for _, threads := range []int{1, 4, 16} {
		threads := threads
		res, err := fpspy.Run(build(threads), fpspy.Options{
			Config: fpspy.Config{Mode: fpspy.ModeIndividual},
		})
		if err != nil {
			b.Fatal(err)
		}
		if got := len(res.Store.Threads()); got != threads+1 {
			b.Fatalf("%d threads: traced %d", threads, got)
		}
		perThread[threads] = float64(res.SysCycles) / float64(threads)
	}
	for i := 0; i < b.N; i++ {
		_ = build(4)
	}
	ratio := perThread[16] / perThread[1]
	b.ReportMetric(ratio, "per-thread-cost-16v1-x")
	if ratio > 1.5 || ratio < 0.6 {
		b.Errorf("per-thread overhead not flat: 1->%0.f 16->%0.f cycles", perThread[1], perThread[16])
	}
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
