package main

// Attribution legs of the traced run. After the timed operations, the
// workload's own programs are replayed one layer configuration at a
// time — no spy, individual mode, aggregate mode, shadowed, mitigated —
// and the differences between legs attribute host time to the layer
// each leg adds. Every leg is serial and runs with obs detached, so its
// time is the layer's and not the instrumentation's.

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	fpspy "repro"
	"repro/internal/binscan/absint"
	"repro/internal/isa"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/softfloat"
	"repro/internal/study"
	"repro/internal/workload"
)

// namedProgram is one built guest program.
type namedProgram struct {
	name string
	prog *isa.Program
}

// buildNamed builds registry workloads at one size.
func buildNamed(names []string, size workload.Size) []namedProgram {
	out := make([]namedProgram, 0, len(names))
	for _, n := range names {
		w, err := workload.ByName(n)
		if err != nil {
			panic(err) // the name lists are constants of this package
		}
		out = append(out, namedProgram{name: n, prog: w.Build(size)})
	}
	return out
}

// appNames are the study's seven applications.
func appNames() []string {
	var names []string
	for _, w := range workload.Apps() {
		names = append(names, w.Meta.Name)
	}
	return names
}

// shadowPrec is the shadow and mitigation precision every shadowed
// operation uses: binary128's mantissa, the fpspyd default.
const shadowPrec = 113

// trapConfig is unfiltered individual mode: every event, Inexact
// included, traps — the paper's worst case.
func trapConfig() fpspy.Config {
	return fpspy.Config{Mode: fpspy.ModeIndividual, ExceptList: fpspy.AllEvents}
}

// legResult carries the attribution legs' inputs and the per-program
// costs some workloads' own layer metrics need.
type legResult struct {
	progs []namedProgram
	// cellMS is each program's shadowed plus mitigated host time: the
	// cost of its root-cause matrix cell.
	cellMS map[string]float64
}

func buildPrograms(def workloadDef, c config, out map[string]float64) []namedProgram {
	start := time.Now()
	progs := def.programs(c)
	out["workload.build_ms"] = msSince(start)
	return progs
}

// analyzeCold times the static exception analysis of every program; it
// must run before anything else in the process analyzes them, since
// absint memoizes by program content.
func analyzeCold(progs []namedProgram, out map[string]float64) {
	start := time.Now()
	for _, p := range progs {
		absint.Analyze(p.prog)
	}
	out["absint.analyze_ms"] = msSince(start)
}

func runLegs(c config, legs *legResult, out map[string]float64) error {
	softfloatLeg(c.seed, out)
	if err := programLegs(legs, out); err != nil {
		return err
	}
	if c.workload != "service" {
		noServiceLayers(out)
		return nil
	}
	return cloneLegs(legs.progs, out)
}

// softfloatSink keeps the softfloat leg's results live.
var softfloatSink uint64

// softfloatLeg times the soft FPU's scalar binary64 operations over a
// seeded operand corpus, reporting the median of several passes.
func softfloatLeg(seed int64, out map[string]float64) {
	const n, passes, opsPerIter = 4096, 15, 5
	rng := rand.New(rand.NewSource(seed))
	operand := func() uint64 {
		return math.Float64bits((1 + rng.Float64()) * math.Ldexp(1, rng.Intn(64)-32))
	}
	a, b, c := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	for i := range a {
		a[i], b[i], c[i] = operand(), operand(), operand()
	}
	var env softfloat.Env
	var sink uint64
	perOp := make([]float64, passes)
	for pass := range perOp {
		start := time.Now()
		for rep := 0; rep < 4; rep++ {
			for i := 0; i < n; i++ {
				s, _ := softfloat.Add64(a[i], b[i], env)
				p, _ := softfloat.Mul64(s, c[i], env)
				q, _ := softfloat.Div64(p, b[i], env)
				f, _ := softfloat.FMA64(a[i], b[i], c[i], env)
				r, _ := softfloat.Sqrt64(a[i], env)
				sink += s ^ p ^ q ^ f ^ r
			}
		}
		perOp[pass] = float64(time.Since(start).Nanoseconds()) / (4 * n * opsPerIter)
	}
	out["softfloat.ns_per_op"] = median(perOp)
	softfloatSink = sink
}

// timed runs fn and returns its host time in nanoseconds.
func timed(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return float64(time.Since(start).Nanoseconds()), err
}

// median3 is timed over three runs of fn, keeping the median so that one
// disturbed run does not skew a layer's cost.
func median3(fn func() error) (float64, error) {
	ns := make([]float64, 3)
	for i := range ns {
		var err error
		if ns[i], err = timed(fn); err != nil {
			return 0, err
		}
	}
	return median(ns), nil
}

// programLegs replays each program under each layer configuration: the
// cheap legs three times each, the shadowed and mitigated ones once.
func programLegs(legs *legResult, out map[string]float64) error {
	var noSpyNS, steps, indNS, decodeNS, recs, aggNS, aggAllocs float64
	var shadowNS, shadowAllocs, shadowOps, mitNS, emulated float64
	legs.cellMS = map[string]float64{}
	om := obs.New(obs.Options{})
	for _, p := range legs.progs {
		var res *fpspy.Result
		ns, err := median3(func() (err error) {
			res, err = fpspy.Run(p.prog, fpspy.Options{NoSpy: true})
			return err
		})
		if err != nil {
			return fmt.Errorf("%s without the spy: %w", p.name, err)
		}
		noSpyNS += ns
		steps += float64(res.Steps)

		if ns, err = median3(func() (err error) {
			res, err = fpspy.Run(p.prog, fpspy.Options{Config: trapConfig()})
			return err
		}); err != nil {
			return fmt.Errorf("%s in individual mode: %w", p.name, err)
		}
		indNS += ns
		var rs []fpspy.Record
		if ns, err = median3(func() (err error) {
			rs, err = res.Records()
			return err
		}); err != nil {
			return fmt.Errorf("%s record decode: %w", p.name, err)
		}
		decodeNS += ns
		recs += float64(len(rs))
		// The same run once more with obs attached, for the trap
		// protocol's own counts and latency.
		if _, err := fpspy.Run(p.prog, fpspy.Options{Config: trapConfig(), Obs: om}); err != nil {
			return fmt.Errorf("%s in individual mode under obs: %w", p.name, err)
		}

		rt0 := readRuntime()
		if ns, err = median3(func() error {
			_, err := fpspy.Run(p.prog, fpspy.Options{Config: study.AggregateConfig()})
			return err
		}); err != nil {
			return fmt.Errorf("%s in aggregate mode: %w", p.name, err)
		}
		aggNS += ns
		aggAllocs += (readRuntime().AllocObjects - rt0.AllocObjects) / 3

		rt0 = readRuntime()
		if ns, err = timed(func() (err error) {
			res, err = fpspy.Run(p.prog, fpspy.Options{Config: study.ShadowConfig(shadowPrec)})
			return err
		}); err != nil {
			return fmt.Errorf("%s shadowed: %w", p.name, err)
		}
		shadowNS += ns
		shadowAllocs += readRuntime().AllocObjects - rt0.AllocObjects
		if rc := res.RootCause(shadowPrec); rc != nil {
			shadowOps += float64(rc.TotalOps)
		}
		cellNS := ns

		var stats *fpspy.MitigationStats
		if ns, err = timed(func() (err error) {
			_, stats, err = fpspy.RunMitigated(p.prog, shadowPrec, fpspy.Options{})
			return err
		}); err != nil {
			return fmt.Errorf("%s mitigated: %w", p.name, err)
		}
		mitNS += ns
		emulated += float64(stats.Emulated)
		legs.cellMS[p.name] = (cellNS + ns) / 1e6
	}

	c := countsOf(om.Snapshot())
	faults := c.C[obs.NameSpyFaults]
	signals := c.C[obs.KernelSignalCounterName(8)] + c.C[obs.KernelSignalCounterName(5)] // SIGFPE, SIGTRAP
	out["machine.ns_per_inst"] = ratio(noSpyNS, steps)
	out["core.ns_per_trap"] = ratio(indNS-noSpyNS, faults)
	out["core.protocol_ns_mean"] = ratio(c.Sum["spy.protocol-ns"], c.Count["spy.protocol-ns"])
	out["kernel.signals_per_fault"] = ratio(signals, faults)
	out["trace.decode_ns_per_rec"] = ratio(decodeNS, recs)
	out["shadow.ns_per_op"] = ratio(shadowNS-aggNS, shadowOps)
	out["shadow.allocs_per_op"] = ratio(shadowAllocs-aggAllocs, shadowOps)
	out["adaptive.ns_per_emulated"] = ratio(mitNS-noSpyNS, emulated)
	if faults == 0 || signals != 2*faults {
		return fmt.Errorf("trap protocol delivered %v signals for %v faults, want exactly 2 per fault", signals, faults)
	}
	return nil
}

// cloneMemBytes is the guest memory a captured clone requests (the
// fpspy.Run default).
const cloneMemBytes = 16 << 20

// cloneLegs times the service path's per-clone work outside HTTP:
// encoding a clone, decoding (and validating) it, and hashing its
// content address.
func cloneLegs(progs []namedProgram, out map[string]float64) error {
	const reps = 20
	var encNS, decNS, keyNS float64
	for _, p := range progs {
		j := jobs.Capture(p.name, p.prog, nil, cloneMemBytes)
		for r := 0; r < reps; r++ {
			var blob []byte
			ns, err := timed(func() (err error) {
				blob, err = j.Encode()
				return err
			})
			if err != nil {
				return err
			}
			encNS += ns
			var dec *jobs.Job
			if ns, err = timed(func() (err error) {
				dec, err = jobs.Decode(blob)
				return err
			}); err != nil {
				return err
			}
			decNS += ns
			ns, _ = timed(func() error {
				server.CacheKey(dec, study.SampledConfig())
				return nil
			})
			keyNS += ns
		}
	}
	n := float64(len(progs) * reps)
	out["jobs.encode_us"] = encNS / 1e3 / n
	out["jobs.decode_us"] = decNS / 1e3 / n
	out["server.cachekey_us"] = keyNS / 1e3 / n
	return nil
}
