// Command fpspy runs a guest workload under the FPSpy reproduction,
// configured — exactly as the paper's tool is — through environment
// variables:
//
//	FPE_MODE=aggregate|individual  operating mode (default aggregate)
//	FPE_AGGRESSIVE=yes             don't step aside on incidental signal use
//	FPE_DISABLE=yes                load but do nothing
//	FPE_EXCEPT_LIST=a,b,...        events to capture (invalid, denorm,
//	                               divide, overflow, underflow, inexact)
//	FPE_MAXCOUNT=N                 per-thread record cap
//	FPE_SAMPLE=N | on:off          1-in-N or temporal sampling (us)
//	FPE_POISSON=yes                exponential on/off periods
//	FPE_TIMER=virtual|real         sampler time base
//	FPE_STORM=N:C                  trap-storm watchdog (N faults / C cycles)
//
// Usage:
//
//	FPE_MODE=individual fpspy [-size small|large] [-out DIR] [-nospy] <workload>
//	FPE_MODE=aggregate  fpspy -np 4 <workload>     # mpirun-style launch
//	fpspy -list
//
// With -np, the workload is launched as N ranks through the simulated
// mpirun; FPSpy attaches to every rank via the inherited environment and
// writes a trace per rank. Individual-mode traces are written to DIR as
// <pid>.<tid>.fpemon files (decode them with fptrace; analyze with
// fpanalyze).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	fpspy "repro"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/study"
	"repro/internal/workload"
)

func main() {
	list := flag.Bool("list", false, "list available workloads")
	size := flag.String("size", "large", "problem size: small or large")
	outDir := flag.String("out", "", "directory for binary trace files")
	noSpy := flag.Bool("nospy", false, "run without FPSpy attached (baseline)")
	np := flag.Int("np", 1, "number of MPI ranks to launch")
	validate := flag.Bool("validate", false, "run the paper's Section 5 validation matrix")
	metrics := flag.Bool("metrics", false, "collect observability metrics and print a summary after the run")
	traceOut := flag.String("traceout", "", "write a Chrome trace_event file of the run (implies -metrics)")
	pprofAddr := flag.String("pprof", "", "serve pprof and /metrics on this address (e.g. localhost:6060)")
	flag.Parse()

	var om *obs.Metrics
	if *metrics || *traceOut != "" || *pprofAddr != "" {
		om = obs.New(obs.Options{})
	}
	if *pprofAddr != "" {
		srv, err := obs.Serve(*pprofAddr, om)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpspy:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "fpspy: pprof and /metrics on http://%s\n", srv.Addr)
	}

	if *validate {
		runValidation()
		return
	}

	if *list {
		for _, w := range workload.All() {
			fmt.Printf("%-20s %-8s %s\n", w.Meta.Name, w.Meta.Suite, w.Meta.Problem)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fpspy [-list] [-size small|large] [-out DIR] [-nospy] <workload>")
		os.Exit(2)
	}
	sz, err := workload.ParseSize(*size)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpspy:", err)
		os.Exit(2)
	}
	w, err := workload.ByName(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpspy:", err)
		os.Exit(1)
	}

	// The configuration interface is the process environment, as in the
	// paper's Figure 2.
	env := map[string]string{}
	for _, key := range []string{"FPE_MODE", "FPE_AGGRESSIVE", "FPE_DISABLE",
		"FPE_EXCEPT_LIST", "FPE_MAXCOUNT", "FPE_SAMPLE", "FPE_POISSON", "FPE_TIMER",
		"FPE_STORM"} {
		if v, ok := os.LookupEnv(key); ok {
			env[key] = v
		}
	}
	cfg, err := core.ParseConfig(env)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpspy:", err)
		os.Exit(1)
	}

	if *np > 1 {
		runMPI(w, sz, cfg, *np, *noSpy, *outDir)
		return
	}

	res, err := fpspy.Run(w.Build(sz), fpspy.Options{Config: cfg, NoSpy: *noSpy, Obs: om})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpspy:", err)
		os.Exit(1)
	}

	wall := float64(res.WallCycles) / study.ClockHz
	user := float64(res.UserCycles) / study.ClockHz
	sys := float64(res.SysCycles) / study.ClockHz
	fmt.Printf("%s: exit %d, %d instructions, wall %.6fs user %.6fs sys %.6fs\n",
		w.Meta.Name, res.ExitCode, res.Steps, wall, user, sys)

	for _, a := range res.Aggregates() {
		fmt.Println(" ", a)
	}
	if res.Store.Recorded > 0 {
		fmt.Printf("  %d faults handled, %d records captured\n", res.Store.Faults, res.Store.Recorded)
	}
	if res.Store.StepAsides > 0 {
		fmt.Printf("  FPSpy got out of the way in %d process(es)\n", res.Store.StepAsides)
	}
	if res.TraceErr != nil {
		fmt.Fprintln(os.Stderr, "fpspy: trace flush:", res.TraceErr)
	}

	if *outDir != "" {
		writeTraces(res.Store, *outDir)
	}
	emitObs(om, *traceOut)
}

// emitObs prints the metrics summary and writes the Chrome trace file,
// when observability was enabled.
func emitObs(om *obs.Metrics, traceOut string) {
	if om == nil {
		return
	}
	fmt.Print(obs.RenderSummary(om.Snapshot()))
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpspy:", err)
			os.Exit(1)
		}
		if err := om.Tracer.ExportChromeTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, "fpspy:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "fpspy:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d trace events)\n", traceOut, om.Tracer.Emitted()-om.Tracer.Dropped())
	}
}

// writeTraces dumps every per-thread binary trace to dir, plus the
// robustness monitor log when it is non-empty.
func writeTraces(store *core.Store, dir string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "fpspy:", err)
		os.Exit(1)
	}
	for _, key := range store.Threads() {
		raw, err := store.RawTrace(key)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpspy:", err)
			os.Exit(1)
		}
		path := filepath.Join(dir, key.String())
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "fpspy:", err)
			os.Exit(1)
		}
		fmt.Printf("  wrote %s (%d records)\n", path, len(raw)/64)
	}
	if log := store.MonitorLog(); log != "" {
		path := filepath.Join(dir, "monitor.fplog")
		if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "fpspy:", err)
			os.Exit(1)
		}
		fmt.Printf("  wrote %s (%d events)\n", path, len(store.MonitorEvents()))
	}
}

// runMPI launches the workload as an MPI job with FPSpy in the
// launcher's environment.
func runMPI(w *workload.Workload, sz workload.Size, cfg core.Config, ranks int, noSpy bool, outDir string) {
	k := kernel.New()
	store := core.NewStore()
	env := map[string]string{}
	if !noSpy {
		k.RegisterPreload(core.PreloadName, core.Factory(store))
		env = cfg.EnvVars()
	}
	_, procs, err := mpi.Launch(k, w.Build(sz), ranks, 16<<20, env)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpspy:", err)
		os.Exit(1)
	}
	k.Run(2_000_000_000)
	fmt.Printf("mpirun -np %d %s:\n", ranks, w.Meta.Name)
	for i, p := range procs {
		if !p.Exited {
			fmt.Fprintf(os.Stderr, "fpspy: rank %d did not finish\n", i)
			os.Exit(1)
		}
		user, sys := p.ProcessTimes()
		fmt.Printf("  rank %d (pid %d): exit %d, user %.6fs sys %.6fs\n",
			i, p.PID, p.ExitCode,
			float64(user)/study.ClockHz, float64(sys)/study.ClockHz)
	}
	for _, a := range store.Aggregates() {
		fmt.Println(" ", a)
	}
	if store.Recorded > 0 {
		fmt.Printf("  %d faults handled, %d records captured across ranks\n", store.Faults, store.Recorded)
	}
	if outDir != "" {
		writeTraces(store, outDir)
	}
}

// runValidation reproduces the paper's Section 5 validation: programs
// producing every event, across execution models, in both modes.
func runValidation() {
	models := []struct {
		name  string
		model workload.ValidationModel
	}{
		{"single thread", workload.ModelSingle},
		{"multiple threads", workload.ModelThreads},
		{"multiple processes", workload.ModelProcesses},
		{"processes x threads", workload.ModelProcessesThreads},
		{"confounded with signals", workload.ModelWithSignals},
	}
	fmt.Println("validation matrix (events observed / threads traced):")
	for _, m := range models {
		for _, mode := range []fpspy.Mode{fpspy.ModeAggregate, fpspy.ModeIndividual} {
			res, err := fpspy.Run(workload.BuildValidation(m.model), fpspy.Options{
				Config: fpspy.Config{Mode: mode},
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "fpspy:", err)
				os.Exit(1)
			}
			traced := len(res.Aggregates())
			if mode == fpspy.ModeIndividual {
				traced = len(res.Store.Threads())
			}
			status := "PASS"
			if res.EventSet() != fpspy.AllEvents {
				status = "MISSING " + (fpspy.AllEvents &^ res.EventSet()).String()
			}
			fmt.Printf("  %-24s %-10v %v across %d thread(s): %s\n",
				m.name, mode, res.EventSet(), traced, status)
		}
	}
}
