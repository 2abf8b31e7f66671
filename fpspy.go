// Package fpspy is a faithful reproduction, in pure Go, of FPSpy — the
// tool from "Spying on the Floating Point Behavior of Existing,
// Unmodified Scientific Applications" (Dinda, Bernat, Hetland; HPDC
// 2020) — together with the entire machine and OS substrate it needs.
//
// FPSpy observes the IEEE 754 condition codes that x64 hardware sets as a
// zero-cost side effect of every floating point instruction. In
// aggregate mode it reads the sticky codes once per thread lifetime; in
// individual mode it unmasks exceptions and captures a trace record for
// every faulting instruction using a classic user-level trap-and-emulate
// protocol (SIGFPE, then a single-step SIGTRAP). Because the Go runtime
// owns real signal delivery, this reproduction runs FPSpy underneath
// guest binaries on a simulated x64-subset machine with a bit-exact
// software FPU and a Linux-like kernel (signals, threads, LD_PRELOAD
// interposition) — the protocol, configuration surface, overheads, and
// failure modes are the paper's.
//
// Quick start:
//
//	prog := fpspy.NewProgram("demo")
//	// ... emit instructions (see examples/quickstart) ...
//	res, err := fpspy.Run(prog.Build(), fpspy.Options{
//		Config: fpspy.Config{Mode: fpspy.ModeIndividual},
//	})
//	for _, rec := range res.Store.AllRecords() { ... }
package fpspy

import (
	"fmt"
	"maps"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/shadow"
	"repro/internal/softfloat"
	"repro/internal/trace"
)

// Re-exported configuration types. Config is FPSpy's entire interface,
// mirroring the paper's environment variables.
type (
	// Config selects mode, filtering, and sampling (Figure 2's FPE_*).
	Config = core.Config
	// Mode is aggregate vs individual operation.
	Mode = core.Mode
	// Record is one individual-mode trace record.
	Record = trace.Record
	// Aggregate is one aggregate-mode per-thread record.
	Aggregate = trace.Aggregate
	// Flags is a set of IEEE 754 condition codes in x64 MXCSR layout.
	Flags = softfloat.Flags
	// Program is an assembled guest program.
	Program = isa.Program
	// Builder assembles guest programs.
	Builder = isa.Builder
	// Store collects traces across processes and threads.
	Store = core.Store
	// ThreadKey identifies one traced thread.
	ThreadKey = core.ThreadKey
	// MonitorEvent is one entry of FPSpy's robustness monitor log.
	MonitorEvent = trace.MonitorEvent
	// DegradeState is FPSpy's degradation level.
	DegradeState = core.DegradeState
	// AbortReason types why FPSpy degraded.
	AbortReason = core.AbortReason
	// RootCauseReport ranks FP instruction sites by introduced rounding
	// error (from a run with Config.ShadowPrec set).
	RootCauseReport = analysis.RootCauseReport
	// RootCauseSite is one attributed instruction site.
	RootCauseSite = analysis.RootCauseSite
)

// Re-exported mode and flag constants.
const (
	ModeAggregate  = core.ModeAggregate
	ModeIndividual = core.ModeIndividual

	FlagInvalid      = softfloat.FlagInvalid
	FlagDenormal     = softfloat.FlagDenormal
	FlagDivideByZero = softfloat.FlagDivideByZero
	FlagOverflow     = softfloat.FlagOverflow
	FlagUnderflow    = softfloat.FlagUnderflow
	FlagInexact      = softfloat.FlagInexact
	AllEvents        = core.AllEvents

	// MinShadowPrec/MaxShadowPrec bound Config.ShadowPrec (FPE_SHADOW).
	MinShadowPrec = core.MinShadowPrec
	MaxShadowPrec = core.MaxShadowPrec
)

// Re-exported degradation states and typed abort reasons.
const (
	StateIndividual = core.StateIndividual
	StateAggregate  = core.StateAggregate
	StateDetached   = core.StateDetached

	AbortSignalConflict = core.AbortSignalConflict
	AbortFEAccess       = core.AbortFEAccess
	AbortMXCSRStomp     = core.AbortMXCSRStomp
	AbortForeignTrap    = core.AbortForeignTrap
	AbortTrapStorm      = core.AbortTrapStorm
)

// NewProgram returns a builder for a guest program.
func NewProgram(name string) *Builder { return isa.NewBuilder(name) }

// DefaultMemBytes is the guest memory size a Run gets when
// Options.MemBytes is zero: 16 MiB.
const DefaultMemBytes = 16 << 20

// Options configures a Run.
type Options struct {
	// Config is FPSpy's configuration. Leave Disable set and Mode zero
	// to run the program without FPSpy attached (the baseline).
	Config Config
	// NoSpy runs without FPSpy in LD_PRELOAD at all.
	NoSpy bool
	// MemBytes is the logical size of guest memory (DefaultMemBytes
	// when zero): every address below it is valid and every address at
	// or above it faults. Pages are allocated only when the guest first
	// writes them.
	MemBytes int
	// MaxSteps bounds the run's executions, counted as Result.Steps
	// counts them (default 500M).
	MaxSteps uint64
	// Env adds extra environment variables to the guest.
	Env map[string]string
	// NoFastPath forces the precise single-step engine, the reference
	// the default superblock engine is checked against (the
	// reproducibility suite and the engine differentials run both and
	// require identical guest-visible behavior and traces).
	NoFastPath bool
	// Inject, when non-nil, perturbs kernel scheduling (seeded shuffle,
	// quantum jitter, signal delay) without changing guest semantics —
	// the adversarial-schedule axis of the reproducibility suite.
	Inject *kernel.Inject
	// Obs, when non-nil, receives observability data (metrics and trace
	// events) from the kernel, machine, and spy. Leave nil
	// (obs.Disabled) for a run with instrumentation compiled out; the
	// simulated execution is bit-identical either way.
	Obs *obs.Metrics
}

// Result is the outcome of running a program under (or without) FPSpy.
type Result struct {
	// Store holds every trace FPSpy produced.
	Store *Store
	// Steps counts executions over every task: each retired
	// instruction, plus each execution that raised an event without
	// retiring, such as an FP fault (the instruction executes again
	// after its trap) or a hlt. An unsampled individual-mode run retires
	// the instructions its spy-off run retires; its Steps are larger by
	// its number of records.
	Steps uint64
	// UserCycles and SysCycles aggregate over all tasks of the initial
	// process.
	UserCycles, SysCycles uint64
	// WallCycles is the kernel's wall clock at completion.
	WallCycles uint64
	// ExitCode is the initial process's exit status.
	ExitCode int
	// Kern exposes the kernel for advanced inspection.
	Kern *kernel.Kernel
	// Proc is the initial process.
	Proc *kernel.Process
	// TraceErr is always nil: a trace lives in the store, and appending
	// to it cannot fail. It stays declared only because the benchmark
	// reads it.
	TraceErr error
}

// Run executes prog to completion under the simulated kernel, with FPSpy
// attached via LD_PRELOAD unless opts.NoSpy is set. The Config's FPE_*
// variables override same-named entries of opts.Env.
func Run(prog *Program, opts Options) (*Result, error) {
	store := core.NewStore()
	env := map[string]string{}
	maps.Copy(env, opts.Env)
	if opts.NoSpy {
		return launch(prog, opts, store, env, "", nil)
	}
	maps.Copy(env, opts.Config.EnvVars())
	return launch(prog, opts, store, env, core.PreloadName, core.Factory(store, opts.Obs))
}

// launch is the set-up Run and RunMitigated share: a kernel configured
// from opts, preload registered under name when non-nil, and prog
// spawned with env and run to completion, its traces going to store.
func launch(prog *Program, opts Options, store *Store, env map[string]string, name string, preload kernel.ObjectFactory) (*Result, error) {
	if opts.MemBytes == 0 {
		opts.MemBytes = DefaultMemBytes
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 500_000_000
	}
	k := kernel.New()
	k.NoFastPath = opts.NoFastPath
	k.Inject = opts.Inject
	k.Obs = opts.Obs
	if preload != nil {
		k.RegisterPreload(name, preload)
	}
	p, err := k.Spawn(prog, opts.MemBytes, env)
	if err != nil {
		return nil, err
	}
	steps := k.Run(opts.MaxSteps)
	if !p.Exited {
		return nil, fmt.Errorf("fpspy: %s did not finish within %d steps", prog.Name, opts.MaxSteps)
	}
	user, sys := p.ProcessTimes()
	return &Result{
		Store:      store,
		Steps:      steps,
		UserCycles: user,
		SysCycles:  sys,
		WallCycles: k.Cycles,
		ExitCode:   p.ExitCode,
		Kern:       k,
		Proc:       p,
	}, nil
}

// RootCause assembles the ranked shadow attribution report from a run
// with Config.ShadowPrec > 0, labeled with that precision. It returns
// nil when no site was shadow-executed (or shadowing was off).
func (r *Result) RootCause(prec uint64) *RootCauseReport {
	sites := r.Store.ShadowSites()
	if len(sites) == 0 {
		return nil
	}
	return analysis.BuildRootCause(prec, sites)
}

// MitigationStats aggregates what the Section 6 mitigator did during a
// mitigated run.
type MitigationStats = shadow.MitigationStats

// RunMitigated executes prog with the Section 6 mitigator's
// trap-and-emulate flavor in LD_PRELOAD instead of FPSpy: rounding
// instructions in its repertoire (shadow.Emulable) are emulated by a
// software FPU of the given mantissa precision, with results written
// back through the signal context. opts applies as in Run (Config and
// NoSpy aside), and opts.Env overrides the mitigator's LD_PRELOAD.
func RunMitigated(prog *Program, prec uint, opts Options) (*Result, *MitigationStats, error) {
	env := map[string]string{"LD_PRELOAD": shadow.TrapPreloadName}
	maps.Copy(env, opts.Env)
	stats := &MitigationStats{}
	res, err := launch(prog, opts, core.NewStore(), env, shadow.TrapPreloadName, shadow.TrapFactory(prec, stats))
	if err != nil {
		return nil, nil, err
	}
	return res, stats, nil
}

// Aggregates returns the aggregate-mode records.
func (r *Result) Aggregates() []Aggregate { return r.Store.Aggregates() }

// Records is Store.AllRecords with an error that is always nil. It
// stays only because the benchmark calls it; read Store.AllRecords.
func (r *Result) Records() ([]Record, error) { return r.Store.AllRecords(), nil }

// EventSet ORs all condition codes observed, from whichever mode ran.
// It reads the in-memory records in place; it copies none.
func (r *Result) EventSet() Flags {
	f := r.Store.Raised()
	for _, a := range r.Store.Aggregates() {
		f |= a.Flags
	}
	return f
}

// Mnemonic returns the instruction mnemonic for a trace record (the
// paper's analysis scripts decode instruction bytes; the simulator keeps
// the opcode in the record).
func Mnemonic(rec *Record) string {
	return isa.Opcode(rec.Opcode).String()
}
