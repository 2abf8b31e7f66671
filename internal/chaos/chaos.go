// Package chaos is a seeded, deterministic fault-injection harness for
// FPSpy. It generates adversarial guest programs — applications that
// install handlers for FPSpy's signals mid-storm, call into the fe*
// environment between exceptions, rewrite MXCSR directly with ldmxcsr,
// fork and spawn threads during exception bursts, or exit from inside a
// signal handler — and pairs them with kernel-level perturbations
// (delayed signal delivery, adversarial scheduling).
//
// The package is also the system's one differential oracle. Every
// transparency claim says that two runs of one program, configured
// apart in one respect, cannot be told apart: Verify runs the legs a
// set of Checks spans (engine, spy, shadow, trap set), Observe records
// what can be told of each run, and Check.Compare compares two runs,
// exempting only what the check names. The chaos sweep holds every
// scenario to the engine and spy checks; on top of that, each scenario
// declares which degradation — if any — the spy must record, with its
// typed reason, in the monitor log.
package chaos

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Family names one class of adversarial scenario.
type Family string

const (
	// FamilySignalStealer installs a SIGFPE/SIGTRAP handler between
	// exception bursts (expects signal-conflict abort, or absorbed
	// signal-fight events under an aggressive spy).
	FamilySignalStealer Family = "signal-stealer"
	// FamilyFEMeddler calls fe* routines mid-storm (expects fe-access).
	FamilyFEMeddler Family = "fe-meddler"
	// FamilyMXCSRStomper rewrites MXCSR via ldmxcsr, bypassing the fe*
	// interposition entirely (expects mxcsr-stomp).
	FamilyMXCSRStomper Family = "mxcsr-stomper"
	// FamilyThreadStorm spawns worker threads that fault concurrently,
	// with adversarial scheduling (expects no degradation).
	FamilyThreadStorm Family = "thread-storm"
	// FamilyForkBurst forks mid-storm; both processes keep faulting
	// (expects no degradation).
	FamilyForkBurst Family = "fork-burst"
	// FamilyHandlerExit takes over SIGFPE, unmasks an exception, and
	// exits from inside its own handler (expects signal-conflict or
	// fe-access, depending on seeded call order).
	FamilyHandlerExit Family = "handler-exit"
	// FamilyKernelChaos runs a temporal-sampling spy under delayed
	// signal delivery and scheduler jitter (expects no degradation).
	FamilyKernelChaos Family = "kernel-chaos"
	// FamilyTrapStorm exceeds the FPE_STORM watchdog threshold
	// (expects a trap-storm demotion).
	FamilyTrapStorm Family = "trap-storm"
)

// Families lists every scenario family in sweep order.
func Families() []Family {
	return []Family{
		FamilySignalStealer, FamilyFEMeddler, FamilyMXCSRStomper,
		FamilyThreadStorm, FamilyForkBurst, FamilyHandlerExit,
		FamilyKernelChaos, FamilyTrapStorm,
	}
}

// InjectSpec is a serializable description of kernel-level injection
// (kernel.Inject carries live rng state, so scenarios carry this
// instead and the runner instantiates a fresh injector per run).
type InjectSpec struct {
	Seed          int64
	DelayMax      uint64
	Shuffle       bool
	QuantumJitter bool
}

// Scenario is one generated adversarial run: a guest program, the spy
// configuration to attack, optional kernel perturbations, and the
// degradation the spy is expected to record.
type Scenario struct {
	Name   string
	Family Family
	Seed   int64
	// Config is the FPSpy configuration for spy-on runs.
	Config core.Config
	// Inject, when non-nil, enables kernel perturbations.
	Inject *InjectSpec
	// Prog is the adversarial guest.
	Prog *isa.Program
	// ExpectKind is the monitor-log entry the spy-on run must produce:
	// EventAbort, EventDemote, EventSignalFight, or "" for none.
	ExpectKind trace.MonitorEventKind
	// ExpectReason is the typed reason required on the expected
	// abort/demote entry.
	ExpectReason core.AbortReason
}

// Generate builds the scenario for one (family, seed) pair. The same
// pair always yields the same scenario.
func Generate(f Family, seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed*1_000_003 + familySalt(f)))
	sc := Scenario{Family: f, Seed: seed}
	switch f {
	case FamilySignalStealer:
		genSignalStealer(&sc, rng)
	case FamilyFEMeddler:
		genFEMeddler(&sc, rng)
	case FamilyMXCSRStomper:
		genMXCSRStomper(&sc, rng)
	case FamilyThreadStorm:
		genThreadStorm(&sc, rng)
	case FamilyForkBurst:
		genForkBurst(&sc, rng)
	case FamilyHandlerExit:
		genHandlerExit(&sc, rng)
	case FamilyKernelChaos:
		genKernelChaos(&sc, rng)
	case FamilyTrapStorm:
		genTrapStorm(&sc, rng)
	default:
		panic("chaos: unknown family " + string(f))
	}
	return sc
}

// familySalt decorrelates the rng streams of different families run
// with the same seed.
func familySalt(f Family) int64 {
	var h int64
	for _, c := range string(f) {
		h = h*131 + int64(c)
	}
	return h
}
