package fpspy_test

import (
	"testing"

	fpspy "repro"
	"repro/internal/binscan/absint"
	"repro/internal/chaos"
	"repro/internal/study"
	"repro/internal/workload"
)

// TestWorkloadStaticSoundness runs every study workload in individual
// mode and cross-checks each dynamically recorded trap against the
// abstract interpreter's verdicts: a raised condition at a site
// classified never-trap is a hard failure. This is the corpus-wide
// soundness gate for the static verifier.
func TestWorkloadStaticSoundness(t *testing.T) {
	corpus(t, func(t *testing.T, prog *fpspy.Program) {
		res := absint.Analyze(prog)
		legs := verify(t, prog, fpspy.Config{Mode: fpspy.ModeIndividual})
		for _, v := range absint.CheckSoundness(res, legs[0].Records) {
			t.Errorf("%s", v)
		}
	})
}

// TestWorkloadEngineDifferential is the engine check on real numerics:
// every workload runs in individual mode, unsampled and under the
// study's virtual-timer Poisson sampling, whose timers cut the budgets
// that clamp a counted self-loop's fast-forward. The chaos families
// are the adversarial half (TestChaosSweep).
func TestWorkloadEngineDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped in -short")
	}
	corpus(t, func(t *testing.T, prog *fpspy.Program) {
		for _, cfg := range []fpspy.Config{{Mode: fpspy.ModeIndividual}, study.SampledConfig()} {
			verify(t, prog, cfg, chaos.Engine)
		}
	})
}

// TestWorkloadSuperblockDifferential is the engine check in aggregate
// mode, where the spy takes no per-instruction traps and superblock
// regions run longest.
func TestWorkloadSuperblockDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped in -short")
	}
	corpus(t, func(t *testing.T, prog *fpspy.Program) {
		verify(t, prog, fpspy.Config{Mode: fpspy.ModeAggregate}, chaos.Engine)
	})
}

// TestWorkloadPruneDifferential is the trap-set check on real numerics:
// every workload runs in individual mode with every condition unmasked
// and again with only the conditions mayRaise finds possible.
func TestWorkloadPruneDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped in -short")
	}
	corpus(t, func(t *testing.T, prog *fpspy.Program) {
		cfg := fpspy.Config{Mode: fpspy.ModeIndividual, ExceptList: fpspy.AllEvents}
		verify(t, prog, cfg, chaos.TrapSet(fpspy.AllEvents&mayRaise(prog)))
	})
}

// TestWorkloadStepsCountExecutions pins what Result.Steps counts: an
// unsampled individual-mode run passes the spy check against its
// spy-off run, so every task retires the same instructions, and its
// Steps exceed the spy-off run's by exactly its record count, one
// faulting execution per trap.
func TestWorkloadStepsCountExecutions(t *testing.T) {
	corpus(t, func(t *testing.T, prog *fpspy.Program) {
		legs := verify(t, prog, fpspy.Config{Mode: fpspy.ModeIndividual}, chaos.Spy)
		spy, bare := legs[0], legs[1]
		if spy.Steps-bare.Steps != uint64(len(spy.Records)) {
			t.Fatalf("%d steps with the spy, %d without, %d records", spy.Steps, bare.Steps, len(spy.Records))
		}
	})
}

// mayRaise is the set of conditions the abstract interpreter finds
// possible at some reachable site of prog.
func mayRaise(prog *fpspy.Program) fpspy.Flags {
	var may fpspy.Flags
	for _, s := range absint.Analyze(prog).Sites {
		if s.Reachable {
			may |= s.May
		}
	}
	return may
}

// corpus runs body on every workload at SizeSmall, one parallel subtest
// each.
func corpus(t *testing.T, body func(t *testing.T, prog *fpspy.Program)) {
	for _, w := range workload.All() {
		t.Run(w.Meta.Name, func(t *testing.T) {
			t.Parallel()
			body(t, w.Build(workload.SizeSmall))
		})
	}
}

// verify runs prog under cfg through the oracle's checks and returns
// the legs.
func verify(t *testing.T, prog *fpspy.Program, cfg fpspy.Config, checks ...chaos.Check) []*chaos.Observation {
	t.Helper()
	legs, err := chaos.Verify(prog, func() fpspy.Options { return fpspy.Options{Config: cfg} }, checks...)
	if err != nil {
		t.Fatal(err)
	}
	return legs
}
