package fpspy_test

import (
	"reflect"
	"testing"

	fpspy "repro"
	"repro/internal/binscan/absint"
	"repro/internal/mxcsr"
	"repro/internal/study"
	"repro/internal/workload"
)

// TestWorkloadStaticSoundness runs every study workload in individual
// mode and cross-checks each dynamically recorded trap against the
// abstract interpreter's verdicts: a raised condition at a site
// classified never-trap is a hard failure. This is the corpus-wide
// soundness gate for the static verifier.
func TestWorkloadStaticSoundness(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Meta.Name, func(t *testing.T) {
			t.Parallel()
			prog := w.Build(workload.SizeSmall)
			res := absint.Analyze(prog)
			run, err := fpspy.Run(prog, fpspy.Options{
				Config: fpspy.Config{Mode: fpspy.ModeIndividual},
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			recs, err := run.Store.AllRecords()
			if err != nil {
				t.Fatalf("records: %v", err)
			}
			for _, v := range absint.CheckSoundness(res, recs) {
				t.Errorf("%s", v)
			}
		})
	}
}

// TestWorkloadEngineDifferential asserts the default engine does not
// change what the spy records on real numerics: the individual-mode run
// on the superblock fast path retires the same instructions, exits the
// same way, and records the same trace, record for record, as the
// precise single-step reference (Options.NoFastPath) — the corpus-wide
// half of the engine oracle (chaos.Verify covers the adversarial half).
// Each workload runs unsampled and under the study's virtual-timer
// Poisson sampling, whose timers cut the budgets that clamp a counted
// self-loop's fast-forward.
func TestWorkloadEngineDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped in -short")
	}
	for _, w := range workload.All() {
		w := w
		t.Run(w.Meta.Name, func(t *testing.T) {
			t.Parallel()
			prog := w.Build(workload.SizeSmall)
			for _, cfg := range []fpspy.Config{{Mode: fpspy.ModeIndividual}, study.SampledConfig()} {
				fast, fastRecs := runRecords(t, prog, fpspy.Options{Config: cfg})
				precise, preciseRecs := runRecords(t, prog, fpspy.Options{Config: cfg, NoFastPath: true})
				requireSameRun(t, "fast", "precise", fast, precise, fastRecs, preciseRecs, 0)
			}
		})
	}
}

// TestWorkloadSuperblockDifferential is the engine oracle in aggregate
// mode, where the spy takes no per-instruction traps and superblock
// regions run longest: on every workload the superblock engine must
// retire the same instructions, exit the same way, and leave the same
// aggregate records as the precise single-step reference.
func TestWorkloadSuperblockDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped in -short")
	}
	for _, w := range workload.All() {
		w := w
		t.Run(w.Meta.Name, func(t *testing.T) {
			t.Parallel()
			prog := w.Build(workload.SizeSmall)
			cfg := fpspy.Config{Mode: fpspy.ModeAggregate}
			fast, fastRecs := runRecords(t, prog, fpspy.Options{Config: cfg})
			precise, preciseRecs := runRecords(t, prog, fpspy.Options{Config: cfg, NoFastPath: true})
			requireSameRun(t, "fast", "precise", fast, precise, fastRecs, preciseRecs, 0)
		})
	}
}

// TestWorkloadPruneDifferential prunes the spy's trap set statically on
// real numerics: every workload runs in individual mode with every
// condition unmasked and again with only the conditions the abstract
// interpreter finds possible at some reachable site. A sound analysis
// makes the pruning invisible — same retired instructions, exit code
// and trace, record for record, except for the exception-mask field of
// each record's MXCSR, which is the trap set itself.
func TestWorkloadPruneDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped in -short")
	}
	for _, w := range workload.All() {
		w := w
		t.Run(w.Meta.Name, func(t *testing.T) {
			t.Parallel()
			prog := w.Build(workload.SizeSmall)
			var may fpspy.Flags
			for _, s := range absint.Analyze(prog).Sites {
				if s.Reachable {
					may |= s.May
				}
			}
			cfg := fpspy.Config{Mode: fpspy.ModeIndividual, ExceptList: fpspy.AllEvents}
			full, fullRecs := runRecords(t, prog, fpspy.Options{Config: cfg})
			cfg.ExceptList &= may
			pruned, prunedRecs := runRecords(t, prog, fpspy.Options{Config: cfg})
			requireSameRun(t, "full", "pruned", full, pruned, fullRecs, prunedRecs, uint32(mxcsr.MaskBits))
		})
	}
}

// runRecords runs prog and returns the run with its trace records.
func runRecords(t *testing.T, prog *fpspy.Program, opts fpspy.Options) (*fpspy.Result, []fpspy.Record) {
	t.Helper()
	run, err := fpspy.Run(prog, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	recs, err := run.Records()
	if err != nil {
		t.Fatalf("records: %v", err)
	}
	return run, recs
}

// requireSameRun fails unless runs a and b retired the same
// instructions, exited the same way, and recorded the same aggregates
// and trace, comparing each record's MXCSR outside the ignored bits.
func requireSameRun(t *testing.T, na, nb string, a, b *fpspy.Result, ra, rb []fpspy.Record, ignoreMXCSR uint32) {
	t.Helper()
	if a.Steps != b.Steps {
		t.Fatalf("retired %d %s vs %d %s", a.Steps, na, b.Steps, nb)
	}
	if a.ExitCode != b.ExitCode {
		t.Fatalf("exit %d %s vs %d %s", a.ExitCode, na, b.ExitCode, nb)
	}
	if ga, gb := a.Aggregates(), b.Aggregates(); !reflect.DeepEqual(ga, gb) {
		t.Fatalf("aggregate records differ:\n%s: %+v\n%s: %+v", na, ga, nb, gb)
	}
	if len(ra) != len(rb) {
		t.Fatalf("%d records %s vs %d %s", len(ra), na, len(rb), nb)
	}
	for i := range ra {
		x, y := ra[i], rb[i]
		x.MXCSR &^= ignoreMXCSR
		y.MXCSR &^= ignoreMXCSR
		if x != y {
			t.Fatalf("record %d differs:\n%s: %+v\n%s: %+v", i, na, ra[i], nb, rb[i])
		}
	}
}
