package chaos

import (
	"testing"

	"repro/internal/binscan/absint"
	"repro/internal/core"
	"repro/internal/mxcsr"
	"repro/internal/softfloat"
)

// TestPruneDifferential prunes the spy's trap set statically: every
// chaos family runs with every condition unmasked and again with only
// the conditions the abstract interpreter finds possible at some
// reachable site, on both engines. A sound analysis makes the pruning
// invisible: the guest-visible outcome — registers, memory, exit codes,
// retirement counts — the monitor events and the trace must be
// identical, except for the exception-mask field of each record's
// MXCSR, which is the trap set itself. Families whose programs may
// raise every condition prune nothing, so their two runs share one
// configuration.
func TestPruneDifferential(t *testing.T) {
	for _, f := range Families() {
		f := f
		t.Run(string(f), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 2; seed++ {
				sc := Generate(f, seed)
				sc.Config.Mode = core.ModeIndividual
				var may softfloat.Flags
				for _, s := range absint.Analyze(sc.Prog).Sites {
					if s.Reachable {
						may |= s.May
					}
				}
				for _, noFast := range []bool{false, true} {
					sc.Config.ExceptList = core.AllEvents
					full, err := runOnce(sc, true, noFast)
					if err != nil {
						t.Fatalf("seed %d precise=%v full: %v", seed, noFast, err)
					}
					sc.Config.ExceptList = core.AllEvents & may
					pruned, err := runOnce(sc, true, noFast)
					if err != nil {
						t.Fatalf("seed %d precise=%v pruned: %v", seed, noFast, err)
					}
					if d := diffSnapshots("full", "pruned", full.Snap, pruned.Snap); d != "" {
						t.Fatalf("seed %d precise=%v: pruning changed guest state: %s", seed, noFast, d)
					}
					fr, err := full.Store.AllRecords()
					if err != nil {
						t.Fatalf("seed %d precise=%v: full records: %v", seed, noFast, err)
					}
					pr, err := pruned.Store.AllRecords()
					if err != nil {
						t.Fatalf("seed %d precise=%v: pruned records: %v", seed, noFast, err)
					}
					if len(fr) != len(pr) {
						t.Fatalf("seed %d precise=%v: %d records full vs %d pruned", seed, noFast, len(fr), len(pr))
					}
					for i := range fr {
						a, b := fr[i], pr[i]
						a.MXCSR &^= uint32(mxcsr.MaskBits)
						b.MXCSR &^= uint32(mxcsr.MaskBits)
						if a != b {
							t.Fatalf("seed %d precise=%v: record %d differs:\nfull:   %+v\npruned: %+v", seed, noFast, i, fr[i], pr[i])
						}
					}
					if a, b := eventSummary(full.Store), eventSummary(pruned.Store); a != b {
						t.Fatalf("seed %d precise=%v: monitor events differ:\nfull:   %q\npruned: %q", seed, noFast, a, b)
					}
				}
			}
		})
	}
}
