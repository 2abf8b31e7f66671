package binscan_test

import (
	"testing"

	fpspy "repro"
	"repro/internal/analysis"
	"repro/internal/binscan"
	"repro/internal/workload"
)

// TestStaticScanSoundAgainstDynamicTraces is the static-vs-dynamic
// validation of the issue: run workloads under FPSpy in individual mode
// and replay every captured trap against the static scan. The soundness
// invariant — every dynamic trap address is a statically discovered,
// statically reachable floating point site — must hold exactly
// (recall == 1.0), because the scan enumerates every instruction that
// can raise condition codes and reachability over-approximates
// execution.
func TestStaticScanSoundAgainstDynamicTraces(t *testing.T) {
	for _, name := range []string{"miniaero", "laghos", "enzo", "gromacs"} {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			prog := w.Build(workload.SizeSmall)
			scan := binscan.ScanProgram(prog)

			res, err := fpspy.Run(prog, fpspy.Options{Config: fpspy.Config{
				Mode:       fpspy.ModeIndividual,
				ExceptList: fpspy.AllEvents,
			}})
			if err != nil {
				t.Fatal(err)
			}
			recs := res.Store.AllRecords()
			if len(recs) == 0 {
				t.Fatal("no dynamic events captured; validation is vacuous")
			}

			v := scan.Validate(recs)
			if !v.Sound() {
				t.Fatalf("soundness violated: %v (missing=%#x unreachable=%#x)",
					v, v.Missing, v.UnreachableHit)
			}
			if v.Recall != 1.0 {
				t.Errorf("recall = %v, want 1.0", v.Recall)
			}
			if v.FormMismatches != 0 {
				t.Errorf("form mismatches = %d, want 0 (trace word decodes to the static form)",
					v.FormMismatches)
			}
			if v.Precision <= 0 || v.Precision > 1 {
				t.Errorf("precision = %v out of (0, 1]", v.Precision)
			}

			// The analysis-layer view must agree: every dynamic site is in
			// the reachable static set, and every event lands on a known
			// site.
			cov := analysis.StaticCoverageOf(recs, scan.SiteAddrs(true))
			if cov.UnknownSites != 0 {
				t.Errorf("coverage reports %d unknown sites, want 0", cov.UnknownSites)
			}
			if cov.EventCoverage != 1.0 {
				t.Errorf("event coverage = %v, want 1.0", cov.EventCoverage)
			}
		})
	}
}
