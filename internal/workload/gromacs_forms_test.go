package workload_test

import (
	"testing"

	fpspy "repro"
	"repro/internal/analysis"
	"repro/internal/workload"
)

// gromacsOnlyForms is the paper's Figure 18 list: the 25 instruction
// forms that appear in GROMACS's traces and nowhere else in the study.
var gromacsOnlyForms = []string{
	"vfmaddps", "vsubss", "vmulps", "vroundps", "vmulss", "vdivss",
	"vaddps", "vsqrtss", "vcvtsd2ss", "vfnmaddss", "vfmaddss", "vcvtps2dq",
	"vsubps", "vfmsubss", "vfmsubps", "vaddss", "subps", "vdpps", "addps",
	"vdivps", "vfnmaddps", "vsqrtsd", "cvtsi2sdq", "vucomiss", "vcvttss2si",
}

// capturedForms runs a workload under full individual-mode capture and
// returns the set of instruction forms in its trace.
func capturedForms(t *testing.T, name string) map[string]bool {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fpspy.Run(w.Build(workload.SizeLarge), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual},
	})
	if err != nil {
		t.Fatal(err)
	}
	forms := map[string]bool{}
	for _, e := range analysis.RankByForm(res.Store.AllRecords()) {
		forms[e.Key] = true
	}
	return forms
}

// TestGromacsUsesAll25ExclusiveForms reproduces Figure 18's headline:
// GROMACS's AVX/FMA kernels contribute exactly 25 instruction forms no
// other code shows.
func TestGromacsUsesAll25ExclusiveForms(t *testing.T) {
	forms := capturedForms(t, "gromacs")
	for _, f := range gromacsOnlyForms {
		if !forms[f] {
			t.Errorf("gromacs trace missing form %s", f)
		}
	}
	if len(gromacsOnlyForms) != 25 {
		t.Fatalf("exclusive form list has %d entries, want 25", len(gromacsOnlyForms))
	}
}

// TestNoOtherCodeUsesGromacsForms verifies the exclusivity side: the
// other applications' traces contain none of the GROMACS-only forms.
func TestNoOtherCodeUsesGromacsForms(t *testing.T) {
	exclusive := map[string]bool{}
	for _, f := range gromacsOnlyForms {
		exclusive[f] = true
	}
	for _, name := range []string{"miniaero", "lammps", "laghos", "moose", "enzo"} {
		forms := capturedForms(t, name)
		for f := range forms {
			if exclusive[f] {
				t.Errorf("%s uses GROMACS-only form %s", name, f)
			}
		}
	}
}
