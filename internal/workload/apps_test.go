package workload_test

import (
	"testing"

	fpspy "repro"
	"repro/internal/binscan"
	"repro/internal/study"
	"repro/internal/workload"
)

// appEventSets is this reproduction's ground truth for the applications:
// the union of the paper's Figure 9 (aggregate) and Figure 11
// (individual, filtered), which agree in our deterministic runs. WRF is
// special: FPSpy steps aside, so aggregate mode reports nothing.
var appEventSets = map[string]fpspy.Flags{
	"miniaero": fpspy.FlagDenormal | fpspy.FlagUnderflow | fpspy.FlagOverflow | fpspy.FlagInexact,
	"lammps":   fpspy.FlagInexact,
	"laghos":   fpspy.FlagDivideByZero | fpspy.FlagUnderflow | fpspy.FlagInexact,
	"moose":    fpspy.FlagInexact,
	"wrf":      0, // aggregate: stepped aside
	"enzo":     fpspy.FlagInvalid | fpspy.FlagInexact,
	"gromacs":  fpspy.FlagDenormal | fpspy.FlagUnderflow | fpspy.FlagInexact,
}

func runApp(t *testing.T, name string, cfg fpspy.Config) *fpspy.Result {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fpspy.Run(w.Build(workload.SizeLarge), fpspy.Options{Config: cfg})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("%s: exit code %d", name, res.ExitCode)
	}
	return res
}

func TestAppsAggregateEventSets(t *testing.T) {
	for name, want := range appEventSets {
		name, want := name, want
		t.Run(name, func(t *testing.T) {
			res := runApp(t, name, fpspy.Config{Mode: fpspy.ModeAggregate})
			var got fpspy.Flags
			for _, a := range res.Aggregates() {
				got |= a.Flags
			}
			if got != want {
				t.Errorf("aggregate events = %v, want %v", got, want)
			}
			if name == "wrf" && res.Store.StepAsides != 1 {
				t.Errorf("wrf step-asides = %d, want 1", res.Store.StepAsides)
			}
			if name != "wrf" && res.Store.StepAsides != 0 {
				t.Errorf("%s step-asides = %d, want 0", name, res.Store.StepAsides)
			}
		})
	}
}

func TestAppsIndividualFilteredEventSets(t *testing.T) {
	// Individual mode with Inexact filtered out: the paper's Figure 11
	// pass. Every non-Inexact event appears; the captured sets must
	// equal the aggregate sets minus Inexact (WRF captures nothing
	// non-Inexact before stepping aside).
	for name, agg := range appEventSets {
		name := name
		want := agg &^ fpspy.FlagInexact
		t.Run(name, func(t *testing.T) {
			res := runApp(t, name, fpspy.Config{
				Mode:       fpspy.ModeIndividual,
				ExceptList: fpspy.AllEvents &^ fpspy.FlagInexact,
			})
			var got fpspy.Flags
			for _, rec := range res.MustRecords() {
				got |= rec.Event
			}
			if got != want {
				t.Errorf("filtered events = %v, want %v", got, want)
			}
		})
	}
}

func TestAppsBuildDeterministic(t *testing.T) {
	for _, w := range workload.Apps() {
		p1 := w.Build(workload.SizeLarge)
		p2 := w.Build(workload.SizeLarge)
		if len(p1.Insts) != len(p2.Insts) || len(p1.Data) != len(p2.Data) {
			t.Errorf("%s: nondeterministic build", w.Meta.Name)
		}
		if len(p1.Insts) == 0 {
			t.Errorf("%s: empty program", w.Meta.Name)
		}
	}
}

func TestAppsSmallSizeAlsoRun(t *testing.T) {
	for _, w := range workload.Apps() {
		w := w
		t.Run(w.Meta.Name, func(t *testing.T) {
			res, err := fpspy.Run(w.Build(workload.SizeSmall), fpspy.Options{
				Config: fpspy.Config{Mode: fpspy.ModeAggregate},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.ExitCode != 0 {
				t.Fatalf("exit %d", res.ExitCode)
			}
		})
	}
}

func TestParseSize(t *testing.T) {
	small, err1 := workload.ParseSize("small")
	large, err2 := workload.ParseSize("large")
	_, err3 := workload.ParseSize("medium")
	if small != workload.SizeSmall || large != workload.SizeLarge || err1 != nil || err2 != nil || err3 == nil {
		t.Errorf("small: %v, %v; large: %v, %v; medium: %v", small, err1, large, err2, err3)
	}
}

func TestStaticAnalysisMatchesFigure8(t *testing.T) {
	// The Figure 8 matrix is now *computed* by binscan from the guest
	// binaries, so the assertions are generated the same way: for each
	// application, the binscan presence/reachability census and the
	// rendered study table must agree cell for cell.
	apps := workload.Apps()
	scans := make(map[string]*binscan.Scan, len(apps))
	for _, w := range apps {
		scans[w.Meta.Name] = binscan.ScanProgram(w.Build(workload.SizeLarge))
	}

	// Reachability can only shrink the presence set.
	for name, scan := range scans {
		present, reach := scan.PresentLibc(), scan.ReachableLibc()
		for sym := range reach {
			if !present[sym] {
				t.Errorf("%s: %s reachable but not present", name, sym)
			}
		}
	}

	// The rendered Figure 8 rows must match cells generated from the
	// scans and the source-macro metadata.
	tab, err := study.New().Figure8()
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string][]string)
	for _, row := range tab.Rows {
		rows[row[0]] = row[1:]
	}
	for _, w := range apps {
		name := w.Meta.Name
		row, ok := rows[name]
		if !ok {
			t.Fatalf("Figure 8 has no row for %s", name)
		}
		scan := scans[name]
		refSet := map[string]bool{}
		for _, r := range w.Meta.SourceRefs {
			refSet[r] = true
		}
		present, reach := scan.PresentLibc(), scan.ReachableLibc()
		for i, sym := range []string(tab.Header[1:]) {
			want := study.Figure8Cell(present[sym], reach[sym], refSet[sym])
			if row[i] != want {
				t.Errorf("%s/%s: table cell %q, binscan says %q", name, sym, row[i], want)
			}
		}
	}

	// Paper anchors that must survive any workload refactoring: WRF's
	// live fesetenv (the step-aside trigger), and the dead fe*/sigaction
	// cleanup after pthread_exit in MOOSE and GROMACS that grep counts
	// but reachability proves dead.
	if !scans["wrf"].ReachableLibc()["fesetenv"] {
		t.Error("wrf: fesetenv must be reachable (step-aside trigger)")
	}
	for _, name := range []string{"moose", "gromacs"} {
		scan := scans[name]
		for _, sym := range []string{"feenableexcept", "fedisableexcept", "sigaction"} {
			if !scan.PresentLibc()[sym] {
				t.Errorf("%s: %s should be present in the binary", name, sym)
			}
			if scan.ReachableLibc()[sym] {
				t.Errorf("%s: %s should be dead code only", name, sym)
			}
		}
	}
	for _, name := range []string{"lammps", "enzo"} {
		if !scans[name].ReachableLibc()["clone"] {
			t.Errorf("%s: clone should be reachable", name)
		}
	}
	for _, name := range []string{"miniaero", "laghos"} {
		if got := scans[name].PresentLibc(); len(got) != 0 {
			t.Errorf("%s: expected no libc references, got %v", name, got)
		}
	}
}
