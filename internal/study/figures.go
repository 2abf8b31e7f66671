package study

import (
	"fmt"
	"sort"
	"strings"

	fpspy "repro"
	"repro/internal/analysis"
	"repro/internal/binscan"
	"repro/internal/softfloat"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ClockHz is the simulated clock rate (the paper's 2.1 GHz Opterons).
const ClockHz = 2.1e9

// Scaling: the paper's workloads run for minutes to hours; the simulated
// miniatures run for milliseconds of simulated time. The Poisson sampler
// settings are scaled by the same ~1000x (5000us:100000us becomes
// 5us:100us), preserving the ~5% coverage and the relationship between
// sampler period and program phase lengths.
const (
	sampleOnUS  = 5
	sampleOffUS = 100
)

// AggregateConfig is the aggregate-mode tracing pass.
func AggregateConfig() fpspy.Config {
	return fpspy.Config{Mode: fpspy.ModeAggregate}
}

// FilteredConfig is individual-mode tracing with filtering: every event
// except Inexact, full coverage.
func FilteredConfig() fpspy.Config {
	return fpspy.Config{
		Mode:       fpspy.ModeIndividual,
		ExceptList: fpspy.AllEvents &^ fpspy.FlagInexact,
	}
}

// SampledConfig is individual-mode tracing with ~5% Poisson sampling
// including Inexact, on the virtual timer.
func SampledConfig() fpspy.Config {
	return fpspy.Config{
		Mode:         fpspy.ModeIndividual,
		SampleOnUS:   sampleOnUS,
		SampleOffUS:  sampleOffUS,
		Poisson:      true,
		VirtualTimer: true,
	}
}

// eventNames orders the event columns as the paper's tables do.
var eventColumns = []struct {
	Name string
	Flag softfloat.Flags
}{
	{"DivideByZero", fpspy.FlagDivideByZero},
	{"Invalid", fpspy.FlagInvalid},
	{"Denorm", fpspy.FlagDenormal},
	{"Underflow", fpspy.FlagUnderflow},
	{"Overflow", fpspy.FlagOverflow},
	{"Inexact", fpspy.FlagInexact},
}

// appRows lists the application rows plus suite-union rows, in the
// paper's order.
func appRows() []string {
	return []string{"miniaero", "lammps", "laghos", "moose", "wrf", "enzo",
		"PARSEC 3.0", "NAS 3.0", "gromacs"}
}

// suiteUnion runs a whole suite under a config and ORs the event sets.
func (s *Study) suiteUnion(suite workload.Suite, cfg fpspy.Config, size workload.Size, events func(*fpspy.Result) (softfloat.Flags, error)) (softfloat.Flags, error) {
	var union softfloat.Flags
	for _, w := range workload.BySuite(suite) {
		res, err := s.run(w.Meta.Name, cfg, false, size)
		if err != nil {
			return 0, err
		}
		f, err := events(res)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", w.Meta.Name, err)
		}
		union |= f
	}
	return union, nil
}

func aggregateEvents(res *fpspy.Result) (softfloat.Flags, error) {
	var f softfloat.Flags
	for _, a := range res.Aggregates() {
		f |= a.Flags
	}
	return f, nil
}

func recordEvents(res *fpspy.Result) (softfloat.Flags, error) {
	recs, err := res.Records()
	if err != nil {
		return 0, err
	}
	var f softfloat.Flags
	for _, rec := range recs {
		f |= rec.Event
	}
	return f, nil
}

// eventMatrix builds a Figure 9/11/14-style event matrix.
func (s *Study) eventMatrix(id, title string, cfg fpspy.Config, includeInexact bool, events func(*fpspy.Result) (softfloat.Flags, error)) (*Table, error) {
	cols := eventColumns
	if !includeInexact {
		cols = cols[:5]
	}
	t := &Table{ID: id, Title: title, Header: append([]string{"Code"}, func() []string {
		h := make([]string, len(cols))
		for i, c := range cols {
			h[i] = c.Name
		}
		return h
	}()...)}
	for _, row := range appRows() {
		var flags softfloat.Flags
		var err error
		switch row {
		case "PARSEC 3.0":
			flags, err = s.suiteUnion(workload.SuiteParsec, cfg, s.Size, events)
		case "NAS 3.0":
			flags, err = s.suiteUnion(workload.SuiteNAS, cfg, s.Size, events)
		default:
			var res *fpspy.Result
			res, err = s.run(row, cfg, false, s.Size)
			if err == nil {
				flags, err = events(res)
			}
		}
		if err != nil {
			return nil, err
		}
		cells := []string{row}
		for _, c := range cols {
			cells = append(cells, mark(flags&c.Flag != 0))
		}
		t.Rows = append(t.Rows, cells)
	}
	return t, nil
}

// Figure6 measures FPSpy's overhead on Miniaero across configurations.
func (s *Study) Figure6() (*Table, error) {
	type cfgRow struct {
		name  string
		cfg   fpspy.Config
		noSpy bool
	}
	sampler := func(on, off uint64) fpspy.Config {
		c := SampledConfig()
		c.SampleOnUS, c.SampleOffUS = on, off
		return c
	}
	rows := []cfgRow{
		{"Benchmark (No FPE)", fpspy.Config{}, true},
		{"Aggregate-mode tracing", AggregateConfig(), false},
		{"Individual-mode with filtering", FilteredConfig(), false},
		{"Individual-mode sampling 5:100", sampler(5, 100), false},
		{"Individual-mode sampling 10:100", sampler(10, 100), false},
		{"Individual-mode sampling 50:100", sampler(50, 100), false},
	}
	t := &Table{
		ID:     "Figure 6",
		Title:  "Overhead of FPSpy for Miniaero in various configurations",
		Header: []string{"Configuration", "Wall (ms)", "User (ms)", "System (ms)", "Slowdown"},
		Notes: []string{
			"times in simulated milliseconds at 2.1 GHz; the paper's sampler settings are scaled 1000x with the workloads",
		},
	}
	var baseWall float64
	for _, r := range rows {
		res, err := s.run("miniaero-calibrated", r.cfg, r.noSpy, s.Size)
		if err != nil {
			return nil, err
		}
		wall := float64(res.WallCycles) / ClockHz * 1e3
		user := float64(res.UserCycles) / ClockHz * 1e3
		sys := float64(res.SysCycles) / ClockHz * 1e3
		if r.noSpy {
			baseWall = wall
		}
		t.Rows = append(t.Rows, []string{
			r.name,
			fmt.Sprintf("%.3f", wall),
			fmt.Sprintf("%.3f", user),
			fmt.Sprintf("%.3f", sys),
			fmt.Sprintf("%.2fx", wall/baseWall),
		})
	}
	return t, nil
}

// Figure7 renders the application/benchmark inventory.
func (s *Study) Figure7() (*Table, error) {
	t := &Table{
		ID:     "Figure 7",
		Title:  "Applications and benchmarks in the study",
		Header: []string{"Name", "Dependencies", "Problem", "Paper exec time", "Languages", "LOC"},
	}
	add := func(m workload.Meta) {
		t.Rows = append(t.Rows, []string{
			m.Name, strings.Join(m.Deps, ","), m.Problem, m.ExecTime, m.Languages,
			fmt.Sprintf("%d", m.LOC),
		})
	}
	for _, w := range workload.Apps() {
		add(w.Meta)
	}
	t.Rows = append(t.Rows, []string{"PARSEC 3.0", "GSL,TBB", "Simlarge", "2m30.178s", "C/C++", "3500000"})
	t.Rows = append(t.Rows, []string{"NAS 3.0", "-", "Problem Size 1", "4m50.443s", "Fortran/C", "21000"})
	return t, nil
}

// figure8Symbols are the interposition-relevant mechanisms, in the
// paper's column order (libc call sites plus source macro references).
var figure8Symbols = []string{
	"fork", "clone", "pthread_create", "pthread_exit", "signal", "sigaction",
	"feenableexcept", "fedisableexcept", "fegetexcept", "feclearexcept",
	"fegetexceptflag", "feraiseexcept", "fesetexceptflag", "fetestexcept",
	"fegetround", "fesetround", "fegetenv", "feholdexcept", "fesetenv",
	"feupdateenv", "SIGTRAP", "SIGFPE",
}

// Figure8Cell renders one cell of the Figure 8 matrix from binscan's
// static view plus the source-macro references binscan cannot see: "T"
// when the mechanism is reachable in the binary (or is a source macro
// reference, where grep-level presence is all we have), "t" when it is
// present only in dead code — the distinction the paper's grep pass
// cannot make — and "f" when absent.
func Figure8Cell(present, reachable, sourceRef bool) string {
	switch {
	case reachable || sourceRef:
		return "T"
	case present:
		return "t"
	default:
		return "f"
	}
}

// Figure8 reproduces the static source analysis matrix, computed from
// the guest binaries by internal/binscan rather than from metadata.
func (s *Study) Figure8() (*Table, error) {
	t := &Table{
		ID:     "Figure 8",
		Title:  "Source code analysis: mechanisms referenced per code",
		Header: append([]string{"Code"}, figure8Symbols...),
		Notes: []string{
			"computed by binscan from guest binaries (callc sites + CFG reachability) plus source macro references",
			"T = reachable reference, t = present only in dead code (grep counts it; reachability analysis proves it dead), f = absent",
		},
	}
	rowFor := func(name string, present, reachable map[string]bool, refs []string) []string {
		refSet := map[string]bool{}
		for _, r := range refs {
			refSet[r] = true
		}
		cells := []string{name}
		for _, sym := range figure8Symbols {
			cells = append(cells, Figure8Cell(present[sym], reachable[sym], refSet[sym]))
		}
		return cells
	}
	for _, w := range workload.Apps() {
		scan := binscan.ScanProgram(w.Build(s.Size))
		t.Rows = append(t.Rows, rowFor(w.Meta.Name, scan.PresentLibc(), scan.ReachableLibc(), w.Meta.SourceRefs))
	}
	for _, suite := range []struct {
		name string
		s    workload.Suite
	}{{"PARSEC 3.0", workload.SuiteParsec}, {"NAS 3.0", workload.SuiteNAS}} {
		present := map[string]bool{}
		reachable := map[string]bool{}
		var refs []string
		for _, w := range workload.BySuite(suite.s) {
			scan := binscan.ScanProgram(w.Build(s.Size))
			for sym := range scan.PresentLibc() {
				present[sym] = true
			}
			for sym := range scan.ReachableLibc() {
				reachable[sym] = true
			}
			refs = append(refs, w.Meta.SourceRefs...)
		}
		t.Rows = append(t.Rows, rowFor(suite.name, present, reachable, refs))
	}
	return t, nil
}

// Figure9 is the aggregate-mode event matrix.
func (s *Study) Figure9() (*Table, error) {
	return s.eventMatrix("Figure 9", "Aggregate-mode tracing of applications",
		AggregateConfig(), true, aggregateEvents)
}

// Figure10 is the per-benchmark PARSEC matrix, at the problem size where
// fluidanimate's Overflow does not appear (the paper's Section 5.3 size
// note; the suite row of Figure 9 runs the larger size).
func (s *Study) Figure10() (*Table, error) {
	t := &Table{
		ID:    "Figure 10",
		Title: "Aggregate-mode tracing of PARSEC benchmarks",
		Header: append([]string{"Benchmark"}, func() []string {
			h := make([]string, len(eventColumns))
			for i, c := range eventColumns {
				h[i] = c.Name
			}
			return h
		}()...),
		Notes: []string{"run at the reduced problem size; fluidanimate overflows only at the larger one"},
	}
	for _, w := range workload.Parsec() {
		res, err := s.run(w.Meta.Name, AggregateConfig(), false, workload.SizeSmall)
		if err != nil {
			return nil, err
		}
		flags, err := aggregateEvents(res)
		if err != nil {
			return nil, err
		}
		cells := []string{w.Meta.Name}
		for _, c := range eventColumns {
			cells = append(cells, mark(flags&c.Flag != 0))
		}
		t.Rows = append(t.Rows, cells)
	}
	return t, nil
}

// Figure11 is the individual-mode-with-filtering matrix.
func (s *Study) Figure11() (*Table, error) {
	return s.eventMatrix("Figure 11", "Individual-mode tracing with filtering (Inexact excluded)",
		FilteredConfig(), false, recordEvents)
}

// rateTable renders a rate time series with a proportional bar column,
// the terminal rendition of the paper's scatter plots.
func rateTable(id, title string, pts []analysis.RatePoint) *Table {
	t := &Table{
		ID: id, Title: title,
		Header: []string{"Time (ms)", "Events/s", ""},
	}
	var peak float64
	for _, p := range pts {
		if p.EventsPerSec > peak {
			peak = p.EventsPerSec
		}
	}
	for _, p := range pts {
		bar := ""
		if peak > 0 {
			bar = strings.Repeat("#", int(p.EventsPerSec/peak*40+0.5))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", p.TimeSec*1e3),
			fmt.Sprintf("%.0f", p.EventsPerSec),
			bar,
		})
	}
	return t
}

// Figure12 is the rate of Invalid events over time in ENZO.
func (s *Study) Figure12() (*Table, error) {
	res, err := s.run("enzo", FilteredConfig(), false, s.Size)
	if err != nil {
		return nil, err
	}
	all, err := res.Records()
	if err != nil {
		return nil, fmt.Errorf("enzo: %w", err)
	}
	recs := analysis.FilterEvent(all, fpspy.FlagInvalid)
	pts := analysis.RateSeries(recs, 50e-6, ClockHz) // 50us bins
	return rateTable("Figure 12", "Rate of Invalid events over time in ENZO (rising with refinement)", pts), nil
}

// Figure13 is the burst structure of DivideByZero events in LAGHOS.
func (s *Study) Figure13() (*Table, error) {
	res, err := s.run("laghos", FilteredConfig(), false, s.Size)
	if err != nil {
		return nil, err
	}
	all, err := res.Records()
	if err != nil {
		return nil, fmt.Errorf("laghos: %w", err)
	}
	recs := analysis.FilterEvent(all, fpspy.FlagDivideByZero)
	pts := analysis.RateSeries(recs, 10e-6, ClockHz) // 10us bins show the bursts
	return rateTable("Figure 13", "Bursts of DivideByZero events in LAGHOS", pts), nil
}

// Figure14 is the individual-mode-with-sampling matrix (~5% Poisson,
// Inexact included).
func (s *Study) Figure14() (*Table, error) {
	t, err := s.eventMatrix("Figure 14", "Individual-mode tracing with ~5% Poisson sampling (Inexact included)",
		SampledConfig(), true, recordEvents)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"sampling misses rare one-shot events (Miniaero/GROMACS denormal-underflow windows, overflows), as in the paper",
		"WRF shows rounding here though aggregate mode shows nothing: events are captured as they arise, before WRF's fesetenv makes FPSpy step aside")
	return t, nil
}

// Figure15 reports Inexact counts and rates per application from the
// sampled traces.
func (s *Study) Figure15() (*Table, error) {
	t := &Table{
		ID:     "Figure 15",
		Title:  "Inexact event count and rate per application (sampled pass)",
		Header: []string{"Name", "Inexact events", "Inexact events/s"},
	}
	for _, w := range workload.Apps() {
		res, err := s.run(w.Meta.Name, SampledConfig(), false, s.Size)
		if err != nil {
			return nil, err
		}
		base, err := s.run(w.Meta.Name, fpspy.Config{}, true, s.Size)
		if err != nil {
			return nil, err
		}
		all, err := res.Records()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Meta.Name, err)
		}
		recs := analysis.FilterEvent(all, fpspy.FlagInexact)
		// Rate relative to the application's unencumbered duration, as
		// the paper's count/runtime pairs imply.
		wallSec := float64(base.WallCycles) / ClockHz
		rate := 0.0
		if wallSec > 0 {
			rate = float64(len(recs)) / wallSec
		}
		t.Rows = append(t.Rows, []string{
			w.Meta.Name,
			fmt.Sprintf("%d", len(recs)),
			fmt.Sprintf("%.0f", rate),
		})
	}
	return t, nil
}

// Figure16 reports cumulative Inexact counts over time per application.
func (s *Study) Figure16() (*Table, error) {
	t := &Table{
		ID:     "Figure 16",
		Title:  "Cumulative Inexact events over execution (sampled pass)",
		Header: []string{"Name", "25% time", "50% time", "75% time", "end"},
		Notes:  []string{"cumulative counts at quartiles of each run's duration"},
	}
	for _, w := range workload.Apps() {
		res, err := s.run(w.Meta.Name, SampledConfig(), false, s.Size)
		if err != nil {
			return nil, err
		}
		all, err := res.Records()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Meta.Name, err)
		}
		recs := analysis.FilterEvent(all, fpspy.FlagInexact)
		pts := analysis.Cumulative(recs, ClockHz)
		end := float64(res.WallCycles) / ClockHz
		at := func(frac float64) uint64 {
			var c uint64
			for _, p := range pts {
				if p.TimeSec <= end*frac {
					c = p.Count
				}
			}
			return c
		}
		t.Rows = append(t.Rows, []string{
			w.Meta.Name,
			fmt.Sprintf("%d", at(0.25)),
			fmt.Sprintf("%d", at(0.5)),
			fmt.Sprintf("%d", at(0.75)),
			fmt.Sprintf("%d", len(recs)),
		})
	}
	return t, nil
}

// codeRecords gathers, per code, the union of filtered-pass and
// sampled-pass records — the paper's 2 TB corpus, miniaturized. Suites
// contribute each benchmark separately.
func (s *Study) codeRecords() (map[string][]trace.Record, error) {
	out := make(map[string][]trace.Record)
	var names []string
	for _, w := range workload.Apps() {
		names = append(names, w.Meta.Name)
	}
	for _, w := range workload.Parsec() {
		names = append(names, w.Meta.Name)
	}
	for _, w := range workload.NAS() {
		names = append(names, w.Meta.Name)
	}
	for _, name := range names {
		var recs []trace.Record
		for _, cfg := range []fpspy.Config{FilteredConfig(), SampledConfig()} {
			res, err := s.run(name, cfg, false, s.Size)
			if err != nil {
				return nil, err
			}
			rs, err := res.Records()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			recs = append(recs, rs...)
		}
		out[name] = recs
	}
	return out, nil
}

// isApp reports whether a code name is one of the seven applications.
func isApp(name string) bool {
	for _, w := range workload.Apps() {
		if w.Meta.Name == name {
			return true
		}
	}
	return false
}

// Figure17 is the rank-popularity of instruction forms per code.
func (s *Study) Figure17() (*Table, error) {
	byCode, err := s.codeRecords()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Figure 17",
		Title:  "Rank-popularity of captured instruction forms",
		Header: []string{"Code", "Class", "Forms", "Top form", "Forms for 99%"},
	}
	names := sortedKeys(byCode)
	for _, name := range names {
		recs := byCode[name]
		if len(recs) == 0 {
			continue
		}
		ranks := analysis.RankByForm(recs)
		class := "benchmark"
		if isApp(name) {
			class = "application"
		}
		t.Rows = append(t.Rows, []string{
			name, class,
			fmt.Sprintf("%d", len(ranks)),
			ranks[0].Key,
			fmt.Sprintf("%d", analysis.CoverageCount(ranks, 0.99)),
		})
	}
	return t, nil
}

// Figure18 is the cross-code instruction-form histogram with the
// GROMACS-only tail.
func (s *Study) Figure18() (*Table, error) {
	byCode, err := s.codeRecords()
	if err != nil {
		return nil, err
	}
	usage := analysis.FormsAcrossCodes(byCode)
	t := &Table{
		ID:     "Figure 18",
		Title:  "Instruction forms by number of codes showing them",
		Header: []string{"Form", "Codes"},
	}
	forms := make([]string, 0, len(usage.CodesByForm))
	for f := range usage.CodesByForm {
		forms = append(forms, f)
	}
	sort.Slice(forms, func(i, j int) bool {
		ci, cj := len(usage.CodesByForm[forms[i]]), len(usage.CodesByForm[forms[j]])
		if ci != cj {
			return ci > cj
		}
		return forms[i] < forms[j]
	})
	for _, f := range forms {
		t.Rows = append(t.Rows, []string{f, fmt.Sprintf("%d", len(usage.CodesByForm[f]))})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("GROMACS-only forms (%d): %s", len(usage.UniqueTo["gromacs"]),
			strings.Join(usage.UniqueTo["gromacs"], " ")))
	return t, nil
}

// Figure19 is the rank-popularity of faulting instruction addresses.
func (s *Study) Figure19() (*Table, error) {
	byCode, err := s.codeRecords()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Figure 19",
		Title:  "Rank-popularity of captured instruction addresses",
		Header: []string{"Code", "Sites", "Sites for 99%", "Top site share"},
	}
	for _, name := range sortedKeys(byCode) {
		recs := byCode[name]
		if len(recs) == 0 {
			continue
		}
		ranks := analysis.RankByAddress(recs)
		total := analysis.TotalEvents(ranks)
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", len(ranks)),
			fmt.Sprintf("%d", analysis.CoverageCount(ranks, 0.99)),
			fmt.Sprintf("%.1f%%", 100*float64(ranks[0].Count)/float64(total)),
		})
	}
	return t, nil
}

// Section6 evaluates the rounding-mitigation feasibility over the
// applications' measured locality.
func (s *Study) Section6() (*Table, error) {
	t := &Table{
		ID:     "Section 6",
		Title:  "Trap-and-emulate rounding mitigation feasibility",
		Header: []string{"Name", "Sites", "Sites99", "Forms", "Forms99", "Patch cyc/event", "Trap cyc/event", "Patch wins"},
		Notes: []string{
			"cost model: 50k cycles to patch a site, 150 cycles per emulated event, 4k cycles per trap-and-emulate event",
		},
	}
	for _, w := range workload.Apps() {
		var recs []trace.Record
		for _, cfg := range []fpspy.Config{FilteredConfig(), SampledConfig()} {
			res, err := s.run(w.Meta.Name, cfg, false, s.Size)
			if err != nil {
				return nil, err
			}
			rs, err := res.Records()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Meta.Name, err)
			}
			recs = append(recs, rs...)
		}
		if len(recs) == 0 {
			continue
		}
		rep := analysis.Feasibility(
			analysis.RankByAddress(recs), analysis.RankByForm(recs),
			50_000, 150, 4_000)
		t.Rows = append(t.Rows, []string{
			w.Meta.Name,
			fmt.Sprintf("%d", rep.Sites),
			fmt.Sprintf("%d", rep.Sites99),
			fmt.Sprintf("%d", rep.Forms),
			fmt.Sprintf("%d", rep.Forms99),
			fmt.Sprintf("%.0f", rep.PatchCyclesPerEvent),
			fmt.Sprintf("%.0f", rep.TrapCyclesPerEvent),
			fmt.Sprintf("%v", rep.PatchWins),
		})
	}
	return t, nil
}

func sortedKeys(m map[string][]trace.Record) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// All generates every figure and table in order. The passes behind them
// run first, deduplicated, on the study's worker pool; the figures then
// assemble serially from the warm cache.
func (s *Study) All() ([]*Table, error) {
	s.Prewarm()
	gens := []func() (*Table, error){
		s.Figure6, s.Figure7, s.Figure8, s.Figure9, s.Figure10, s.Figure11,
		s.Figure12, s.Figure13, s.Figure14, s.Figure15, s.Figure16,
		s.Figure17, s.Figure18, s.Figure19, s.Section6,
	}
	var out []*Table
	for _, g := range gens {
		t, err := g()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
