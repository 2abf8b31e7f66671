package study

// The reproducibility conformance suite (ROADMAP item 3): run every
// accumulation-order probe under the spy across engine configurations,
// scheduler seeds, and kernel.Inject perturbations, reconstruct each
// run's accumulation tree from its trace, and require the canonical
// fingerprint — not merely the final bits — to be identical in every
// cell. The broken-reassoc probe inverts the check: its recovered tree
// must *differ* from its documented claim (the negative control proving
// the suite can detect a reassociated reduction at all).

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	fpspy "repro"
	"repro/internal/analysis"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ProbeEngine is one execution-engine configuration of the transparency
// matrix.
type ProbeEngine struct {
	// Name is the cell label: "fast" or "precise".
	Name string
	// NoFastPath forces the precise single-step engine.
	NoFastPath bool
}

// ProbeEngines enumerates the two engines: the default superblock fast
// path and the precise single-step reference.
func ProbeEngines() []ProbeEngine {
	return []ProbeEngine{{Name: "fast"}, {Name: "precise", NoFastPath: true}}
}

// ProbeSchedule is one scheduler-perturbation scenario. The zero value
// is the unperturbed scheduler.
type ProbeSchedule struct {
	// Name is the cell label.
	Name string
	// Shuffle enables seeded runqueue shuffling.
	Shuffle bool
	// Jitter enables seeded quantum jitter.
	Jitter bool
	// DelayMax enables seeded signal delivery delay (cycles).
	DelayMax uint64
}

// ProbeSchedules enumerates the inject scenarios of the matrix.
func ProbeSchedules() []ProbeSchedule {
	return []ProbeSchedule{
		{Name: "baseline"},
		{Name: "shuffle", Shuffle: true},
		{Name: "jitter", Jitter: true},
		{Name: "storm", Shuffle: true, Jitter: true, DelayMax: 1000},
	}
}

// inject builds the seeded injector for a scenario, nil for baseline.
func (ps ProbeSchedule) inject(seed int64) *kernel.Inject {
	if !ps.Shuffle && !ps.Jitter && ps.DelayMax == 0 {
		return nil
	}
	inj := kernel.NewInject(seed)
	inj.ShuffleSched = ps.Shuffle
	inj.QuantumJitter = ps.Jitter
	inj.DelayMax = ps.DelayMax
	return inj
}

// ProbeCell is one cell of the conformance matrix.
type ProbeCell struct {
	// Spec selects the probe kernel. Perturbed schedules set Companion
	// so the scheduler has a second task to shuffle against.
	Spec workload.ProbeSpec
	// Engine is the execution-engine configuration.
	Engine ProbeEngine
	// Sched is the scheduler-perturbation scenario.
	Sched ProbeSchedule
	// Seed seeds the injector (ignored for the baseline schedule).
	Seed int64
}

// ProbeCellResult is one cell's verdict.
type ProbeCellResult struct {
	Kernel   string `json:"kernel"`
	N        int    `json:"n"`
	Param    int    `json:"param,omitempty"`
	Engine   string `json:"engine"`
	Schedule string `json:"schedule"`
	Seed     int64  `json:"seed"`
	// Fingerprint and Canonical are the tree recovered from the trace.
	Fingerprint string `json:"fingerprint"`
	Canonical   string `json:"canonical"`
	// Expected is the documented tree's fingerprint.
	Expected string `json:"expected"`
	// Detected is true when recovered != expected — a reassociation.
	Detected bool `json:"detected"`
	// Negative marks the deliberately-broken control cell, whose pass
	// condition is Detected.
	Negative bool `json:"negative,omitempty"`
	// Pass is the cell verdict: match for honest kernels, detection for
	// the negative control.
	Pass bool   `json:"pass"`
	Err  string `json:"err,omitempty"`
}

// ProbeConfig is the spy configuration every probe cell runs under:
// unsampled individual mode capturing all events — the only mode whose
// trace is complete enough to reconstruct from.
func ProbeConfig() fpspy.Config {
	return fpspy.Config{Mode: fpspy.ModeIndividual, ExceptList: fpspy.AllEvents}
}

// runProbeCell executes one cell hermetically: build the probe, run it
// under the cell's engine and schedule, recover the accumulation tree
// from the trace, and compare fingerprints. It reports to om (nil for
// none) and also returns the run (nil when the cell failed before it
// existed).
func runProbeCell(cell ProbeCell, om *obs.Metrics) (ProbeCellResult, *fpspy.Result) {
	res := ProbeCellResult{
		Kernel:   string(cell.Spec.Kind),
		N:        cell.Spec.N,
		Param:    cell.Spec.Param,
		Engine:   cell.Engine.Name,
		Schedule: cell.Sched.Name,
		Seed:     cell.Seed,
		Negative: cell.Spec.Kind == workload.ProbeBrokenReassoc,
	}
	probe, err := workload.BuildProbe(cell.Spec)
	if err != nil {
		res.Err = err.Error()
		return res, nil
	}
	res.Param = probe.Spec.Param
	res.Expected = probe.Expected.Fingerprint()
	run, err := fpspy.Run(probe.Prog, fpspy.Options{
		Config:     ProbeConfig(),
		NoFastPath: cell.Engine.NoFastPath,
		Inject:     cell.Sched.inject(cell.Seed),
		Obs:        om,
	})
	if err != nil {
		res.Err = "probe: " + err.Error()
		return res, nil
	}
	tree, err := analysis.RecoverProbeTree(run.Store.AllRecords())
	if err != nil {
		res.Err = err.Error()
		return res, run
	}
	res.Fingerprint = tree.Fingerprint()
	res.Canonical = tree.Canonical()
	res.Detected = res.Fingerprint != res.Expected
	res.Pass = res.Detected == res.Negative
	return res, run
}

// DefaultProbeCells builds the full conformance matrix over every probe
// kind at the study size: all engine configurations × all schedules ×
// the given seeds (the baseline schedule is seed-independent and runs
// once). Perturbed schedules run with a companion thread.
func DefaultProbeCells(size workload.Size, seeds []int64) []ProbeCell {
	var cells []ProbeCell
	for _, kind := range workload.ProbeKinds() {
		spec := workload.DefaultProbeSpec(kind, size)
		for _, eng := range ProbeEngines() {
			for _, sched := range ProbeSchedules() {
				if sched.Name == "baseline" {
					cells = append(cells, ProbeCell{Spec: spec, Engine: eng, Sched: sched})
					continue
				}
				pspec := spec
				pspec.Companion = true
				for _, seed := range seeds {
					cells = append(cells, ProbeCell{Spec: pspec, Engine: eng, Sched: sched, Seed: seed})
				}
			}
		}
	}
	return cells
}

// ProbeReport is the suite outcome: every cell verdict plus the
// cross-cell consistency analysis.
type ProbeReport struct {
	Cells []ProbeCellResult `json:"cells"`
	// Failures counts cells whose verdict is fail or error.
	Failures int `json:"failures"`
	// Fingerprints maps each kernel to the set of distinct recovered
	// fingerprints across all its cells — reproducibility means every
	// honest kernel (and the negative control, whose wrongness must
	// itself be deterministic) maps to exactly one.
	Fingerprints map[string][]string `json:"fingerprints"`
	// Inconsistent lists kernels whose cells disagreed with each other.
	Inconsistent []string `json:"inconsistent,omitempty"`
}

// ProbeMatrix runs the cells on the study's worker pool, starting them
// in input order, and assembles the report. Cell results land at their
// input index, so the report is deterministic at any worker count.
func (s *Study) ProbeMatrix(cells []ProbeCell) *ProbeReport {
	results := make([]ProbeCellResult, len(cells))
	s.execInOrder(len(cells), func(i int) {
		results[i], _ = runProbeCell(cells[i], s.Obs)
	})
	return AssembleProbeReport(results)
}

// AssembleProbeReport computes the cross-cell consistency verdicts.
func AssembleProbeReport(results []ProbeCellResult) *ProbeReport {
	r := &ProbeReport{Cells: results, Fingerprints: map[string][]string{}}
	seen := map[string]map[string]bool{}
	for i := range results {
		c := &results[i]
		if !c.Pass || c.Err != "" {
			r.Failures++
		}
		if c.Fingerprint == "" {
			continue
		}
		key := fmt.Sprintf("%s/n=%d", c.Kernel, c.N)
		if seen[key] == nil {
			seen[key] = map[string]bool{}
		}
		seen[key][c.Fingerprint] = true
	}
	for key, fps := range seen {
		var list []string
		for fp := range fps {
			list = append(list, fp)
		}
		sort.Strings(list)
		r.Fingerprints[key] = list
		if len(list) > 1 {
			r.Inconsistent = append(r.Inconsistent, key)
		}
	}
	sort.Strings(r.Inconsistent)
	r.Failures += len(r.Inconsistent)
	return r
}

// Table renders the matrix as a study table: one row per kernel ×
// engine with schedules collapsed, plus the consistency summary.
func (r *ProbeReport) Table() *Table {
	type rowKey struct{ kernel, engine string }
	agg := map[rowKey]*struct {
		cells, pass int
		fp          string
	}{}
	var order []rowKey
	for i := range r.Cells {
		c := &r.Cells[i]
		k := rowKey{kernel: fmt.Sprintf("%s/n=%d", c.Kernel, c.N), engine: c.Engine}
		a, ok := agg[k]
		if !ok {
			a = &struct {
				cells, pass int
				fp          string
			}{}
			agg[k] = a
			order = append(order, k)
		}
		a.cells++
		if c.Pass && c.Err == "" {
			a.pass++
		}
		if a.fp == "" {
			a.fp = c.Fingerprint
		}
	}
	t := &Table{
		ID:     "probe",
		Title:  "Accumulation-order reproducibility matrix",
		Header: []string{"kernel", "engine", "cells", "pass", "fingerprint"},
	}
	for _, k := range order {
		a := agg[k]
		t.Rows = append(t.Rows, []string{
			k.kernel, k.engine,
			fmt.Sprintf("%d", a.cells), fmt.Sprintf("%d/%d", a.pass, a.cells),
			a.fp,
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d cells, %d failures", len(r.Cells), r.Failures))
	for _, k := range r.Inconsistent {
		t.Notes = append(t.Notes, fmt.Sprintf("INCONSISTENT: %s recovered %d distinct trees", k, len(r.Fingerprints[k])))
	}
	return t
}

// WriteJSON emits the report (the CI fingerprint-corpus artifact).
func (r *ProbeReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteProbeTrace runs one probe under the default engine and writes
// its raw individual-mode trace bytes (every thread, concatenated) to
// w, returning the fingerprint recovered from that same trace. The
// output is a standard .fpemon byte stream that `fpanalyze -accumtree`
// reconstructs from.
func WriteProbeTrace(spec workload.ProbeSpec, w io.Writer) (string, error) {
	probe, err := workload.BuildProbe(spec)
	if err != nil {
		return "", err
	}
	run, err := fpspy.Run(probe.Prog, fpspy.Options{Config: ProbeConfig()})
	if err != nil {
		return "", fmt.Errorf("probe: %w", err)
	}
	var all []byte
	for _, key := range run.Store.Threads() {
		raw, err := run.Store.RawTrace(key)
		if err != nil {
			return "", err
		}
		all = append(all, raw...)
	}
	recs, err := trace.Decode(all)
	if err != nil {
		return "", err
	}
	tree, err := analysis.RecoverProbeTree(recs)
	if err != nil {
		return "", err
	}
	if _, err := w.Write(all); err != nil {
		return "", err
	}
	return tree.Fingerprint(), nil
}
