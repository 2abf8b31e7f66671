package study_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	fpspy "repro"
	"repro/internal/analysis"
	"repro/internal/binscan/absint"
	"repro/internal/chaos"
	"repro/internal/study"
	"repro/internal/trace"
	"repro/internal/workload"
)

// soakSeeds is the satellite's seed sweep: 0..7.
var soakSeeds = []int64{0, 1, 2, 3, 4, 5, 6, 7}

// soakLabel is one cell label of the soak: the engine that runs the
// cell plus the checks the cell makes on top of the fingerprint verdict
// every cell makes. The suffixes name checks, not engine
// configurations; the eight names are kept so a cell keeps its name in
// test logs across engine changes.
type soakLabel struct {
	name   string
	engine study.ProbeEngine
	// prune checks the cell's trace against the abstract interpreter's
	// verdicts (absint.CheckSoundness): every recorded condition must
	// be may-possible at its site, so no record lies at a site the
	// analysis proves quiet — the verdict static pruning acted on.
	prune bool
	// sb passes the two engines' runs of the cell's kernel, schedule
	// and seed to the oracle's engine check.
	sb bool
}

// soakLabels enumerates the labels: each engine with and without each
// extra check.
func soakLabels() []soakLabel {
	var out []soakLabel
	for _, eng := range study.ProbeEngines() {
		for _, prune := range []bool{true, false} {
			for _, sb := range []bool{true, false} {
				name := eng.Name
				if prune {
					name += "+prune"
				}
				if sb {
					name += "+sb"
				}
				out = append(out, soakLabel{name: name, engine: eng, prune: prune, sb: sb})
			}
		}
	}
	return out
}

// soakRun is one engine's run of a cell, shared by every label that
// needs it: the simulator is deterministic, so one run per engine and
// cell is all the checks need.
type soakRun struct {
	once sync.Once
	res  study.ProbeCellResult
	obs  *chaos.Observation
	err  error
}

// TestProbeCrossScheduleSoak is the reproducibility conformance suite:
// every engine × inject scenario × seed, for every probe kernel,
// asserting the recovered fingerprint matches the documented tree (or,
// for the negative control, provably does not) and that all cells of a
// kernel agree with each other, under each label's extra checks (see
// soakLabel). Under -race the parallel subtests also stress the
// engines' concurrency. Short mode trims the matrix to one kernel per
// label (rotating so all kernels stay covered) with the full
// storm-schedule seed sweep, which keeps the CI repro-smoke job under a
// minute.
func TestProbeCrossScheduleSoak(t *testing.T) {
	labels := soakLabels()
	kinds := workload.ProbeKinds()
	type soakCell struct {
		cell  study.ProbeCell
		label soakLabel
	}
	var cells []soakCell
	if testing.Short() {
		for i, label := range labels {
			spec := workload.DefaultProbeSpec(kinds[i%len(kinds)], workload.SizeSmall)
			spec.Companion = true
			storm := study.ProbeSchedules()[3]
			for _, seed := range soakSeeds {
				cells = append(cells, soakCell{study.ProbeCell{Spec: spec, Engine: label.engine, Sched: storm, Seed: seed}, label})
			}
		}
	} else {
		for _, kind := range kinds {
			spec := workload.DefaultProbeSpec(kind, workload.SizeSmall)
			spec.Companion = true
			for _, label := range labels {
				for _, sched := range study.ProbeSchedules()[1:] {
					for _, seed := range soakSeeds {
						cells = append(cells, soakCell{study.ProbeCell{Spec: spec, Engine: label.engine, Sched: sched, Seed: seed}, label})
					}
				}
				base := spec
				base.Companion = false
				cells = append(cells, soakCell{study.ProbeCell{Spec: base, Engine: label.engine, Sched: study.ProbeSchedules()[0]}, label})
			}
		}
	}

	// Every run and verdict table a cell may need exists before the
	// parallel subtests start, so they only read the maps.
	runs := map[study.ProbeCell]*soakRun{}
	verdicts := map[workload.ProbeSpec]*absint.Result{}
	for _, c := range cells {
		for _, eng := range study.ProbeEngines() {
			cell := c.cell
			cell.Engine = eng
			runs[cell] = &soakRun{}
		}
		if _, ok := verdicts[c.cell.Spec]; !ok && c.label.prune {
			probe, err := workload.BuildProbe(c.cell.Spec)
			if err != nil {
				t.Fatal(err)
			}
			verdicts[c.cell.Spec] = absint.Analyze(probe.Prog)
		}
	}
	runOf := func(cell study.ProbeCell, eng study.ProbeEngine) *soakRun {
		cell.Engine = eng
		r := runs[cell]
		r.once.Do(func() {
			var run *fpspy.Result
			if r.res, run = study.RunProbeCellTrace(cell); run != nil {
				r.obs, r.err = chaos.Observe(run)
			}
		})
		return r
	}

	results := make([]study.ProbeCellResult, len(cells))
	for i := range cells {
		i := i
		c := cells[i]
		t.Run(cellName(c.cell, c.label.name), func(t *testing.T) {
			t.Parallel()
			r := runOf(c.cell, c.label.engine)
			res := r.res
			results[i] = res
			if res.Err != "" {
				t.Fatalf("cell error: %s", res.Err)
			}
			if !res.Pass {
				if res.Negative {
					t.Fatalf("negative control not detected: recovered %s == expected %s", res.Fingerprint, res.Expected)
				}
				t.Fatalf("fingerprint changed: recovered %s (%s), expected %s", res.Fingerprint, res.Canonical, res.Expected)
			}
			if r.err != nil {
				t.Fatal(r.err)
			}
			if c.label.prune {
				for _, v := range absint.CheckSoundness(verdicts[c.cell.Spec], r.obs.Records) {
					t.Errorf("static verdict unsound: %s", v)
				}
			}
			if c.label.sb {
				engines := study.ProbeEngines()
				fast, precise := runOf(c.cell, engines[0]), runOf(c.cell, engines[1])
				if fast.obs == nil || precise.obs == nil {
					t.Fatalf("cell errors: fast %q %v, precise %q %v", fast.res.Err, fast.err, precise.res.Err, precise.err)
				}
				if err := chaos.Engine.Compare(fast.obs, precise.obs); err != nil {
					t.Fatal(err)
				}
			}
		})
	}

	t.Cleanup(func() {
		report := study.AssembleProbeReport(results)
		if len(report.Inconsistent) > 0 {
			t.Errorf("kernels recovered multiple distinct trees across cells: %v", report.Inconsistent)
		}
	})
}

func cellName(c study.ProbeCell, label string) string {
	var sb strings.Builder
	sb.WriteString(string(c.Spec.Kind))
	sb.WriteString("/")
	sb.WriteString(label)
	sb.WriteString("/")
	sb.WriteString(c.Sched.Name)
	if c.Sched.Name != "baseline" {
		sb.WriteString("/seed=")
		sb.WriteByte(byte('0' + c.Seed))
	}
	return sb.String()
}

// TestProbeMatrixWorkerCountInvariant runs the same cell list through a
// serial study and a 4-worker study and requires byte-identical report
// JSON — the study-parallelism axis of the matrix.
func TestProbeMatrixWorkerCountInvariant(t *testing.T) {
	seeds := soakSeeds
	if testing.Short() {
		seeds = seeds[:2]
	}
	var cells []study.ProbeCell
	storm := study.ProbeSchedules()[3]
	for i, eng := range study.ProbeEngines() {
		kinds := workload.ProbeKinds()
		spec := workload.DefaultProbeSpec(kinds[(i+3)%len(kinds)], workload.SizeSmall)
		spec.Companion = true
		for _, seed := range seeds {
			cells = append(cells, study.ProbeCell{Spec: spec, Engine: eng, Sched: storm, Seed: seed})
		}
	}
	render := func(workers int) []byte {
		t.Helper()
		s := study.NewWithWorkers(workers)
		var buf bytes.Buffer
		if err := s.ProbeMatrix(cells).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial, parallel := render(1), render(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("probe report differs between 1 and 4 workers:\nserial:   %s\nparallel: %s", serial, parallel)
	}
	var report study.ProbeReport
	if err := json.Unmarshal(serial, &report); err != nil {
		t.Fatal(err)
	}
	if report.Failures != 0 {
		t.Fatalf("matrix reported %d failures: %s", report.Failures, serial)
	}
}

// TestDefaultProbeCellsShape pins the matrix enumeration: every kind ×
// every engine × (1 baseline + 3 perturbed × seeds) cells.
func TestDefaultProbeCellsShape(t *testing.T) {
	seeds := []int64{0, 1}
	cells := study.DefaultProbeCells(workload.SizeSmall, seeds)
	kinds, engines := len(workload.ProbeKinds()), len(study.ProbeEngines())
	want := kinds * engines * (1 + 3*len(seeds))
	if len(cells) != want {
		t.Fatalf("matrix has %d cells, want %d", len(cells), want)
	}
	var names []string
	for _, e := range study.ProbeEngines() {
		names = append(names, e.Name)
	}
	if !reflect.DeepEqual(names, []string{"fast", "precise"}) {
		t.Fatalf("engine matrix is %v, want [fast precise]", names)
	}
}

// TestWriteProbeTraceRoundTrips checks the .fpemon export path: the
// bytes WriteProbeTrace emits decode as standard trace records, and the
// tree recovered from them carries the returned fingerprint.
func TestWriteProbeTraceRoundTrips(t *testing.T) {
	spec := workload.DefaultProbeSpec(workload.ProbeBlocked, workload.SizeSmall)
	var buf bytes.Buffer
	fp, err := study.WriteProbeTrace(spec, &buf)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	tree, err := analysis.RecoverProbeTree(recs)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Fingerprint() != fp {
		t.Fatalf("re-decoded fingerprint %s, want %s", tree.Fingerprint(), fp)
	}
	probe, err := workload.BuildProbe(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fp != probe.Expected.Fingerprint() {
		t.Fatalf("fingerprint %s, expected %s", fp, probe.Expected.Fingerprint())
	}
	if !reflect.DeepEqual(tree, probe.Expected) {
		t.Fatalf("recovered tree %s, expected %s", tree.Canonical(), probe.Expected.Canonical())
	}
}
