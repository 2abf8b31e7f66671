package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// workload re-executes itself as a set-up or study child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == "--child" {
		os.Exit(childMain(os.Args[2], os.Args[3:]))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of the repository's BENCHMARK.json the
// benchmark's code must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(repoFile("BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestBenchmarkFileMatchesCode holds BENCHMARK.json and the code's
// workload and metric lists in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(f.Workloads), len(workloads))
	}
	for i := range f.Workloads {
		if i < len(workloads) && f.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, f.Workloads[i].Name, workloads[i].name)
		}
	}
	check := func(kind string, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, code []metricDef) {
		want := map[string]string{}
		for _, d := range code {
			want[d.name] = d.unit
		}
		got := map[string]string{}
		for _, m := range file {
			got[m.Name] = m.Unit
		}
		for name, unit := range want {
			if got[name] != unit {
				t.Errorf("%s metric %s: BENCHMARK.json unit %q, code %q", kind, name, got[name], unit)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s metric %s is in BENCHMARK.json but the code does not emit it", kind, name)
			}
		}
	}
	check("end-to-end", f.EndToEnd, endToEnd)
	check("per-layer", f.PerLayer, perLayer)
}

// TestSmoke runs every workload at smoke scale, untraced and traced,
// and requires every operation to succeed and exactly the metrics of
// BENCHMARK.json, with their units, to be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := loadBenchmarkFile(t)
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range f.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range f.PerLayer {
		units[true][m.Name] = m.Unit
	}
	for _, w := range f.Workloads {
		for _, traced := range []bool{false, true} {
			c := config{workload: w.Name, seed: 1, seconds: 0.5, trace: traced, short: true, traceDir: t.TempDir()}
			res, err := run(c)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d operations failed", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := units[traced]
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json has %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for name, m := range res.Metrics {
				if want[name] != m.Unit {
					t.Errorf("%s traced=%v: metric %s in %q, BENCHMARK.json says %q", w.Name, traced, name, m.Unit, want[name])
				}
			}
			if traced && res.Metrics["kernel.signals_per_fault"].Value != 2 {
				t.Errorf("%s: %v signals per fault, want exactly 2", w.Name, res.Metrics["kernel.signals_per_fault"].Value)
			}
		}
	}
}
