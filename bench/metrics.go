package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync"

	"repro/internal/obs"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same names; the smoke test holds the
// two in step.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics. An operation is one study
// regeneration, one trap-storm round, one root-cause matrix, or one
// service job. miss_p50_ms and shadow_p50_ms are the medians of the
// service's miss and shadow jobs; every other workload runs a single
// class of operation and reports its median under both.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms"},
	{"miss_p50_ms", "ms"},
	{"shadow_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics, bottom layer first. Counts and
// fractions read 0 where a workload does not exercise the layer, and the
// jobs, server and cluster metrics read 0 on every workload but service;
// every other time is measured on every workload, on its own programs.
var perLayer = []metricDef{
	{"softfloat.ns_per_op", "ns"},
	{"flop.per_op", "count"},
	{"machine.ns_per_inst", "ns"},
	{"guest.steps_per_op", "count"},
	{"kernel.fast_frac", "frac"},
	{"kernel.batch_mean", "count"},
	{"absint.analyze_ms", "ms"},
	{"prune.quiet_frac", "frac"},
	{"workload.build_ms", "ms"},
	{"core.ns_per_trap", "ns"},
	{"core.protocol_ns_mean", "ns"},
	{"core.faults_per_op", "count"},
	{"kernel.signals_per_fault", "count"},
	{"trace.decode_ns_per_rec", "ns"},
	{"shadow.ns_per_op", "ns"},
	{"shadow.allocs_per_op", "count"},
	{"shadow.ops_per_op", "count"},
	{"adaptive.ns_per_emulated", "ns"},
	{"study.passes_per_op", "count"},
	{"study.dedupe_ratio", "ratio"},
	{"study.pool_util", "frac"},
	{"study.assemble_frac", "frac"},
	{"sched.critical_frac", "frac"},
	{"jobs.encode_us", "us"},
	{"jobs.decode_us", "us"},
	{"server.cachekey_us", "us"},
	{"server.pass_ms_p50", "ms"},
	{"server.hit_submit_ms_p50", "ms"},
	{"server.hit_result_ms_p50", "ms"},
	{"server.miss_submit_ms_p50", "ms"},
	{"server.miss_result_ms_p50", "ms"},
	{"server.shadow_ms_p50", "ms"},
	{"server.miss_overhead_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.queue_depth_max", "count"},
	{"cluster.forward_frac", "frac"},
	{"cluster.forward_ms_mean", "ms"},
	{"cluster.fwd_extra_ms", "ms"},
	{"cluster.hedges", "count"},
	{"cluster.retries", "count"},
	{"cluster.rpc_errors", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cycles_per_op", "count"},
	{"bench.trace_overhead_frac", "frac"},
}

// counts is the additive part of an obs snapshot: counters, and each
// histogram's count, sum and maximum.
type counts struct {
	C, Count, Sum, Max map[string]float64
}

func newCounts() counts {
	return counts{C: map[string]float64{}, Count: map[string]float64{}, Sum: map[string]float64{}, Max: map[string]float64{}}
}

func countsOf(s obs.Snapshot) counts {
	c := newCounts()
	for k, v := range s.Counters {
		c.C[k] = float64(v)
	}
	for k, h := range s.Histograms {
		c.Count[k], c.Sum[k], c.Max[k] = float64(h.Count), float64(h.Sum), float64(h.Max)
	}
	return c
}

// add sums two deltas (the maximum of the maxima).
func (a counts) add(b counts) counts {
	out := newCounts()
	for _, src := range []counts{a, b} {
		for k, v := range src.C {
			out.C[k] += v
		}
		for k, v := range src.Count {
			out.Count[k] += v
		}
		for k, v := range src.Sum {
			out.Sum[k] += v
		}
		for k, v := range src.Max {
			out.Max[k] = max(out.Max[k], v)
		}
	}
	return out
}

// sub is the delta from b to a; maxima are a's.
func (a counts) sub(b counts) counts {
	out := newCounts()
	for k, v := range a.C {
		out.C[k] = v - b.C[k]
	}
	for k, v := range a.Count {
		out.Count[k] = v - b.Count[k]
	}
	for k, v := range a.Sum {
		out.Sum[k] = v - b.Sum[k]
	}
	for k, v := range a.Max {
		out.Max[k] = v
	}
	return out
}

// steps is the retired guest instruction count.
func (a counts) steps() float64 {
	return a.C[obs.NameKernelFastSteps] + a.C[obs.NameKernelPreciseSteps]
}

// flops is the FLOP count, masked-off lanes excluded.
func (a counts) flops() float64 {
	var n float64
	for k, v := range a.C {
		if strings.HasPrefix(k, "flop.") && k != obs.NameFlopMaskedSkipped {
			n += v
		}
	}
	return n
}

// obsLayers derives the per-operation counts and engine fractions from
// the obs deltas of ops traced operations.
func obsLayers(c counts, ops float64, out map[string]float64) {
	steps := c.steps()
	out["guest.steps_per_op"] = ratio(steps, ops)
	out["flop.per_op"] = ratio(c.flops(), ops)
	out["core.faults_per_op"] = ratio(c.C[obs.NameSpyFaults], ops)
	out["shadow.ops_per_op"] = ratio(c.C[obs.NameShadowOps], ops)
	out["kernel.fast_frac"] = ratio(c.C[obs.NameKernelFastSteps], steps)
	out["kernel.batch_mean"] = ratio(c.Sum["kernel.fast.batch-length"], c.Count["kernel.fast.batch-length"])
	out["prune.quiet_frac"] = ratio(c.C[obs.NameMachineQuietSteps], steps)
	out["study.passes_per_op"] = ratio(c.C[obs.NameStudyPassesExecuted], ops)
	out["study.dedupe_ratio"] = ratio(c.C[obs.NameStudyPassRequests], c.C[obs.NameStudyPassesExecuted])
}

// noStudyLayers fills the scheduler fractions for workloads that do not
// run the figure pipeline; rootcause then sets its own critical path.
func noStudyLayers(out map[string]float64) {
	out["study.pool_util"] = 0
	out["study.assemble_frac"] = 0
	out["sched.critical_frac"] = 0
}

// noServiceLayers fills the jobs, server and cluster metrics for
// workloads that do not run the daemons: only the service workload's own
// load measures them.
func noServiceLayers(out map[string]float64) {
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "jobs.") || strings.HasPrefix(d.name, "server.") || strings.HasPrefix(d.name, "cluster.") {
			out[d.name] = 0
		}
	}
}

// rtStats are Go runtime counters (runtime/metrics), additive.
type rtStats struct {
	GCCycles, AllocBytes, AllocObjects, GCCPU, TotalCPU float64
}

var rtNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtStats {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return rtStats{GCCycles: v[0], AllocBytes: v[1], AllocObjects: v[2] + v[3], GCCPU: v[4], TotalCPU: v[5]}
}

func (a rtStats) add(b rtStats) rtStats {
	return rtStats{a.GCCycles + b.GCCycles, a.AllocBytes + b.AllocBytes, a.AllocObjects + b.AllocObjects,
		a.GCCPU + b.GCCPU, a.TotalCPU + b.TotalCPU}
}

func (a rtStats) sub(b rtStats) rtStats {
	return rtStats{a.GCCycles - b.GCCycles, a.AllocBytes - b.AllocBytes, a.AllocObjects - b.AllocObjects,
		a.GCCPU - b.GCCPU, a.TotalCPU - b.TotalCPU}
}

// runtimeLayers reports the Go runtime's share per traced operation and
// what tracing cost: the traced operations' median against the
// untraced ones' in the same run.
func runtimeLayers(m *meter, out map[string]float64) {
	ops := float64(m.tracedOps())
	out["runtime.gc_cpu_frac"] = ratio(m.rt.GCCPU, m.rt.TotalCPU)
	out["runtime.alloc_mb_per_op"] = ratio(m.rt.AllocBytes/(1<<20), ops)
	out["runtime.allocs_per_op"] = ratio(m.rt.AllocObjects, ops)
	out["runtime.gc_cycles_per_op"] = ratio(m.rt.GCCycles, ops)
	out["bench.trace_overhead_frac"] = ratio(median(m.classMS("", true)), median(m.classMS("", false))) - 1
}

//go:embed pins.json
var pinsJSON []byte

// pinSet holds the exact per-operation counts the checks compare
// against — steps, records, faults, FLOPs, shadow ops, passes — by
// scope (the workload, plus "/short" at smoke scale). Pinning them
// means a change that does less work fails the check instead of
// reading as faster.
type pinSet struct {
	mu   sync.Mutex
	want map[string]map[string]uint64
	got  map[string]map[string]uint64
}

var pins = func() *pinSet {
	p := &pinSet{got: map[string]map[string]uint64{}}
	if err := json.Unmarshal(pinsJSON, &p.want); err != nil {
		panic(fmt.Sprintf("bench: pins.json: %v", err))
	}
	return p
}()

func pinScope(c config) string {
	if c.short {
		return c.workload + "/short"
	}
	return c.workload
}

// check compares one count with its pin; with --pin it records the
// count instead, still requiring it to repeat exactly within the run.
func (p *pinSet) check(c config, key string, got uint64) error {
	scope := pinScope(c)
	p.mu.Lock()
	defer p.mu.Unlock()
	if c.pin {
		seen := p.got[scope]
		if seen == nil {
			seen = map[string]uint64{}
			p.got[scope] = seen
		}
		if prev, ok := seen[key]; ok && prev != got {
			return fmt.Errorf("%s %s not repeatable: %d then %d", scope, key, prev, got)
		}
		seen[key] = got
		return nil
	}
	want, ok := p.want[scope][key]
	if !ok {
		return fmt.Errorf("no pinned count for %s %s (record one with --pin)", scope, key)
	}
	if got != want {
		return fmt.Errorf("%s %s = %d, pinned %d", scope, key, got, want)
	}
	return nil
}

// save merges the recorded counts into bench/pins.json.
func (p *pinSet) save() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	path := repoFile(filepath.Join("bench", "pins.json"))
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	merged := map[string]map[string]uint64{}
	if err := json.Unmarshal(data, &merged); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for scope, kv := range p.got {
		if merged[scope] == nil {
			merged[scope] = map[string]uint64{}
		}
		for k, v := range kv {
			merged[scope][k] = v
		}
	}
	if data, err = json.MarshalIndent(merged, "", "  "); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
