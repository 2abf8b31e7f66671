// Command bench is the repository benchmark. It drives one workload
// through the public entry points of the FPSpy reproduction's layers —
// fpspy.Run, the study scheduler, the shadow-precision matrix, and the
// fpspyd daemon and cluster over HTTP — for a fixed window, checks every
// output, and prints one JSON result line:
//
//	bash bench/run.sh --workload trap-storm --seed 1 --seconds 20 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced
// run (--trace 1) records the benchmark's own spans around each layer
// call, reads the program's obs counters and the Go runtime's metrics,
// replays the workload's programs through per-layer attribution legs,
// and reports the per-layer metrics; it also writes a self-time table
// and a Chrome trace under --trace-dir. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool
	pin      bool
	traceDir string
	// round is the operation index a study child process runs.
	round int
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// setup prepares inputs and starts whatever the operations need. om
	// is the registry traced operations feed (nil when untraced); a
	// workload that owns long-lived instrumented parts (the service
	// cluster) wires it in here.
	setup func(c config, om *obs.Metrics) (runner, error)
	// programs builds the guest programs the traced run's attribution
	// legs replay: the workload's own inputs.
	programs func(c config) []namedProgram
}

// runner is a set-up workload.
type runner interface {
	// measure runs operations until the meter's window closes.
	measure(m *meter)
	// layers adds the workload's own per-layer metrics, from the traced
	// operations and the attribution legs, to out.
	layers(m *meter, legs *legResult, out map[string]float64)
	close()
}

var workloads = []workloadDef{
	{name: "study", setup: newStudyBench, programs: studyPrograms},
	{name: "trap-storm", setup: newTrapBench, programs: trapPrograms},
	{name: "rootcause", setup: newRootBench, programs: rootPrograms},
	{name: "service", setup: newServiceBench, programs: servicePrograms},
}

func lookupWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var c config
	var trace int
	fs.StringVar(&c.workload, "workload", "", "workload to run: study, trap-storm, rootcause or service")
	fs.Int64Var(&c.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&c.seconds, "seconds", 20, "length of the measurement window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 makes this the traced run, which reports per-layer metrics instead of end-to-end ones")
	fs.BoolVar(&c.short, "short", false, "smoke-test scale: small inputs and a single set-up")
	fs.BoolVar(&c.pin, "pin", false, "record the exact per-operation counts into pins.json instead of checking them")
	fs.StringVar(&c.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "directory for a traced run's self-time table and Chrome trace")
	fs.IntVar(&c.round, "round", 0, "operation index (study child processes)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return c, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if c.seconds <= 0 {
		return c, fmt.Errorf("--seconds must be positive, got %g", c.seconds)
	}
	c.trace = trace == 1
	_, err := lookupWorkload(c.workload)
	return c, err
}

func main() {
	if len(os.Args) > 2 && os.Args[1] == "--child" {
		os.Exit(childMain(os.Args[2], os.Args[3:]))
	}
	c, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	res, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sample is one completed operation.
type sample struct {
	class  string
	ms     float64
	traced bool
	// Service jobs: the submit and result-stream legs, and whether the
	// job's content address is owned by the other node.
	submitMS, resultMS float64
	forwarded          bool
}

// meter runs and records the measurement window.
type meter struct {
	c      config
	window time.Duration
	// rec and om are non-nil in a traced run; only traced operations
	// use them.
	rec *recorder
	om  *obs.Metrics

	traceSeq atomic.Uint64

	mu       sync.Mutex
	samples  []sample
	failed   int
	elapsed  time.Duration
	rt       rtStats // runtime deltas over the traced operations
	obsDelta counts  // obs deltas over the traced operations
}

func newMeter(c config) *meter {
	m := &meter{c: c, window: time.Duration(c.seconds * float64(time.Second))}
	if c.trace {
		m.rec = &recorder{}
		m.om = obs.New(obs.Options{})
	}
	return m
}

// opCtx is what one operation needs to trace itself: span recording
// and the obs registry are both nil for an untraced operation.
type opCtx struct {
	rec    *recorder
	om     *obs.Metrics
	trace  uint64
	parent uint64
	lane   int
}

func (o opCtx) traced() bool { return o.rec != nil }

// span runs fn inside a child span of o's current span.
func (o opCtx) span(name string, fn func(o opCtx) error) error {
	return o.rec.span(o.trace, o.parent, name, o.lane, func(id uint64) error {
		c := o
		c.parent = id
		return fn(c)
	})
}

// op runs one operation as the root span of a fresh trace and records
// its sample; an error marks the operation failed.
func (m *meter) op(class string, lane int, traced bool, fn func(o opCtx, s *sample) error) {
	o := opCtx{trace: m.traceSeq.Add(1), lane: lane}
	if traced {
		o.rec, o.om = m.rec, m.om
	}
	s := sample{class: class, traced: traced}
	start := time.Now()
	err := o.rec.span(o.trace, 0, class, lane, func(id uint64) error {
		o.parent = id
		return fn(o, &s)
	})
	s.ms = msSince(start)
	m.record(s, err)
}

func (m *meter) record(s sample, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.samples = append(m.samples, s)
	if err != nil {
		m.failed++
		if m.failed <= 5 {
			fmt.Fprintf(os.Stderr, "bench: %s operation failed: %v\n", s.class, err)
		}
	}
}

// addRuntime accumulates runtime and obs deltas of traced work.
func (m *meter) addRuntime(rt rtStats, c counts) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rt = m.rt.add(rt)
	m.obsDelta = m.obsDelta.add(c)
}

// serial runs operations back to back until the window closes, never
// starting one that would, by the median so far, end past it. In a
// traced run the operations alternate untraced and traced, so the run
// also measures what tracing costs.
func (m *meter) serial(class string, fn func(o opCtx) error) {
	start := time.Now()
	var durs []float64
	minOps := 1
	if m.c.trace {
		minOps = 2
	}
	for i := 0; ; i++ {
		if i >= minOps && time.Since(start)+time.Duration(median(durs)*float64(time.Millisecond)) > m.window {
			break
		}
		traced := m.c.trace && i%2 == 1
		var rt0 rtStats
		var obs0 counts
		if traced {
			rt0, obs0 = readRuntime(), countsOf(m.om.Snapshot())
		}
		t0 := time.Now()
		m.op(class, 0, traced, func(o opCtx, _ *sample) error { return fn(o) })
		durs = append(durs, msSince(t0))
		if traced {
			m.addRuntime(readRuntime().sub(rt0), countsOf(m.om.Snapshot()).sub(obs0))
		}
	}
	m.mu.Lock()
	m.elapsed += time.Since(start)
	m.mu.Unlock()
}

// classMS returns the latencies of the samples matching class ("" for
// every class) and traced.
func (m *meter) classMS(class string, traced bool) []float64 {
	var out []float64
	for _, s := range m.samples {
		if (class == "" || s.class == class) && s.traced == traced {
			out = append(out, s.ms)
		}
	}
	return out
}

func (m *meter) tracedOps() int { return len(m.classMS("", true)) }

func run(c config) (*result, error) {
	def, err := lookupWorkload(c.workload)
	if err != nil {
		return nil, err
	}
	m := newMeter(c)
	out := map[string]float64{}

	var setupS float64
	var legs *legResult
	if c.trace {
		// Before anything in this process analyzes them, so the static
		// analysis is measured cold.
		legs = &legResult{progs: buildPrograms(def, c, out)}
		analyzeCold(legs.progs, out)
	} else if setupS, err = timeSetup(c); err != nil {
		return nil, err
	}

	w, err := def.setup(c, m.om)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer w.close()

	cpu0, _ := rusage()
	w.measure(m)
	cpu1, rssKB := rusage()

	res := &result{Attempted: len(m.samples), Failed: m.failed, Metrics: map[string]metric{}}
	if res.Attempted == 0 {
		return nil, errors.New("no operation completed")
	}
	defs := endToEnd
	if c.trace {
		defs = perLayer
		if err := runLegs(c, legs, out); err != nil {
			return nil, err
		}
		w.layers(m, legs, out)
		runtimeLayers(m, out)
		if err := writeTrace(c, m.rec.all()); err != nil {
			return nil, err
		}
	} else {
		ops := float64(res.Attempted)
		all := median(m.classMS("", false))
		out["op_p50_ms"], out["miss_p50_ms"], out["shadow_p50_ms"] = all, all, all
		if c.workload == "service" {
			out["miss_p50_ms"] = median(m.classMS(classMiss, false))
			out["shadow_p50_ms"] = median(m.classMS(classShadow, false))
		}
		out["ops_per_s"] = ops / m.elapsed.Seconds()
		out["cpu_ms_per_op"] = float64(cpu1-cpu0) / float64(time.Millisecond) / ops
		out["peak_rss_mb"] = float64(rssKB) / 1024
		out["setup_s"] = setupS
	}
	for _, d := range defs {
		v, ok := out[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	res.Correct = res.Failed == 0
	if c.pin {
		if err := pins.save(); err != nil {
			return nil, err
		}
	}
	report(os.Stderr, c, m, res)
	return res, nil
}

// timeSetup is the set-up time, measured cold: fresh processes each
// start, set the workload up (inputs, reference outputs, the service
// cluster and its warm cache), complete the first operation — where
// lazily filled caches are paid for — and exit. The median of several
// is reported.
func timeSetup(c config) (float64, error) {
	reps := 3
	if c.short {
		reps = 1
	}
	var secs []float64
	for i := 0; i < reps; i++ {
		cmd, err := childCommand(c, "setup")
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if out, err := cmd.CombinedOutput(); err != nil {
			return 0, fmt.Errorf("set-up process: %v: %s", err, out)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

// childCommand re-executes this binary in a child mode.
func childCommand(c config, mode string) (*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--child", mode, "--workload", c.workload,
		"--seed", strconv.FormatInt(c.seed, 10), "--round", strconv.Itoa(c.round)}
	if c.trace {
		args = append(args, "--trace", "1")
	}
	if c.short {
		args = append(args, "--short")
	}
	return exec.Command(self, args...), nil
}

// childMain runs a child process: "setup" sets the workload up, runs
// its first operation and exits; "study" runs one study round and
// reports it on stdout.
func childMain(mode string, args []string) int {
	c, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 2
	}
	switch mode {
	case "setup":
		def, _ := lookupWorkload(c.workload)
		w, err := def.setup(c, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			return 1
		}
		defer w.close()
		m := newMeter(c)
		m.window = 0
		if w.measure(m); m.failed > 0 {
			fmt.Fprintln(os.Stderr, "bench child: first operation failed")
			return 1
		}
		return 0
	case "study":
		if err := json.NewEncoder(os.Stdout).Encode(studyRound(c)); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(os.Stderr, "bench child: unknown mode %q\n", mode)
	return 2
}

// rusage returns the CPU time of this process and its waited-for
// children, and the largest resident set any of them reached, in KiB.
func rusage() (cpu time.Duration, maxRSSKB int64) {
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			continue
		}
		cpu += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		maxRSSKB = max(maxRSSKB, ru.Maxrss)
	}
	return cpu, maxRSSKB
}

// writeTrace writes a traced run's self-time table and Chrome trace,
// and prints the table.
func writeTrace(c config, spans []Span) error {
	if err := os.MkdirAll(c.traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(c.traceDir, fmt.Sprintf("%s-seed%d", c.workload, c.seed))
	var table strings.Builder
	writeSelfTimes(&table, selfTimes(spans))
	if err := os.WriteFile(base+".selftime.txt", []byte(table.String()), 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "self time by span (%s.trace.json):\n%s", base, table.String())
	return nil
}

// report prints the human-readable summary.
func report(w io.Writer, c config, m *meter, res *result) {
	mode := "untraced"
	if c.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s seed %d, %s run: %d operations, %d failed, window %.1fs\n",
		c.workload, c.seed, mode, res.Attempted, res.Failed, m.elapsed.Seconds())
	classes := map[string]bool{}
	for _, s := range m.samples {
		classes[s.class] = true
	}
	var names []string
	for cl := range classes {
		names = append(names, cl)
	}
	sort.Strings(names)
	for _, cl := range names {
		fmt.Fprintf(w, "  %-18s untraced %s\n", cl, summarize(m.classMS(cl, false)))
		if c.trace {
			fmt.Fprintf(w, "  %-18s traced   %s\n", cl, summarize(m.classMS(cl, true)))
		}
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// repoFile resolves a path relative to the repository root from either
// the root (where the benchmark runs) or bench/ (where its tests run).
func repoFile(rel string) string {
	if _, err := os.Stat(rel); err == nil {
		return rel
	}
	return filepath.Join("..", rel)
}
