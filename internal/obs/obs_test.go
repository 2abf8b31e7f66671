package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-10)
	if got := g.Load(); got != -3 {
		t.Fatalf("gauge = %d, want -3", got)
	}
}

// TestGaugeSetMaxConcurrent: writers racing to raise a high-water mark
// never lower it, so the gauge ends at the largest value any of them
// offered; SetMax does not allocate.
func TestGaugeSetMaxConcurrent(t *testing.T) {
	const writers, per = 8, 500
	var g Gauge
	g.Set(-1)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// Interleave high and low offers so a lost update
				// would show as a lowered mark.
				g.SetMax(int64((i*writers+w)%(writers*per) - i%3*1000))
			}
		}(w)
	}
	wg.Wait()
	want := int64(0)
	for w := 0; w < writers; w++ {
		for i := 0; i < per; i++ {
			want = max(want, int64((i*writers+w)%(writers*per)-i%3*1000))
		}
	}
	if got := g.Load(); got != want {
		t.Fatalf("gauge = %d, want the maximum %d", got, want)
	}
	g.SetMax(want - 5)
	if got := g.Load(); got != want {
		t.Fatalf("a lower SetMax moved the gauge to %d", got)
	}
	if allocs := testing.AllocsPerRun(1000, func() { g.SetMax(7) }); allocs != 0 {
		t.Fatalf("SetMax allocates %.1f objects", allocs)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 100, ^uint64(0)} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if s.Min != 0 {
		t.Fatalf("min = %d, want 0", s.Min)
	}
	if s.Max != ^uint64(0) {
		t.Fatalf("max = %d, want MaxUint64", s.Max)
	}
	wantSum := uint64(106)
	wantSum += ^uint64(0) // wraps: 106 - 1 = 105
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
	// Bucket layout: value 0 in bucket bound 0, value 1 in bound 1,
	// values 2..3 in bound 3, value 100 in bound 127, MaxUint64 on top.
	var total uint64
	for _, bc := range s.Buckets {
		total += bc.N
	}
	if total != 6 {
		t.Fatalf("bucket total = %d, want 6", total)
	}
	if got := s.Mean(); got != float64(wantSum)/6 {
		t.Fatalf("mean = %v", got)
	}
}

func TestHistogramMinTracksSmallest(t *testing.T) {
	var h Histogram
	h.Observe(50)
	h.Observe(3)
	h.Observe(10)
	if s := h.snapshot(); s.Min != 3 || s.Max != 50 {
		t.Fatalf("min/max = %d/%d, want 3/50", s.Min, s.Max)
	}
}

func TestBucketBound(t *testing.T) {
	cases := map[int]uint64{-1: 0, 0: 0, 1: 1, 2: 3, 3: 7, 10: 1023, 64: ^uint64(0), 99: ^uint64(0)}
	for i, want := range cases {
		if got := BucketBound(i); got != want {
			t.Errorf("BucketBound(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestDisabledNilSafety(t *testing.T) {
	m := Disabled
	if m.Enabled() {
		t.Fatal("Disabled reports enabled")
	}
	if m.KernelMetricsOrNil() != nil || m.MachineMetricsOrNil() != nil ||
		m.SpyMetricsOrNil() != nil || m.StudyMetricsOrNil() != nil ||
		m.TracerOrNil() != nil {
		t.Fatal("disabled accessors must return nil")
	}
	if m.Uptime() != 0 {
		t.Fatal("disabled uptime must be 0")
	}
	var tr *Tracer
	tr.Emit(Event{})
	tr.Instant("c", "n", 0, 0, "", 0)
	tr.Complete("c", "n", 0, 0, 0, 0, "", 0)
	if tr.Emitted() != 0 || tr.Dropped() != 0 || tr.Capacity() != 0 || tr.Events() != nil || tr.Now() != 0 {
		t.Fatal("nil tracer must discard everything")
	}
	s := m.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatal("disabled snapshot must be empty")
	}
	StartSelfSampler(nil, time.Millisecond).Stop()
}

// TestDisabledHotPathAllocs pins the zero-overhead-when-off contract at
// the instrument level: touching a disabled handle the way instrumented
// code does must not allocate.
func TestDisabledHotPathAllocs(t *testing.T) {
	m := Disabled
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		if km := m.KernelMetricsOrNil(); km != nil {
			km.Signals[8].Inc()
		}
		tr.Instant("fpspy", "fault", 1, 1, "", 0)
	})
	if allocs != 0 {
		t.Fatalf("disabled hot path allocs/op = %v, want 0", allocs)
	}
}

// TestEnabledHotPathAllocs verifies the enabled instruments are also
// allocation-free per operation.
func TestEnabledHotPathAllocs(t *testing.T) {
	m := New(Options{TraceCapacity: 1024})
	allocs := testing.AllocsPerRun(1000, func() {
		m.Kernel.Signals[8].Inc()
		m.Spy.ProtocolNS.Observe(123)
		m.Tracer.Instant("fpspy", "fault", 1, 1, "", 0)
	})
	if allocs != 0 {
		t.Fatalf("enabled hot path allocs/op = %v, want 0", allocs)
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{TS: int64(i), Phase: PhaseInstant, Cat: "t", Name: "e"})
	}
	if tr.Emitted() != 10 {
		t.Fatalf("emitted = %d, want 10", tr.Emitted())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("len(events) = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.TS != want {
			t.Fatalf("events[%d].TS = %d, want %d (oldest-first order)", i, ev.TS, want)
		}
	}
}

func TestTracerNoDropsUnderCapacity(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 5; i++ {
		tr.Instant("t", "e", 0, 0, "", uint64(i))
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", tr.Dropped())
	}
	if got := len(tr.Events()); got != 5 {
		t.Fatalf("len(events) = %d, want 5", got)
	}
}

func TestExportJSONRoundTrip(t *testing.T) {
	tr := NewTracer(16)
	tr.Instant("fpspy", "fault", 3, 7, "signal", 8)
	tr.Complete("study", "pass", 0, 0, 100, 250, "cycles", 9000)
	tr.Emit(Event{TS: 400, Phase: PhaseBegin, Cat: "proto", Name: "twotrap", PID: 3, TID: 7})
	tr.Emit(Event{TS: 500, Phase: PhaseEnd, Cat: "proto", Name: "twotrap", PID: 3, TID: 7})

	var buf bytes.Buffer
	if err := tr.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseTraceJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Events()
	if len(got) != len(want) {
		t.Fatalf("round-trip length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d round-trip mismatch:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestParseTraceJSONRejects(t *testing.T) {
	bad := []string{
		``,
		`{`,
		`[]`,
		`{"events":[{"ts":1,"pid":0,"tid":0,"ph":"Q","cat":"c","name":"n"}],"emitted":1,"dropped":0}`,
		`{"events":[{"ts":-1,"pid":0,"tid":0,"ph":"i","cat":"c","name":"n"}],"emitted":1,"dropped":0}`,
		`{"events":[{"ts":1,"dur":5,"pid":0,"tid":0,"ph":"i","cat":"c","name":"n"}],"emitted":1,"dropped":0}`,
		`{"events":[],"emitted":0,"dropped":0,"bogus":1}`,
		`{"events":[],"emitted":0,"dropped":0}{"events":[]}`,
	}
	for _, in := range bad {
		if _, err := ParseTraceJSON([]byte(in)); err == nil {
			t.Errorf("ParseTraceJSON(%q) accepted malformed input", in)
		}
	}
}

func TestExportChromeTrace(t *testing.T) {
	tr := NewTracer(8)
	tr.Complete("study", "pass", 0, 0, 2_000, 3_500, "cycles", 77)
	var buf bytes.Buffer
	if err := tr.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			TS   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Args map[string]uint64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 1 {
		t.Fatalf("traceEvents = %d, want 1", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[0]
	if ev.Ph != "X" || ev.TS != 2.0 || ev.Dur != 3.5 {
		t.Fatalf("chrome event = %+v; want ph=X ts=2.0us dur=3.5us", ev)
	}
	if ev.Args["cycles"] != 77 {
		t.Fatalf("args = %v, want cycles=77", ev.Args)
	}
}

func TestSnapshotNamesAndJSON(t *testing.T) {
	m := New(Options{TraceCapacity: 32})
	m.Kernel.Signals[8].Add(5)
	m.Kernel.FastBatch.Observe(64)
	m.Spy.Faults.Add(5)
	m.Study.PassesExecuted.Inc()
	m.Study.WorkersBusy.Set(2)
	m.Tracer.Instant("t", "e", 0, 0, "", 0)

	s := m.Snapshot()
	if got := s.Counters[KernelSignalCounterName(8)]; got != 5 {
		t.Fatalf("kernel.signal.SIGFPE = %d, want 5", got)
	}
	if got := s.Counters[NameSpyFaults]; got != 5 {
		t.Fatalf("%s = %d, want 5", NameSpyFaults, got)
	}
	if got := s.Counters[NameStudyPassesExecuted]; got != 1 {
		t.Fatalf("%s = %d, want 1", NameStudyPassesExecuted, got)
	}
	if got := s.Gauges["study.workers-busy"]; got != 2 {
		t.Fatalf("study.workers-busy = %d, want 2", got)
	}
	if got := s.Histograms["kernel.fast.batch-length"].Count; got != 1 {
		t.Fatalf("fast batch hist count = %d, want 1", got)
	}
	if s.TraceEmitted != 1 || s.TraceDropped != 0 {
		t.Fatalf("trace stats = %d/%d, want 1/0", s.TraceEmitted, s.TraceDropped)
	}
	// Zero counters are omitted.
	if _, ok := s.Counters[KernelSignalCounterName(11)]; ok {
		t.Fatal("zero counter must be omitted from snapshot")
	}

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.Counters[NameSpyFaults] != 5 || back.Gauges["study.workers-busy"] != 2 {
		t.Fatalf("snapshot JSON round-trip lost data: %+v", back)
	}
	if _, err := ParseSnapshot([]byte("not json")); err == nil {
		t.Fatal("ParseSnapshot accepted garbage")
	}
}

func TestSignalNames(t *testing.T) {
	cases := map[int]string{4: "SIGILL", 5: "SIGTRAP", 8: "SIGFPE", 9: "SIGKILL",
		11: "SIGSEGV", 14: "SIGALRM", 26: "SIGVTALRM", 3: "sig3"}
	for n, want := range cases {
		if got := signalName(n); got != want {
			t.Errorf("signalName(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestRenderSummaryAndDashboard(t *testing.T) {
	m := New(Options{TraceCapacity: 8})
	m.Spy.Faults.Add(3)
	m.Study.WorkersBusy.Set(1)
	m.Kernel.FastBatch.Observe(10)
	m.Kernel.FastBatch.Observe(200)
	s := m.Snapshot()

	sum := RenderSummary(s)
	for _, want := range []string{NameSpyFaults, "study.workers-busy", "kernel.fast.batch-length", "trace:"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
	dash := RenderDashboard(s)
	if !strings.Contains(dash, "fpmon") || !strings.Contains(dash, NameSpyFaults) {
		t.Errorf("dashboard missing expected content:\n%s", dash)
	}
	// Empty snapshot renders without panicking.
	_ = RenderSummary(Snapshot{})
	_ = RenderDashboard(Snapshot{})
}

func TestServeEndpoints(t *testing.T) {
	m := New(Options{TraceCapacity: 8})
	m.Spy.Faults.Add(9)
	m.Tracer.Instant("t", "e", 0, 0, "", 0)
	srv, err := Serve("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatalf("metrics endpoint: %v", err)
	}
	if snap.Counters[NameSpyFaults] != 9 {
		t.Fatalf("metrics endpoint faults = %d, want 9", snap.Counters[NameSpyFaults])
	}
	var chrome map[string]json.RawMessage
	if err := json.Unmarshal(get("/trace"), &chrome); err != nil {
		t.Fatalf("trace endpoint: %v", err)
	}
	if _, ok := chrome["traceEvents"]; !ok {
		t.Fatal("trace endpoint missing traceEvents")
	}
	if body := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Fatal("pprof cmdline endpoint empty")
	}
}

func TestSelfSampler(t *testing.T) {
	m := New(Options{TraceCapacity: 64})
	m.Study.WorkersBusy.Set(3)
	s := StartSelfSampler(m, time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for m.Self.Samples.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	if m.Self.Samples.Load() < 2 {
		t.Fatal("self sampler never ticked")
	}
	if m.Self.Goroutines.Load() <= 0 {
		t.Fatal("goroutine gauge not sampled")
	}
	if m.Self.WorkersBusySamples.Count() == 0 {
		t.Fatal("workers-busy histogram not sampled")
	}
	if hs := m.Self.WorkersBusySamples.snapshot(); hs.Max != 3 {
		t.Fatalf("workers-busy sample max = %d, want 3", hs.Max)
	}
}

// TestConcurrentInstruments exercises every instrument type from many
// goroutines; run under -race this is the package-level race check.
func TestConcurrentInstruments(t *testing.T) {
	m := New(Options{TraceCapacity: 128})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Kernel.Signals[8].Inc()
				m.Spy.ProtocolNS.Observe(uint64(i))
				m.Study.WorkersBusy.Add(1)
				m.Study.WorkersBusy.Add(-1)
				m.Tracer.Instant("t", "e", g, i, "", 0)
				if i%100 == 0 {
					_ = m.Snapshot()
					_ = m.Tracer.Events()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := m.Kernel.Signals[8].Load(); got != 8000 {
		t.Fatalf("signal counter = %d, want 8000", got)
	}
	if got := m.Spy.ProtocolNS.Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
	if got := m.Tracer.Emitted(); got != 8000 {
		t.Fatalf("tracer emitted = %d, want 8000", got)
	}
}
