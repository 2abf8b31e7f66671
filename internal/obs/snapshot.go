package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// signalName names the Linux x86-64 signal numbers the simulated kernel
// delivers. The table mirrors internal/kernel's Signal constants; obs
// cannot import kernel (kernel imports obs), so the few numbers are
// restated here.
func signalName(n int) string {
	switch n {
	case 4:
		return "SIGILL"
	case 5:
		return "SIGTRAP"
	case 8:
		return "SIGFPE"
	case 9:
		return "SIGKILL"
	case 11:
		return "SIGSEGV"
	case 14:
		return "SIGALRM"
	case 26:
		return "SIGVTALRM"
	}
	return fmt.Sprintf("sig%d", n)
}

// Snapshot is a point-in-time, name-keyed copy of every instrument —
// what -metrics prints, /metrics serves, and the reconciliation tests
// compare against the trace.
type Snapshot struct {
	// UptimeNS is the metrics handle's age at snapshot time.
	UptimeNS int64 `json:"uptimeNS"`
	// Counters, Gauges, and Histograms are the flattened instruments.
	// Counters at zero are omitted, so the maps list what happened.
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	// TraceEmitted and TraceDropped account for the tracer ring.
	TraceEmitted uint64 `json:"traceEmitted"`
	TraceDropped uint64 `json:"traceDropped"`
}

// Counter names used by Snapshot; tests reference these rather than
// restating strings.
const (
	NameSpyFaults           = "spy.faults"
	NameSpyRecords          = "spy.records"
	NameStudyPassRequests   = "study.pass.requests"
	NameStudyPassesExecuted = "study.pass.executed"
	NameStudyPassErrors     = "study.pass.errors"
	NameKernelFastSteps     = "kernel.fast.steps"
	NameKernelPreciseSteps  = "kernel.precise.steps"
	NameServerSubmissions   = "server.submissions"
	NameServerCacheHits     = "server.cache.hits"
	NameServerCacheMisses   = "server.cache.misses"
	NameServerRateLimited   = "server.rate-limited"
	NameServerShed          = "server.shed"
	NameServerQueueDepth    = "server.queue-depth"
	NameClusterForwards     = "cluster.forwards"
	NameClusterEvictions    = "cluster.evictions"
	NameClusterPartition    = "cluster.partition-local"
	NameFlopMaskedSkipped   = "flop.masked-skipped"
	NameShadowChannels      = "shadow.channels"
	NameShadowOps           = "shadow.ops"
	NameShadowSites         = "shadow.sites"
)

// NameClusterHedges is retired: it counted hedged requests of the
// removed cluster hedging, and no snapshot emits it any more. It stays
// declared because the benchmark reads it; a lookup of it reads 0.
const NameClusterHedges = "cluster.hedges"

// NameMachineQuietSteps is retired: it counted instructions retired on
// the native lane of the removed static trap-site pruning, and no
// snapshot emits it any more. It stays declared so readers of older
// snapshots keep compiling; a lookup of it reads 0.
const NameMachineQuietSteps = "machine.quiet.steps"

// flopOpNames orders the FlopMetrics op groups for flattening; the
// indices match flopOpCounters.
var flopOpNames = [...]string{"add", "sub", "mul", "div", "sqrt", "min", "max",
	"fma", "convert", "compare", "round"}

// flopPrecNames names the FlopPrecisions indices (0 = binary64).
var flopPrecNames = [FlopPrecisions]string{"double", "single"}

// FlopCounterName returns the snapshot key of one FLOP counter, e.g.
// FlopCounterName("fma", 0) == "flop.fma.double". prec indexes
// FlopPrecisions (0 double, 1 single).
func FlopCounterName(op string, prec int) string {
	return "flop." + op + "." + flopPrecNames[prec]
}

// flopOpCounters returns the per-precision counter arrays in
// flopOpNames order (all nil for a nil receiver).
func (f *FlopMetrics) flopOpCounters() [len(flopOpNames)]*[FlopPrecisions]Counter {
	if f == nil {
		return [len(flopOpNames)]*[FlopPrecisions]Counter{}
	}
	return [...]*[FlopPrecisions]Counter{
		&f.Add, &f.Sub, &f.Mul, &f.Div, &f.Sqrt, &f.Min, &f.Max,
		&f.FMA, &f.Convert, &f.Compare, &f.Round,
	}
}

// KernelSignalCounterName returns the snapshot key of the delivery
// counter for a signal number (e.g. "kernel.signal.SIGFPE").
func KernelSignalCounterName(sig int) string {
	return "kernel.signal." + signalName(sig)
}

// Snapshot flattens every instrument into a name-keyed view. A nil
// handle yields an empty snapshot.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if m == nil {
		return s
	}
	s.UptimeNS = m.Uptime().Nanoseconds()
	s.TraceEmitted = m.Tracer.Emitted()
	s.TraceDropped = m.Tracer.Dropped()

	counter := func(name string, c *Counter) {
		if v := c.Load(); v > 0 {
			s.Counters[name] = v
		}
	}
	gauge := func(name string, g *Gauge) { s.Gauges[name] = g.Load() }
	hist := func(name string, h *Histogram) {
		if snap := h.snapshot(); snap.Count > 0 {
			s.Histograms[name] = snap
		}
	}

	k := &m.Kernel
	for i := range k.Signals {
		counter(KernelSignalCounterName(i), &k.Signals[i])
	}
	counter("kernel.mcontext.mxcsr-mutations", &k.MCtxMXCSR)
	counter("kernel.mcontext.tf-toggles", &k.MCtxTF)
	counter(NameKernelFastSteps, &k.FastSteps)
	counter(NameKernelPreciseSteps, &k.PreciseSteps)
	counter("kernel.timer.real-fires", &k.TimerFires[0])
	counter("kernel.timer.virtual-fires", &k.TimerFires[1])
	counter("kernel.sched.rounds", &k.SchedRounds)
	hist("kernel.fast.batch-length", &k.FastBatch)
	hist("kernel.sched.runnable-tasks", &k.SchedTasks)

	mm := &m.Machine
	counter("machine.mxcsr.guest-writes", &mm.GuestMXCSRWrites)
	counter("machine.mxcsr.guest-reads", &mm.GuestMXCSRReads)
	counter("machine.breakpoints.armed", &mm.BreakpointsArmed)

	fl := &m.Flop
	for i, ops := range fl.flopOpCounters() {
		if ops == nil {
			continue
		}
		for p := 0; p < FlopPrecisions; p++ {
			counter(FlopCounterName(flopOpNames[i], p), &ops[p])
		}
	}
	counter(NameFlopMaskedSkipped, &fl.MaskedSkipped)

	sp := &m.Spy
	counter(NameSpyFaults, &sp.Faults)
	counter(NameSpyRecords, &sp.Records)
	counter("spy.demotions", &sp.Demotions)
	counter("spy.detaches", &sp.Detaches)
	counter("spy.reasserts", &sp.Reasserts)
	counter("spy.signal-fights", &sp.SignalFights)
	counter("spy.threads-monitored", &sp.ThreadsMonitored)
	counter("spy.sampler-flips", &sp.TimerFlips)
	hist("spy.protocol-ns", &sp.ProtocolNS)

	sh := &m.Shadow
	counter(NameShadowChannels, &sh.Channels)
	counter(NameShadowOps, &sh.Ops)
	counter("shadow.invalidations", &sh.Invalidations)
	counter("shadow.nonfinite", &sh.NonFinite)
	counter("shadow.site-overflow", &sh.SiteOverflow)
	counter("shadow.mem-drops", &sh.MemDrops)
	counter("shadow.fallbacks", &sh.Fallbacks)
	gauge(NameShadowSites, &sh.Sites)
	gauge("shadow.mem-shadows", &sh.MemShadows)
	hist("shadow.ulp-divergence", &sh.Divergence)

	st := &m.Study
	counter(NameStudyPassRequests, &st.PassRequests)
	counter(NameStudyPassesExecuted, &st.PassesExecuted)
	counter(NameStudyPassErrors, &st.PassErrors)
	hist("study.pass.wall-cycles", &st.PassWallCycles)
	hist("study.pass.host-ns", &st.PassHostNS)
	gauge("study.workers-busy", &st.WorkersBusy)

	sv := &m.Server
	counter(NameServerSubmissions, &sv.Submissions)
	counter(NameServerCacheHits, &sv.CacheHits)
	counter(NameServerCacheMisses, &sv.CacheMisses)
	counter(NameServerRateLimited, &sv.RateLimited)
	counter(NameServerShed, &sv.Shed)
	counter("server.jobs.completed", &sv.JobsCompleted)
	counter("server.jobs.failed", &sv.JobsFailed)
	gauge(NameServerQueueDepth, &sv.QueueDepth)
	hist("server.http.submit-ns", &sv.SubmitNS)
	hist("server.http.status-ns", &sv.StatusNS)
	hist("server.http.result-ns", &sv.ResultNS)
	hist("server.http.figures-ns", &sv.FiguresNS)

	cl := &m.Cluster
	counter("cluster.forwards-local", &cl.ForwardsLocal)
	counter(NameClusterForwards, &cl.Forwards)
	counter("cluster.retries", &cl.Retries)
	counter("cluster.rpc-errors", &cl.RPCErrors)
	counter(NameClusterEvictions, &cl.Evictions)
	counter("cluster.readmissions", &cl.Readmissions)
	counter("cluster.probes", &cl.Probes)
	counter("cluster.probe-failures", &cl.ProbeFailures)
	counter(NameClusterPartition, &cl.PartitionLocal)
	hist("cluster.forward-ns", &cl.ForwardNS)

	self := &m.Self
	counter("self.samples", &self.Samples)
	gauge("self.goroutines", &self.Goroutines)
	gauge("self.heap-alloc-bytes", &self.HeapAllocBytes)
	hist("self.workers-busy-samples", &self.WorkersBusySamples)

	return s
}

// WriteJSON serializes the snapshot.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ParseSnapshot reads a WriteJSON document (for fpmon -snapshot).
func ParseSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("obs: snapshot parse: %w", err)
	}
	if s.Counters == nil {
		s.Counters = map[string]uint64{}
	}
	if s.Gauges == nil {
		s.Gauges = map[string]int64{}
	}
	if s.Histograms == nil {
		s.Histograms = map[string]HistogramSnapshot{}
	}
	return s, nil
}
