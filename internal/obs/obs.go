// Package obs is the observability layer of the FPSpy reproduction:
// typed counters, gauges, and histograms with an atomic, allocation-free
// hot path; a ring-buffered event tracer with spans; and profiling hooks
// (pprof serving, periodic self-sampling).
//
// The design contract is zero overhead when off. Every instrumented
// subsystem holds a pointer that is nil by default — obs.Disabled — and
// guards each instrumentation point with a single nil check, so a run
// without observability executes exactly the instructions it executed
// before the layer existed: no allocation, no atomics, no branches into
// this package. The transparency tests (golden study output, fast-path
// equivalence, allocs/op ceilings) pin that contract down; the
// instruments themselves never touch simulation state, so enabling them
// cannot perturb the bit-identical guarantees of the execution engine.
//
// Instruments are grouped per subsystem (KernelMetrics, MachineMetrics,
// SpyMetrics, StudyMetrics, SelfMetrics) and pre-resolved into struct
// fields rather than looked up by name, so the enabled hot path is one
// atomic add with no map access. Snapshot flattens the groups into a
// name-keyed view for export, dashboards, and reconciliation tests.
package obs

import (
	"time"
)

// Metrics is the top-level observability handle: the full typed
// instrument registry plus the event tracer. A nil *Metrics (the
// package-level Disabled) is the no-op implementation — every accessor
// below is nil-safe and yields nil group pointers, which consumers
// interpret as "instrumentation compiled out".
type Metrics struct {
	// Kernel instruments signal delivery, fast-path batching, timers,
	// and scheduling inside internal/kernel.
	Kernel KernelMetrics
	// Machine instruments guest-visible machine events in
	// internal/machine (MXCSR stores/loads, breakpoint stubbing).
	Machine MachineMetrics
	// Spy instruments FPSpy itself: faults, records, the two-trap
	// protocol, degradations.
	Spy SpyMetrics
	// Flop holds SDE-style FLOP accounting from internal/machine:
	// per-op, per-precision retired lane operations.
	Flop FlopMetrics
	// Shadow instruments the shadow-precision value channel in
	// internal/shadow: attached channels, shadow-executed lane ops,
	// divergence, and the bounded tracking maps.
	Shadow ShadowMetrics
	// Study instruments the pass scheduler in internal/study.
	Study StudyMetrics
	// Server instruments the fpspyd daemon in internal/server.
	Server ServerMetrics
	// Cluster instruments the fpspyd peer fabric in internal/cluster:
	// routing, retries, the local fallback, health probing and eviction.
	Cluster ClusterMetrics
	// Self holds the self-sampler's periodic observations of the
	// process (goroutines, heap, worker-pool occupancy).
	Self SelfMetrics
	// Tracer is the ring-buffered event tracer. Always non-nil on an
	// enabled Metrics.
	Tracer *Tracer

	start time.Time
}

// Options configures New.
type Options struct {
	// TraceCapacity is the tracer ring size in events; 0 selects
	// DefaultTraceCapacity.
	TraceCapacity int
}

// DefaultTraceCapacity is the tracer ring size when Options does not
// specify one.
const DefaultTraceCapacity = 1 << 16

// Disabled is the no-op observability instance: a nil handle whose
// accessors all return nil, so instrumented code takes its zero-cost
// branch everywhere.
var Disabled *Metrics

// New creates an enabled Metrics with all instruments at zero.
func New(o Options) *Metrics {
	cap := o.TraceCapacity
	if cap <= 0 {
		cap = DefaultTraceCapacity
	}
	return &Metrics{
		Tracer: NewTracer(cap),
		start:  time.Now(),
	}
}

// Enabled reports whether this handle records anything.
func (m *Metrics) Enabled() bool { return m != nil }

// KernelMetricsOrNil returns the kernel instrument group, or nil when
// observability is disabled.
func (m *Metrics) KernelMetricsOrNil() *KernelMetrics {
	if m == nil {
		return nil
	}
	return &m.Kernel
}

// MachineMetricsOrNil returns the machine instrument group, or nil when
// observability is disabled.
func (m *Metrics) MachineMetricsOrNil() *MachineMetrics {
	if m == nil {
		return nil
	}
	return &m.Machine
}

// SpyMetricsOrNil returns the FPSpy instrument group, or nil when
// observability is disabled.
func (m *Metrics) SpyMetricsOrNil() *SpyMetrics {
	if m == nil {
		return nil
	}
	return &m.Spy
}

// ShadowMetricsOrNil returns the shadow-channel instrument group, or
// nil when observability is disabled.
func (m *Metrics) ShadowMetricsOrNil() *ShadowMetrics {
	if m == nil {
		return nil
	}
	return &m.Shadow
}

// StudyMetricsOrNil returns the study instrument group, or nil when
// observability is disabled.
func (m *Metrics) StudyMetricsOrNil() *StudyMetrics {
	if m == nil {
		return nil
	}
	return &m.Study
}

// ServerMetricsOrNil returns the daemon instrument group, or nil when
// observability is disabled.
func (m *Metrics) ServerMetricsOrNil() *ServerMetrics {
	if m == nil {
		return nil
	}
	return &m.Server
}

// ClusterMetricsOrNil returns the cluster instrument group, or nil when
// observability is disabled.
func (m *Metrics) ClusterMetricsOrNil() *ClusterMetrics {
	if m == nil {
		return nil
	}
	return &m.Cluster
}

// TracerOrNil returns the event tracer, or nil when observability is
// disabled.
func (m *Metrics) TracerOrNil() *Tracer {
	if m == nil {
		return nil
	}
	return m.Tracer
}

// Uptime is the time since New.
func (m *Metrics) Uptime() time.Duration {
	if m == nil {
		return 0
	}
	return time.Since(m.start)
}

// NumSignals bounds the per-signal delivery counter array; Linux x86-64
// signal numbers used by the simulated kernel are all below it.
const NumSignals = 32

// KernelMetrics instruments internal/kernel. The indices of TimerFires
// follow kernel.TimerKind: real = 0, virtual = 1.
type KernelMetrics struct {
	// Signals counts deliveries by signal number.
	Signals [NumSignals]Counter
	// MCtxMXCSR counts host-handler deliveries that mutated MXCSR
	// through the writable machine context.
	MCtxMXCSR Counter
	// MCtxTF counts host-handler deliveries that toggled the trap flag
	// through the machine context.
	MCtxTF Counter
	// FastBatch is the distribution of cleanly retired fast-path batch
	// lengths (instructions per RunStraight call).
	FastBatch Histogram
	// FastSteps counts instructions retired on the batched fast path.
	FastSteps Counter
	// PreciseSteps counts instructions retired on the precise
	// step-at-a-time path (including the eventful step ending a batch).
	PreciseSteps Counter
	// TimerFires counts interval-timer expiries by kernel.TimerKind.
	TimerFires [2]Counter
	// SchedRounds counts scheduler rounds (full run-queue sweeps).
	SchedRounds Counter
	// SchedTasks is the distribution of runnable tasks per round.
	SchedTasks Histogram
}

// MachineMetrics instruments internal/machine.
type MachineMetrics struct {
	// GuestMXCSRWrites counts ldmxcsr executions — the guest rewriting
	// floating point control state behind FPSpy's interposition.
	GuestMXCSRWrites Counter
	// GuestMXCSRReads counts stmxcsr executions.
	GuestMXCSRReads Counter
	// BreakpointsArmed counts instructions stubbed by the Section 3.8
	// breakpoint protocol.
	BreakpointsArmed Counter
}

// FlopPrecisions indexes the per-precision counter pairs of
// FlopMetrics: 0 is binary64 (double), 1 is binary32 (single), matching
// isa.Precision's F64/F32 values.
const FlopPrecisions = 2

// FlopMetrics is the SDE-style FLOP accounting group, fed by
// internal/machine at instruction retirement. Counts are lane
// operations (a packed op credits one per active lane), split double/
// single per FlopPrecisions; a fused multiply-add credits 2 per lane
// and dpps decomposes into its multiplies and adds. Masked-off lanes of
// write-masked forms credit MaskedSkipped instead — they neither
// compute nor raise, mirroring SDE's masking awareness. The counters
// are engine-invariant: stepped and superblock execution credit
// identically, and only retired instructions count (a
// faulted instruction performed no architectural work).
type FlopMetrics struct {
	// Add through Max count ClassFPArith lane operations by FPOp.
	Add  [FlopPrecisions]Counter
	Sub  [FlopPrecisions]Counter
	Mul  [FlopPrecisions]Counter
	Div  [FlopPrecisions]Counter
	Sqrt [FlopPrecisions]Counter
	Min  [FlopPrecisions]Counter
	Max  [FlopPrecisions]Counter
	// FMA counts fused multiply-add lane operations at 2 per lane.
	FMA [FlopPrecisions]Counter
	// Convert, Compare, and Round count their classes' lane operations;
	// conversions are attributed to the binary32 side of mixed forms.
	Convert [FlopPrecisions]Counter
	Compare [FlopPrecisions]Counter
	Round   [FlopPrecisions]Counter
	// MaskedSkipped counts lanes suppressed by a write mask.
	MaskedSkipped Counter
}

// Total returns the total FLOP count across ops and precisions
// (MaskedSkipped excluded — skipped lanes are not FLOPs).
func (f *FlopMetrics) Total() uint64 {
	if f == nil {
		return 0
	}
	var sum uint64
	for p := 0; p < FlopPrecisions; p++ {
		sum += f.Add[p].Load() + f.Sub[p].Load() + f.Mul[p].Load() +
			f.Div[p].Load() + f.Sqrt[p].Load() + f.Min[p].Load() + f.Max[p].Load() +
			f.FMA[p].Load() + f.Convert[p].Load() + f.Compare[p].Load() + f.Round[p].Load()
	}
	return sum
}

// SpyMetrics instruments FPSpy's monitoring core.
type SpyMetrics struct {
	// Faults counts SIGFPEs the spy handled in individual mode.
	Faults Counter
	// Records counts trace records written.
	Records Counter
	// ProtocolNS is the host-time distribution of the SIGFPE -> SIGTRAP
	// two-trap protocol span, in nanoseconds.
	ProtocolNS Histogram
	// Demotions counts individual -> aggregate transitions.
	Demotions Counter
	// Detaches counts transitions into the detached state.
	Detaches Counter
	// Reasserts counts aggressive-mode MXCSR re-assertions.
	Reasserts Counter
	// SignalFights counts absorbed handler registrations.
	SignalFights Counter
	// ThreadsMonitored counts threads that entered monitoring.
	ThreadsMonitored Counter
	// TimerFlips counts temporal-sampler phase flips.
	TimerFlips Counter
}

// ShadowMetrics instruments the shadow-precision value channel
// (internal/shadow). Like every group, the zero value is ready and a
// nil pointer records nothing.
type ShadowMetrics struct {
	// Channels counts shadow channels attached (one per monitored
	// thread of a shadow-enabled run).
	Channels Counter
	// Ops counts shadow-executed lane operations (comparison points).
	Ops Counter
	// Invalidations counts destination shadows reset to native by
	// unsupported or non-finite operations.
	Invalidations Counter
	// NonFinite counts lane operations skipped under the NaN/Inf
	// policy.
	NonFinite Counter
	// SiteOverflow counts lane operations at sites beyond the site
	// table's capacity (executed and shadowed, but not attributed).
	SiteOverflow Counter
	// MemDrops counts stored shadows discarded because the memory
	// shadow map was at capacity.
	MemDrops Counter
	// Fallbacks counts lanes the fixed-width evaluator could not
	// certify and re-evaluated in big.Float.
	Fallbacks Counter
	// Sites is the high-water count of attributed sites in one channel.
	Sites Gauge
	// MemShadows is the high-water size of a channel's memory shadow
	// map.
	MemShadows Gauge
	// Divergence is the distribution of integer ULP distances between
	// native results and their shadows, one observation per
	// shadow-executed lane.
	Divergence Histogram
}

// StudyMetrics instruments the pass scheduler.
type StudyMetrics struct {
	// PassRequests counts cache lookups (run calls).
	PassRequests Counter
	// PassesExecuted counts passes actually simulated (cache misses).
	PassesExecuted Counter
	// PassErrors counts executed passes that failed.
	PassErrors Counter
	// PassWallCycles is the distribution of simulated wall cycles per
	// executed pass.
	PassWallCycles Histogram
	// PassHostNS is the distribution of host nanoseconds per executed
	// pass.
	PassHostNS Histogram
	// WorkersBusy is the number of worker slots currently simulating.
	WorkersBusy Gauge
}

// ServerMetrics instruments the fpspyd daemon (internal/server): the
// submission path, the content-addressed result cache, backpressure
// decisions, and per-endpoint request latency.
type ServerMetrics struct {
	// Submissions counts admitted jobs: client submissions that passed
	// rate limiting and the drain check, jobs a peer submits (a forward's
	// owner side), and persisted jobs re-admitted at start.
	Submissions Counter
	// CacheHits counts submissions answered by the content-addressed
	// result cache — including attaches to an identical in-flight pass.
	CacheHits Counter
	// CacheMisses counts submissions that started a new cache entry.
	// Each one runs exactly one pass here, or is placed on the owning
	// cluster member, which admits (and counts) it again.
	CacheMisses Counter
	// RateLimited counts submissions rejected 429 by the per-client
	// token bucket.
	RateLimited Counter
	// Shed counts submissions rejected 503 — full job queue or drain —
	// and placed jobs handed back to a full queue.
	Shed Counter
	// JobsCompleted and JobsFailed count finalized jobs by outcome.
	JobsCompleted Counter
	JobsFailed    Counter
	// PassPanics counts passes that panicked; each failed its job and
	// the daemon kept serving.
	PassPanics Counter
	// QueueDepth is the number of jobs in the job queue that no
	// dispatcher has taken yet.
	QueueDepth Gauge
	// SubmitNS, StatusNS, ResultNS, and FiguresNS are per-endpoint
	// request latency distributions in host nanoseconds.
	SubmitNS  Histogram
	StatusNS  Histogram
	ResultNS  Histogram
	FiguresNS Histogram
}

// ClusterMetrics instruments the fpspyd peer fabric (internal/cluster):
// consistent-hash routing decisions, the robust RPC path (retries and
// the local fallback), and ring membership churn. Like every group, the
// zero value is ready and a nil *Metrics records nothing.
type ClusterMetrics struct {
	// ForwardsLocal counts new passes this node keeps because it owns
	// their content address (or no other member is live). Submissions
	// served from the local cache count in ServerMetrics.CacheHits only.
	ForwardsLocal Counter
	// Forwards counts new passes forwarded to their owning peer: one per
	// content address, however many identical submissions attach to it.
	Forwards Counter
	// Retries counts peer RPC attempts beyond the first, across the
	// retried call kinds (run, join).
	Retries Counter
	// RPCErrors counts failed peer RPC attempts: every attempt that
	// failed, whether or not a retry followed it.
	RPCErrors Counter
	// Evictions counts peers removed from the ring by the health layer;
	// Readmissions counts recovered peers added back.
	Evictions    Counter
	Readmissions Counter
	// Probes and ProbeFailures count health-probe attempts and failures.
	Probes        Counter
	ProbeFailures Counter
	// PartitionLocal counts forwarded passes taken back to the local
	// queue because the owning peer could not be reached.
	PartitionLocal Counter
	// ForwardNS is the latency distribution of forwards, in host
	// nanoseconds (owner RPC including retries and backoff).
	ForwardNS Histogram
}

// SelfMetrics holds the self-sampler's periodic process observations.
type SelfMetrics struct {
	// Samples counts sampler ticks.
	Samples Counter
	// Goroutines is the last sampled goroutine count.
	Goroutines Gauge
	// HeapAllocBytes is the last sampled live-heap size.
	HeapAllocBytes Gauge
	// WorkersBusySamples is the sampled distribution of the study
	// worker-pool occupancy — the scheduler-utilization profile.
	WorkersBusySamples Histogram
}
