// Package server implements fpspyd: the study-as-a-service daemon for
// the paper's Figure 1b "cloning in production" deployment. A scheduler
// captures each submission as a serializable clone (internal/jobs);
// fpspyd accepts those clones over an HTTP/JSON API, replays them
// offline under arbitrary FPSpy configurations on the study scheduler's
// bounded worker pool, and streams the resulting monitor log back.
//
// Scaling comes from three mechanisms:
//
//   - a sharded, bounded job queue: submissions hash to a shard by
//     content address, each shard dispatches in FIFO order, and a full
//     shard sheds load with 503 + Retry-After instead of queueing
//     without bound;
//   - a content-addressed result cache with singleflight semantics
//     (the same discipline as the study scheduler's passKey cache):
//     identical submissions — same program image, environment, memory
//     request, and configuration — run exactly one pass no matter how
//     many clients submit them or how concurrently they arrive;
//   - per-client token-bucket rate limiting with 429 + Retry-After.
//
// Shutdown drains: in-flight passes run to completion, new submissions
// are rejected 503, and queued-but-unstarted jobs are persisted via
// jobs.Encode so a restarted daemon resumes them.
package server

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"strings"
	"sync"
	"time"

	fpspy "repro"
	"repro/internal/analysis"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/study"
	"repro/internal/trace"
)

// State names a job's position in its lifecycle.
type State string

const (
	// StateQueued: admitted, waiting for a worker (or for an identical
	// in-flight pass it attached to).
	StateQueued State = "queued"
	// StateRunning: its pass is executing on the worker pool.
	StateRunning State = "running"
	// StateDone: finished; the result is streamable.
	StateDone State = "done"
	// StateFailed: its pass returned an error.
	StateFailed State = "failed"
)

// Options configures a Server.
type Options struct {
	// Workers sizes the study worker pool (0 = one per CPU). Ignored
	// when Study is supplied.
	Workers int
	// Shards is the number of queue shards (default 4).
	Shards int
	// QueueDepth bounds each shard's queue (default 64). A submission
	// arriving at a full shard is shed with 503.
	QueueDepth int
	// RatePerSec enables per-client token-bucket rate limiting at this
	// many submissions per second (0 = unlimited).
	RatePerSec float64
	// Burst is the token bucket capacity (default 8).
	Burst int
	// StateFile, when set, persists queued-but-unstarted jobs across a
	// Shutdown/New cycle.
	StateFile string
	// Obs, when non-nil, receives daemon metrics (queue depth, cache
	// hit/miss, shed counters, per-endpoint latency) and is served on
	// /metrics. The same registry is threaded through every pass.
	Obs *obs.Metrics
	// Study, when non-nil, is the shared pass scheduler; the daemon
	// otherwise creates its own with Workers workers.
	Study *study.Study
	// BeforeRun, when set, is called after a job enters StateRunning and
	// before its pass executes. Tests (here and in internal/cluster)
	// gate on it to hold a pass in flight; production leaves it nil.
	BeforeRun func(jobID string)

	// now overrides the clock (tests).
	now func() time.Time
}

// Server is a running fpspyd instance. It is an http.Handler; callers
// mount it on a listener (cmd/fpspyd) or an httptest server.
type Server struct {
	opts  Options
	study *study.Study
	obs   *obs.Metrics
	lim   *limiter
	mux   *http.ServeMux
	now   func() time.Time

	shards      []chan *jobRec
	stopc       chan struct{}
	dispatchers sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*jobRec
	cache    map[string]*cacheEntry
	seq      int
	draining bool
	placer   Placer // cluster placement hook; nil on a lone daemon

	// testBeforeRun, when set, is called by a dispatcher after a job
	// enters StateRunning and before its pass executes (tests gate here
	// to hold a pass in flight).
	testBeforeRun func(*jobRec)
}

// jobRec is the daemon's view of one submission. Mutable fields are
// guarded by Server.mu.
type jobRec struct {
	id        string
	name      string
	client    string
	key       string
	cfg       fpspy.Config
	cacheHit  bool
	submitted time.Time

	// blob (the encoded clone) and job (its decoding) serve persisting,
	// placing, and running an unsettled job; both are dropped once it
	// settles.
	blob []byte
	job  *jobs.Job

	state State
	errs  string
	entry *cacheEntry
}

// cacheEntry is one singleflight cell of the content-addressed result
// cache. The primary submission executes the pass; identical
// submissions attach as waiters and are finalized together. done is
// closed exactly once, after out/err are valid.
type cacheEntry struct {
	key     string
	done    chan struct{}
	started bool // a dispatcher picked the primary up (guarded by mu)
	settled bool // out/err valid (guarded by mu)
	placed  bool // primary is with the Placer's peer, in no shard queue (guarded by mu)
	out     *Outcome
	err     error
	primary *jobRec
	waiters []*jobRec
}

// Outcome is the cached result of one executed pass: everything the
// result stream serves, with no reference to the (large) kernel state.
type Outcome struct {
	// Events is the monitor log in event order.
	Events []trace.MonitorEvent
	// Steps, WallCycles, and ExitCode summarize the run.
	Steps      uint64
	WallCycles uint64
	ExitCode   int
	// EventSet is the OR of all observed condition codes (MXCSR layout).
	EventSet uint64
	// Records and Aggregates count the captured trace records.
	Records    int
	Aggregates int
	// AccumFingerprint is the canonical accumulation-tree fingerprint
	// recovered from the trace, for probe jobs (names prefixed "probe")
	// run in unsampled individual mode; empty otherwise. Computed at
	// pass time because the outcome — not the record stream — is what
	// cluster routing ships between peers.
	AccumFingerprint string
	// RootCause is the ranked shadow attribution report for shadow jobs
	// (Config.ShadowPrec > 0); nil otherwise. Like AccumFingerprint it
	// is computed at pass time so the cache and cluster routing carry it.
	RootCause *analysis.RootCauseReport
}

// New builds and starts a Server: dispatchers are running and the
// handler is ready to mount. When Options.StateFile names a queue
// persisted by a previous Shutdown, its jobs are re-admitted before the
// first request is served.
func New(o Options) (*Server, error) {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	now := o.now
	if now == nil {
		now = time.Now
	}
	st := o.Study
	if st == nil {
		st = study.NewWithWorkers(o.Workers)
	}
	if st.Obs == nil {
		st.Obs = o.Obs
	}
	s := &Server{
		opts:   o,
		study:  st,
		obs:    o.Obs,
		lim:    newLimiter(o.RatePerSec, o.Burst, now),
		now:    now,
		shards: make([]chan *jobRec, o.Shards),
		stopc:  make(chan struct{}),
		jobs:   map[string]*jobRec{},
		cache:  map[string]*cacheEntry{},
	}
	for i := range s.shards {
		s.shards[i] = make(chan *jobRec, o.QueueDepth)
	}
	if o.BeforeRun != nil {
		hook := o.BeforeRun
		s.testBeforeRun = func(rec *jobRec) { hook(rec.id) }
	}
	s.buildMux()
	if o.StateFile != "" {
		if err := s.loadState(); err != nil {
			return nil, err
		}
	}
	for i := range s.shards {
		s.dispatchers.Add(1)
		go s.dispatch(s.shards[i])
	}
	return s, nil
}

// Study exposes the shared pass scheduler (the figures endpoint and
// tests use it).
func (s *Server) Study() *study.Study { return s.study }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// shardOf maps a cache key to its queue shard, so identical submissions
// always contend on the same FIFO.
func (s *Server) shardOf(key string) chan *jobRec {
	h := fnv.New32a()
	h.Write([]byte(key)) //nolint:errcheck // hash.Hash never errors
	return s.shards[int(h.Sum32())%len(s.shards)]
}

// ErrDraining and ErrQueueFull classify submission rejections for the
// HTTP layer and for peers submitting through Submit.
var (
	ErrDraining  = errors.New("server: draining, not accepting submissions")
	ErrQueueFull = errors.New("server: shard queue full")
)

// submit admits one submission: validate the clone, then hand it to
// admitLocked under a fresh job ID. offer lets a new pass be placed on
// another cluster member; only client-API submissions set it.
func (s *Server) submit(client, name string, blob []byte, cfg fpspy.Config, offer bool) (*jobRec, error) {
	// Drain check first: a draining daemon answers 503 regardless of
	// what the submission contains. Re-checked under the lock below.
	if s.Draining() {
		if sv := s.obs.ServerMetricsOrNil(); sv != nil {
			sv.Shed.Inc()
		}
		return nil, ErrDraining
	}
	j, err := jobs.Decode(blob)
	if err != nil {
		return nil, err
	}
	if name == "" {
		name = j.Name
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		if sv := s.obs.ServerMetricsOrNil(); sv != nil {
			sv.Shed.Inc()
		}
		return nil, ErrDraining
	}
	s.seq++
	rec := &jobRec{
		id: fmt.Sprintf("job-%06d", s.seq), name: name, client: client,
		key: CacheKey(j, cfg), blob: blob, cfg: cfg, job: j, submitted: s.now(),
	}
	if err := s.admitLocked(rec, offer); err != nil {
		return nil, err
	}
	return rec, nil
}

// admitLocked is the one admission path — client submissions, Submit,
// and persisted jobs reloaded by New all enter here. A cache hit
// finalizes rec at once (settled entry) or attaches it as a waiter (in
// flight, queued, or placed); a miss makes rec the primary of a new
// entry, which the Placer may take when offer is set and which
// otherwise joins its shard queue. A full queue sheds the submission
// with ErrQueueFull and leaves no trace. Caller holds s.mu.
func (s *Server) admitLocked(rec *jobRec, offer bool) error {
	rec.state = StateQueued
	sv := s.obs.ServerMetricsOrNil()
	if e, ok := s.cache[rec.key]; ok {
		// Cache hit: this submission never runs a pass of its own.
		rec.cacheHit = true
		rec.entry = e
		if e.settled {
			finalizeLocked(rec, e, sv)
		} else {
			e.waiters = append(e.waiters, rec)
		}
		s.jobs[rec.id] = rec
		if sv != nil {
			sv.Submissions.Inc()
			sv.CacheHits.Inc()
		}
		return nil
	}

	e := &cacheEntry{key: rec.key, done: make(chan struct{}), primary: rec}
	if offer && s.placer != nil && s.placer.Place(rec.pending()) {
		e.placed = true
	} else {
		select {
		case s.shardOf(rec.key) <- rec:
			if sv != nil {
				sv.QueueDepth.Add(1)
			}
		default:
			if sv != nil {
				sv.Shed.Inc()
			}
			return ErrQueueFull
		}
	}
	rec.entry = e
	s.cache[rec.key] = e
	s.jobs[rec.id] = rec
	if sv != nil {
		sv.Submissions.Inc()
		sv.CacheMisses.Inc()
	}
	return nil
}

// dispatch is one shard's dispatcher: it pulls jobs in FIFO order and
// runs each to completion before taking the next, so Shutdown's
// dispatchers.Wait() doubles as the in-flight drain. The leading
// non-blocking stop check makes drains deterministic: once stopc is
// closed, no further queued job is started even if the queue is ready.
func (s *Server) dispatch(q chan *jobRec) {
	defer s.dispatchers.Done()
	for {
		select {
		case <-s.stopc:
			return
		default:
		}
		select {
		case <-s.stopc:
			return
		case rec := <-q:
			if sv := s.obs.ServerMetricsOrNil(); sv != nil {
				sv.QueueDepth.Add(-1)
			}
			s.runJob(rec)
		}
	}
}

// runJob executes one primary submission's pass on the shared worker
// pool and settles its cache entry. A primary whose entry already
// settled while it waited in the queue (a peer-computed outcome arrived
// via InstallOutcome) is skipped: the settle finalized it.
func (s *Server) runJob(rec *jobRec) {
	s.mu.Lock()
	if rec.entry.settled {
		s.mu.Unlock()
		return
	}
	rec.state = StateRunning
	rec.entry.started = true
	j, hook := rec.job, s.testBeforeRun
	s.mu.Unlock()
	if hook != nil {
		hook(rec)
	}
	var out *Outcome
	var err error
	s.study.Exec(func() {
		out, err = executePass(j, rec.cfg, s.obs)
	})
	s.settle(rec.entry, out, err)
}

// executePass replays one clone under the given configuration and
// reduces the result to its cacheable outcome. It applies the same vet
// the study scheduler applies: a pass whose trace flushes failed is an
// error, not a truncated success.
func executePass(j *jobs.Job, cfg fpspy.Config, m *obs.Metrics) (*Outcome, error) {
	res, err := j.ReplayObs(cfg, m)
	if err != nil {
		return nil, err
	}
	if res.TraceErr != nil {
		return nil, fmt.Errorf("trace flush: %w", res.TraceErr)
	}
	recs, err := res.Records()
	if err != nil {
		return nil, fmt.Errorf("record decode: %w", err)
	}
	out := &Outcome{
		Events:     res.Store.MonitorEvents(),
		Steps:      res.Steps,
		WallCycles: res.WallCycles,
		ExitCode:   res.ExitCode,
		EventSet:   uint64(res.EventSet()),
		Records:    len(recs),
		Aggregates: len(res.Aggregates()),
	}
	if strings.HasPrefix(j.Name, "probe") {
		if tree, err := analysis.RecoverProbeTree(recs); err == nil {
			out.AccumFingerprint = tree.Fingerprint()
		}
	}
	if cfg.ShadowPrec > 0 {
		out.RootCause = analysis.BuildRootCause(cfg.ShadowPrec, res.Store.ShadowSites())
	}
	return out, nil
}

// settle publishes a pass outcome: the entry's primary and every waiter
// finalize together, then done is closed so result streams unblock.
// Settling is first-writer-wins: an entry that already settled keeps
// its first result, and a second settle is discarded.
func (s *Server) settle(e *cacheEntry, out *Outcome, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settleLocked(e, out, err)
}

// settleLocked is settle with s.mu held.
func (s *Server) settleLocked(e *cacheEntry, out *Outcome, err error) {
	if e.settled {
		return
	}
	e.out, e.err = out, err
	e.settled = true
	sv := s.obs.ServerMetricsOrNil()
	finalizeLocked(e.primary, e, sv)
	for _, w := range e.waiters {
		finalizeLocked(w, e, sv)
	}
	e.waiters = nil
	close(e.done)
}

// finalizeLocked moves rec to its terminal state from a settled entry
// and drops its clone, which nothing reads after settling. Caller holds
// s.mu. A nil rec is an entry with no local primary — a peer-installed
// outcome that no local submission attached to yet.
func finalizeLocked(rec *jobRec, e *cacheEntry, sv *obs.ServerMetrics) {
	if rec == nil {
		return
	}
	rec.blob, rec.job = nil, nil
	if e.err != nil {
		rec.state = StateFailed
		rec.errs = e.err.Error()
		if sv != nil {
			sv.JobsFailed.Inc()
		}
		return
	}
	rec.state = StateDone
	if sv != nil {
		sv.JobsCompleted.Inc()
	}
}

// Shutdown drains the daemon: new submissions are rejected 503 with
// Retry-After, dispatchers stop pulling work, every in-flight pass runs
// to completion, and queued-but-unstarted jobs (primaries still in
// shard queues or placed on a peer, plus waiters attached to them) are
// persisted to Options.StateFile via their encoded clones. It returns
// the number of jobs persisted.
func (s *Server) Shutdown() (int, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return 0, errors.New("server: already shut down")
	}
	s.draining = true
	s.mu.Unlock()

	close(s.stopc)
	// Dispatchers run jobs synchronously: once they have all returned,
	// every started pass has settled.
	s.dispatchers.Wait()

	s.mu.Lock()
	var pend []*jobRec
	drained := 0
	for _, q := range s.shards {
	drain:
		for {
			select {
			case rec := <-q:
				drained++
				if !rec.entry.settled { // a peer's outcome may have settled it
					pend = append(pend, rec)
				}
			default:
				break drain
			}
		}
	}
	// Waiters attached to a never-started entry are queued-but-unstarted
	// submissions too; their entry is removed so a restarted daemon
	// re-creates it. A placed primary (its forward still in flight) is
	// not in any shard queue, so it is captured here as well — the peer's
	// late outcome has nowhere to land after shutdown, and the job must
	// not be lost.
	for key, e := range s.cache {
		if !e.started && !e.settled {
			if e.placed && e.primary != nil {
				pend = append(pend, e.primary)
			}
			pend = append(pend, e.waiters...)
			e.waiters = nil
			delete(s.cache, key)
		}
	}
	if sv := s.obs.ServerMetricsOrNil(); sv != nil && drained > 0 {
		sv.QueueDepth.Add(int64(-drained))
	}
	s.mu.Unlock()

	if s.opts.StateFile == "" {
		return len(pend), nil
	}
	return len(pend), s.saveState(pend)
}
