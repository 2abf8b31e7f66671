package study

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	fpspy "repro"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Study runs and caches the methodology passes. Passes are keyed by
// (workload, config, spy on/off, size) and deduplicated: a result is
// computed exactly once no matter how many figures ask for it, or how
// many ask concurrently. Each pass is a hermetic simulation (its own
// kernel, machine, and seeded sampler), so passes can run in parallel
// on a bounded worker pool without changing any result — the golden
// study output is byte-identical at every worker count.
type Study struct {
	// Size is the problem size for the applications and NAS (Figure 10
	// additionally runs PARSEC at SizeSmall, as the paper's Section 5.3
	// problem-size note describes).
	Size workload.Size

	// Obs, when non-nil, is shared by every pass: the scheduler records
	// pass counts, durations, and worker occupancy, and each pass's
	// kernel and spy feed the same registry. Nil (the default) leaves
	// all instrumentation compiled out; the figures are byte-identical
	// either way.
	Obs *obs.Metrics

	// sem bounds the number of passes simulating at once.
	sem chan struct{}

	mu      sync.Mutex
	results map[passKey]*passEntry
}

// passKey identifies one spy pass. fpspy.Config is comparable, so the
// key is a plain struct — no string formatting on the cache path.
type passKey struct {
	name  string
	cfg   fpspy.Config
	noSpy bool
	size  workload.Size
}

// passEntry is a singleflight cell: the first caller executes the pass;
// concurrent callers block on the Once and share the result. The cell
// keeps the pass's outputs, not its simulator (runPass drops the
// result's Kern and Proc). The trace is read once, under its own Once
// because a read mutates the store, and every later reader shares the
// store's slice.
type passEntry struct {
	once sync.Once
	res  *fpspy.Result
	err  error

	decode sync.Once
	recs   []trace.Record
}

// NewWithWorkers creates a study whose passes run on at most n
// concurrent workers; n < 1 selects GOMAXPROCS. NewWithWorkers(1) is
// the fully serial study.
func NewWithWorkers(n int) *Study {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Study{
		Size:    workload.SizeLarge,
		sem:     make(chan struct{}, n),
		results: make(map[passKey]*passEntry),
	}
}

// Workers reports the worker pool size.
func (s *Study) Workers() int { return cap(s.sem) }

// Exec runs fn on the study's bounded worker pool, blocking until a
// worker slot is free and counting occupancy like a pass. External
// schedulers (the fpspyd daemon in internal/server) use it to share the
// study's concurrency budget instead of growing a second pool.
func (s *Study) Exec(fn func()) {
	s.sem <- struct{}{}
	s.occupy(fn)
}

// occupy runs fn in a worker slot the caller has already taken, counts
// it like Exec, and frees the slot.
func (s *Study) occupy(fn func()) {
	defer func() { <-s.sem }()
	if s.Obs != nil {
		s.Obs.Study.WorkersBusy.Add(1)
		defer s.Obs.Study.WorkersBusy.Add(-1)
	}
	fn()
}

// execInOrder runs fn(0), ..., fn(n-1) on the worker pool, starting
// them in index order, and returns when all have finished. One
// goroutine per call racing for a slot would start them in whatever
// order the Go scheduler picks, and a matrix's wall time depends on
// when its longest cell starts; taking the slots in order from one
// goroutine makes that time the same from run to run.
func (s *Study) execInOrder(n int, fn func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		s.sem <- struct{}{}
		go func() {
			defer wg.Done()
			s.occupy(func() { fn(i) })
		}()
	}
	wg.Wait()
}

// entry returns the cache cell for key, creating it under the lock.
func (s *Study) entry(key passKey) *passEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.results[key]
	if !ok {
		e = &passEntry{}
		s.results[key] = e
	}
	return e
}

// run executes one workload under one configuration, cached and
// deduplicated. The name "miniaero-calibrated" selects the
// density-calibrated Miniaero build used by the overhead experiment.
func (s *Study) run(name string, cfg fpspy.Config, noSpy bool, size workload.Size) (*fpspy.Result, error) {
	e := s.pass(name, cfg, noSpy, size)
	return e.res, e.err
}

// records returns a spy pass's individual-mode records, reading its
// trace on the first request only.
func (s *Study) records(name string, cfg fpspy.Config, size workload.Size) ([]trace.Record, error) {
	e := s.pass(name, cfg, false, size)
	if e.err != nil {
		return nil, e.err
	}
	e.decode.Do(func() { e.recs = e.res.Store.AllRecords() })
	return e.recs, nil
}

// pass returns the executed cache cell of one pass.
func (s *Study) pass(name string, cfg fpspy.Config, noSpy bool, size workload.Size) *passEntry {
	if s.Obs != nil {
		s.Obs.Study.PassRequests.Inc()
	}
	e := s.entry(passKey{name: name, cfg: cfg, noSpy: noSpy, size: size})
	e.once.Do(func() {
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
		if s.Obs == nil {
			e.res, e.err = runPass(name, cfg, noSpy, size, nil)
			return
		}
		st := &s.Obs.Study
		st.WorkersBusy.Add(1)
		spanStart := s.Obs.Tracer.Now()
		hostStart := time.Now()
		e.res, e.err = runPass(name, cfg, noSpy, size, s.Obs)
		hostNS := time.Since(hostStart).Nanoseconds()
		st.WorkersBusy.Add(-1)
		st.PassesExecuted.Inc()
		if e.err != nil {
			st.PassErrors.Inc()
		}
		if e.res != nil {
			st.PassWallCycles.Observe(e.res.WallCycles)
		}
		st.PassHostNS.Observe(uint64(hostNS))
		var spyFlag uint64
		if !noSpy {
			spyFlag = 1
		}
		s.Obs.Tracer.Complete("study", "pass:"+name, 0, 0, spanStart, hostNS, "spy", spyFlag)
	})
	return e
}

// runPass is the uncached pass body: build the workload, run it under
// the spy, and drop the simulator, which no figure reads. It touches no
// Study state (the shared obs handle is internally synchronized), which
// is what makes concurrent passes safe.
func runPass(name string, cfg fpspy.Config, noSpy bool, size workload.Size, m *obs.Metrics) (*fpspy.Result, error) {
	var build func(workload.Size) *isa.Program
	if name == "miniaero-calibrated" {
		build = workload.BuildMiniaeroCalibrated
	} else {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		build = w.Build
	}
	res, err := fpspy.Run(build(size), fpspy.Options{Config: cfg, NoSpy: noSpy, Obs: m})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.Kern, res.Proc = nil, nil
	return res, nil
}

// passList enumerates every pass the full study needs, in no particular
// order (results do not depend on execution order).
func (s *Study) passList() []passKey {
	var keys []passKey
	add := func(name string, cfg fpspy.Config, noSpy bool, size workload.Size) {
		keys = append(keys, passKey{name: name, cfg: cfg, noSpy: noSpy, size: size})
	}
	// Figure 6: the calibrated Miniaero build across configurations.
	add("miniaero-calibrated", fpspy.Config{}, true, s.Size)
	add("miniaero-calibrated", AggregateConfig(), false, s.Size)
	add("miniaero-calibrated", FilteredConfig(), false, s.Size)
	for _, on := range []uint64{5, 10, 50} {
		c := SampledConfig()
		c.SampleOnUS, c.SampleOffUS = on, 100
		add("miniaero-calibrated", c, false, s.Size)
	}
	// Event matrices (Figures 9/11/14) and the record corpus (Figures
	// 17-19, Section 6): every code under all three tracing passes.
	for _, w := range workload.Apps() {
		add(w.Meta.Name, AggregateConfig(), false, s.Size)
		add(w.Meta.Name, FilteredConfig(), false, s.Size)
		add(w.Meta.Name, SampledConfig(), false, s.Size)
		// Figure 15 rates divide by the unencumbered duration.
		add(w.Meta.Name, fpspy.Config{}, true, s.Size)
	}
	for _, w := range append(workload.Parsec(), workload.NAS()...) {
		add(w.Meta.Name, AggregateConfig(), false, s.Size)
		add(w.Meta.Name, FilteredConfig(), false, s.Size)
		add(w.Meta.Name, SampledConfig(), false, s.Size)
	}
	// Figure 10: PARSEC at the reduced problem size.
	for _, w := range workload.Parsec() {
		add(w.Meta.Name, AggregateConfig(), false, workload.SizeSmall)
	}
	return keys
}

// Prewarm runs every pass the full study needs on the worker pool and
// blocks until all have finished. Figures generated afterwards assemble
// from the warm cache without simulating anything. Pass errors are
// cached and resurface from the figure that needs the failed pass.
func (s *Study) Prewarm() {
	var wg sync.WaitGroup
	for _, key := range s.passList() {
		wg.Add(1)
		go func(k passKey) {
			defer wg.Done()
			s.run(k.name, k.cfg, k.noSpy, k.size) //nolint:errcheck // cached, rechecked at assembly
		}(key)
	}
	wg.Wait()
}
