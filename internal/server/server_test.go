package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	fpspy "repro"
	"repro/internal/isa"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/study"
	"repro/internal/workload"
)

// testJob builds a tiny faulting guest (1/3 rounds on every divide) and
// captures it as a submission clone. env perturbs the content address.
func testJob(t testing.TB, name string, divs int, env map[string]string) *jobs.Job {
	t.Helper()
	b := fpspy.NewProgram(name)
	b.Movi(isa.R1, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R1)
	b.Movi(isa.R1, int64(math.Float64bits(3)))
	b.Movqx(isa.X1, isa.R1)
	for i := 0; i < divs; i++ {
		b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1)
	}
	b.Hlt()
	return jobs.Capture(name, b.Build(), env, 4<<20)
}

func encode(t testing.TB, j *jobs.Job) []byte {
	t.Helper()
	blob, err := j.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestCacheKeyDeterministicAndSensitive: the content address the
// daemon hashes from submitted bytes is CacheKey of the decoded clone,
// depends on content only (not on names or the order an environment was
// built in), and changes with every input of a pass, every Config field
// among them.
func TestCacheKeyDeterministicAndSensitive(t *testing.T) {
	// appendConfig renders these fields; a new one must be added there,
	// then here.
	typ := reflect.TypeOf(fpspy.Config{})
	var fields []string
	for i := 0; i < typ.NumField(); i++ {
		fields = append(fields, typ.Field(i).Name)
	}
	if want := []string{"Mode", "Disable", "Aggressive", "ExceptList", "MaxCount", "SampleEvery",
		"SampleOnUS", "SampleOffUS", "Poisson", "VirtualTimer", "Breakpoints",
		"StormFaults", "StormCycles", "ShadowPrec"}; !reflect.DeepEqual(fields, want) {
		t.Fatalf("Config fields = %q, want the %d appendConfig renders: %q", fields, len(want), want)
	}

	env := map[string]string{"A": "1", "B": "2", "C": "3", "D": "4"}
	cfg := fpspy.Config{Mode: fpspy.ModeIndividual}
	j1 := testJob(t, "k", 3, env)
	// Rebuilt from scratch (fresh maps, fresh slices): the key must not
	// depend on anything but content.
	j2 := testJob(t, "k", 3, map[string]string{"D": "4", "C": "3", "B": "2", "A": "1"})
	if CacheKey(j1, cfg) != CacheKey(j2, cfg) {
		t.Fatal("identical content hashed differently")
	}
	// The key hashed from the submitted bytes is CacheKey's, before and
	// after a wire round trip.
	blob := encode(t, j1)
	if key, err := BlobKey(blob, cfg); err != nil || key != CacheKey(j1, cfg) {
		t.Fatalf("BlobKey = %s, %v; want CacheKey's %s", key, err, CacheKey(j1, cfg))
	}
	back, err := jobs.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if CacheKey(back, cfg) != CacheKey(j1, cfg) {
		t.Fatal("wire round trip changed the content address")
	}
	// Names are identity-irrelevant: the submission name, and the
	// program's too. Everything else is identity.
	named := testJob(t, "other-name", 3, env)
	if CacheKey(named, cfg) != CacheKey(j1, cfg) {
		t.Fatal("submission and program names must not affect the content address")
	}
	renamed := *j1
	renamed.Name = "renamed"
	if CacheKey(&renamed, cfg) != CacheKey(j1, cfg) {
		t.Fatal("submission name must not affect the content address")
	}
	distinct := map[string]string{
		"program": CacheKey(testJob(t, "k", 4, env), cfg),
		"env":     CacheKey(testJob(t, "k", 3, map[string]string{"A": "1"}), cfg),
		"config":  CacheKey(j1, fpspy.Config{Mode: fpspy.ModeAggregate}),
		"sample": CacheKey(j1, fpspy.Config{
			Mode: fpspy.ModeIndividual, SampleOnUS: 5, SampleOffUS: 100,
		}),
		"shadow": CacheKey(j1, fpspy.Config{
			Mode: fpspy.ModeIndividual, ShadowPrec: 113,
		}),
		"shadow-prec": CacheKey(j1, fpspy.Config{
			Mode: fpspy.ModeIndividual, ShadowPrec: 256,
		}),
	}
	base := CacheKey(j1, cfg)
	seen := map[string]string{base: "base"}
	for dim, key := range distinct {
		if prev, dup := seen[key]; dup {
			t.Errorf("%s collided with %s", dim, prev)
		}
		seen[key] = dim
	}
	mem := jobs.Capture("k", j1.Program, env, 8<<20)
	if CacheKey(mem, cfg) == base {
		t.Error("memory request must affect the content address")
	}
	// Every Config field is keyed: set each one alone.
	for i := 0; i < typ.NumField(); i++ {
		var c fpspy.Config
		if f := reflect.ValueOf(&c).Elem().Field(i); f.Kind() == reflect.Bool {
			f.SetBool(true)
		} else {
			f.SetUint(3)
		}
		if CacheKey(j1, c) == CacheKey(j1, fpspy.Config{}) {
			t.Errorf("Config.%s does not affect the content address", typ.Field(i).Name)
		}
	}
	if _, err := BlobKey([]byte("not a clone"), cfg); err == nil {
		t.Error("BlobKey took the address of bytes with no clone header")
	}
}

func TestLimiterRefillAndIsolation(t *testing.T) {
	clock := time.Unix(0, 0)
	l := newLimiter(2, 2, func() time.Time { return clock })
	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("alice"); !ok {
			t.Fatalf("burst token %d denied", i)
		}
	}
	ok, wait := l.allow("alice")
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("wait = %v, want (0, 1s] at 2 tokens/s", wait)
	}
	// Another client is unaffected.
	if ok, _ := l.allow("bob"); !ok {
		t.Fatal("per-client buckets must be independent")
	}
	// Refill restores admission.
	clock = clock.Add(time.Second)
	if ok, _ := l.allow("alice"); !ok {
		t.Fatal("refilled bucket denied")
	}
	// A nil limiter (rate 0) admits everything.
	var nl *limiter
	if ok, _ := nl.allow("anyone"); !ok {
		t.Fatal("nil limiter must admit")
	}
}

// shutdownResult is what Shutdown returned.
type shutdownResult struct {
	n   int
	err error
}

// shutdownAsync runs s.Shutdown on another goroutine, so a test can act
// while the drain is in progress, and delivers its result.
func shutdownAsync(s *Server) <-chan shutdownResult {
	done := make(chan shutdownResult, 1)
	go func() {
		n, err := s.Shutdown()
		done <- shutdownResult{n, err}
	}()
	return done
}

// TestGracefulShutdownPersistRestart is the drain contract end to end:
// during a drain /v1/jobs answers 503, the in-flight pass completes,
// queued-but-unstarted jobs survive the stop/start cycle through the
// persisted queue, and the restarted daemon runs them to completion
// under their original IDs.
func TestGracefulShutdownPersistRestart(t *testing.T) {
	state := filepath.Join(t.TempDir(), "queue.gob")
	om := obs.New(obs.Options{})
	gate := make(chan struct{})
	started := make(chan string, 1)
	s, err := New(Options{
		Workers: 1, QueueDepth: 8, StateFile: state, Obs: om,
		BeforeRun: func(id string) { started <- id; <-gate },
	})
	if err != nil {
		t.Fatal(err)
	}

	cfg := fpspy.Config{Mode: fpspy.ModeAggregate}
	submit := func(name string, divs int) *jobRec {
		rec, err := s.submit("tester", name, encode(t, testJob(t, name, divs, nil)), cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	recA := submit("job-a", 1)
	<-started // the single dispatcher is now holding job A in flight
	recB := submit("job-b", 2)
	recC := submit("job-c", 3)
	// A duplicate of a queued job rides as a waiter and must persist too.
	recB2, err := s.submit("tester2", "job-b-dup", encode(t, testJob(t, "job-b", 2, nil)), cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if !recB2.cacheHit {
		t.Fatal("duplicate of queued job should attach to its entry")
	}

	done := shutdownAsync(s)
	waitFor(t, "drain to begin", func() bool { return s.Draining() })

	// The drain rejects new submissions with 503 + Retry-After.
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(`{"clone":"AAAA","config":{}}`))
	rw := httptest.NewRecorder()
	s.ServeHTTP(rw, req)
	if rw.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503", rw.Code)
	}
	if rw.Header().Get("Retry-After") == "" {
		t.Fatal("503 during drain must carry Retry-After")
	}

	close(gate) // let the in-flight pass finish
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.n != 3 {
		t.Fatalf("persisted %d jobs, want 3 (B, C, and B's waiter)", res.n)
	}
	s.mu.Lock()
	if recA.state != StateDone {
		t.Errorf("in-flight job state = %s, want done (must complete during drain)", recA.state)
	}
	s.mu.Unlock()
	if _, err := os.Stat(state); err != nil {
		t.Fatalf("state file missing after shutdown: %v", err)
	}

	// Restart: the persisted queue is re-admitted and executed.
	s2, err := New(Options{Workers: 1, QueueDepth: 8, StateFile: state})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{recB.id, recC.id, recB2.id} {
		waitFor(t, "restarted job "+id, func() bool {
			_, st, ok := s2.lookup(id)
			return ok && st.State == StateDone
		})
	}
	// B and its duplicate share one pass on the restarted daemon too.
	_, stB, _ := s2.lookup(recB.id)
	_, stB2, _ := s2.lookup(recB2.id)
	if stB.Key != stB2.Key {
		t.Error("persisted duplicate lost its content address")
	}
	if !stB2.CacheHit {
		t.Error("persisted duplicate should resume as a cache attach")
	}
	// The consumed state file is gone: a later restart starts empty.
	if _, err := os.Stat(state); !os.IsNotExist(err) {
		t.Fatalf("state file should be consumed on load, stat err = %v", err)
	}
	if _, err := s2.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainPersistsJobAwaitingSlot: a dispatcher can take a job off the
// queue and then wait for the worker slot, which a /v1/figures pass
// holds. When the slot comes only after the drain began, the job does
// not run: the drain persists it under its job ID, BeforeRun never sees
// it, and a daemon restarted on the state file runs it to done.
func TestDrainPersistsJobAwaitingSlot(t *testing.T) {
	state := filepath.Join(t.TempDir(), "queue.gob")
	ran := make(chan string, 1)
	s, err := New(Options{Workers: 1, StateFile: state, BeforeRun: func(id string) { ran <- id }})
	if err != nil {
		t.Fatal(err)
	}
	held, release := make(chan struct{}), make(chan struct{})
	go s.study.Exec(func() { close(held); <-release })
	<-held
	rec, err := s.submit("c", "", encode(t, testJob(t, "late", 1, nil)), fpspy.Config{Mode: fpspy.ModeAggregate}, false)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the dispatcher to take the job", func() bool { return len(s.queue) == 0 })
	done := shutdownAsync(s)
	waitFor(t, "drain to begin", s.Draining)
	close(release)
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.n != 1 {
		t.Errorf("Shutdown persisted %d jobs, want the one awaiting its slot", res.n)
	}
	select {
	case id := <-ran:
		t.Errorf("BeforeRun ran for %s after the drain began", id)
	default:
	}
	if _, st, _ := s.lookup(rec.id); st.State != StateQueued {
		t.Errorf("the job awaiting its slot ended %s, want queued", st.State)
	}
	if t.Failed() {
		return
	}

	s2, err := New(Options{Workers: 1, StateFile: state})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "restarted job "+rec.id, func() bool {
		_, st, ok := s2.lookup(rec.id)
		return ok && st.State == StateDone
	})
	if _, err := s2.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestShedOnFullQueue pins the backpressure path: a full queue answers
// 503 and does not leak a cache entry for the rejected submission.
func TestShedOnFullQueue(t *testing.T) {
	om := obs.New(obs.Options{})
	gate := make(chan struct{})
	started := make(chan string, 1)
	s, err := New(Options{
		Workers: 1, QueueDepth: 1, Obs: om,
		BeforeRun: func(id string) { started <- id; <-gate },
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fpspy.Config{Mode: fpspy.ModeAggregate}
	if _, err := s.submit("c", "a", encode(t, testJob(t, "a", 1, nil)), cfg, false); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.submit("c", "b", encode(t, testJob(t, "b", 2, nil)), cfg, false); err != nil {
		t.Fatal(err) // fills the depth-1 queue
	}
	shedJob := testJob(t, "c", 3, nil)
	if _, err := s.submit("c", "c", encode(t, shedJob), cfg, false); err != ErrQueueFull {
		t.Fatalf("overflow submit err = %v, want ErrQueueFull", err)
	}
	if got := om.Server.Shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	// The shed submission left no cache entry: resubmitting later is a
	// miss, not an attach to a never-to-run entry.
	s.mu.Lock()
	_, leaked := s.cache[CacheKey(shedJob, cfg)]
	s.mu.Unlock()
	if leaked {
		t.Fatal("shed submission leaked a cache entry")
	}
	close(gate)
	if _, err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond with a deadline.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestSettledTablesBounded pushes tableBound plus a few hundred distinct
// clones through one daemon, one at a time, while one pass is held in
// flight with a waiter attached. Settled records and entries stay at
// the bound throughout; a clone resubmitted every hundred jobs stays a
// hit, which a first-in-first-out cache would not give; the held entry
// is never evicted and settles its waiters when let go; and the first
// job's ID answers 410 Gone once its record is evicted, while an ID
// never issued answers 404.
func TestSettledTablesBounded(t *testing.T) {
	// The held pass keeps one worker; the other runs the rest.
	held, release := make(chan struct{}), make(chan struct{})
	s, err := New(Options{Workers: 2, QueueDepth: 8, BeforeRun: func(id string) {
		if id == jobID(1) {
			close(held)
			<-release
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fpspy.Config{Mode: fpspy.ModeAggregate}
	submit := func(blob []byte) *jobRec {
		t.Helper()
		rec, err := s.submit("c", "", blob, cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	settle := func(rec *jobRec) {
		t.Helper()
		if _, err := s.WaitOutcome(context.Background(), rec.id); err != nil {
			t.Fatal(err)
		}
	}

	heldBlob := encode(t, testJob(t, "held", 1, nil))
	heldKey := CacheKey(testJob(t, "held", 1, nil), cfg)
	heldRec := submit(heldBlob)
	<-held
	waiter := submit(heldBlob)

	nonce := 0
	next := func() []byte {
		nonce++
		return encode(t, testJob(t, "c", 1, map[string]string{"N": fmt.Sprint(nonce)}))
	}
	hot := next()
	settle(submit(hot))
	var first string
	for n := 0; n < tableBound+300; n++ {
		rec := submit(next())
		settle(rec)
		if n == 0 {
			first = rec.id
		}
		if n%100 == 0 {
			if rec := submit(hot); !rec.cacheHit {
				t.Fatalf("after %d distinct clones the hot clone missed", n)
			}
		}
		s.mu.Lock()
		entries, records := s.lru.Len(), len(s.settled)
		s.mu.Unlock()
		if entries > tableBound || records > tableBound {
			t.Fatalf("after %d clones: %d settled entries and %d settled records, bound %d", n, entries, records, tableBound)
		}
	}

	s.mu.Lock()
	if s.lru.Len() != tableBound || len(s.cache) != tableBound+1 || s.cache[heldKey] != heldRec.entry {
		t.Errorf("cache: %d settled of %d entries, held entry kept %v; want %d settled and the held one",
			s.lru.Len(), len(s.cache), s.cache[heldKey] == heldRec.entry, tableBound)
	}
	if len(s.settled) != tableBound || len(s.jobs) != tableBound+2 {
		t.Errorf("jobs: %d settled of %d records; want %d settled, the held primary and its waiter",
			len(s.settled), len(s.jobs), tableBound)
	}
	s.mu.Unlock()
	if late := submit(heldBlob); !late.cacheHit {
		t.Error("a resubmission of the held clone did not attach to its entry")
	}

	for _, c := range []struct {
		path string
		want int
	}{
		{"/v1/jobs/" + first, http.StatusGone},
		{"/v1/jobs/" + first + "/result", http.StatusGone},
		{"/v1/jobs/job-999999", http.StatusNotFound},
		{"/v1/jobs/job-1", http.StatusNotFound},
		{"/v1/jobs/" + waiter.id, http.StatusOK},
	} {
		rw := httptest.NewRecorder()
		s.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, c.path, nil))
		if rw.Code != c.want {
			t.Errorf("GET %s = %d, want %d", c.path, rw.Code, c.want)
		}
	}

	close(release)
	settle(waiter)
	s.mu.Lock()
	if waiter.state != StateDone || len(s.cache) != tableBound || len(s.jobs) != tableBound {
		t.Errorf("after the held pass: waiter %s, %d entries, %d records; want done, %d and %d",
			waiter.state, len(s.cache), len(s.jobs), tableBound, tableBound)
	}
	s.mu.Unlock()
	if _, err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestPassPanicFailsItsJob: a host panic inside a pass fails that pass's
// job and every waiter attached to it, with the panic value and a stack
// in the error; the counter records it, and the daemon goes on to run
// the next job on the same worker slot.
func TestPassPanicFailsItsJob(t *testing.T) {
	om := obs.New(obs.Options{})
	gate := make(chan struct{})
	s, err := New(Options{Workers: 1, QueueDepth: 8, Obs: om, BeforeRun: func(id string) {
		if id == jobID(1) { // the "boom" primary
			<-gate // hold the pass until its waiter attaches
			panic("injected pass panic")
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fpspy.Config{Mode: fpspy.ModeAggregate}
	submit := func(name string, divs int) *jobRec {
		t.Helper()
		rec, err := s.submit("c", name, encode(t, testJob(t, name, divs, nil)), cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	primary := submit("boom", 1)
	waiter := submit("boom", 1)
	if !waiter.cacheHit {
		t.Fatal("the duplicate did not attach to the held pass")
	}
	close(gate)
	for _, rec := range []*jobRec{primary, waiter} {
		_, err := s.WaitOutcome(ctx, rec.id)
		if err == nil || !strings.Contains(err.Error(), "injected pass panic") {
			t.Fatalf("job %s: err = %v, want the injected panic", rec.id, err)
		}
		_, st, _ := s.lookup(rec.id)
		if st.State != StateFailed || !strings.Contains(st.Error, "server.(*Server).runJob") {
			t.Errorf("job %s: state %s, error %q; want failed with a stack through runJob", rec.id, st.State, st.Error)
		}
	}
	if got := om.Server.PassPanics.Load(); got != 1 {
		t.Errorf("pass panics = %d, want 1", got)
	}

	next := submit("next", 2)
	if _, err := s.WaitOutcome(ctx, next.id); err != nil {
		t.Fatalf("the job after the panic: %v", err)
	}
	if _, st, _ := s.lookup(next.id); st.State != StateDone {
		t.Errorf("the job after the panic is %s, want done", st.State)
	}
	if _, err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestEveryWorkerRunsAPass: a daemon runs as many passes at once as it
// has workers, whatever content addresses they have.
func TestEveryWorkerRunsAPass(t *testing.T) {
	const workers = 6
	inside, release := make(chan string, workers), make(chan struct{})
	s, err := New(Options{Workers: workers, BeforeRun: func(id string) {
		inside <- id
		<-release
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(release)
		s.Shutdown() //nolint:errcheck // teardown
	})
	cfg := fpspy.Config{Mode: fpspy.ModeAggregate}
	for i := range workers {
		if _, err := s.submit("c", "", encode(t, testJob(t, "p", i+1, nil)), cfg, false); err != nil {
			t.Fatal(err)
		}
	}
	timeout := time.After(10 * time.Second)
	for n := range workers {
		select {
		case <-inside:
		case <-timeout:
			t.Fatalf("%d distinct passes in flight at once, want one per worker (%d)", n, workers)
		}
	}
}

// TestRunningHoldsASlot: a job reads running only while it holds a
// worker slot. BeforeRun, called in the slot, sees its job running and
// the slot taken.
func TestRunningHoldsASlot(t *testing.T) {
	om := obs.New(obs.Options{})
	type seen struct {
		state State
		busy  int64
	}
	saw := make(chan seen, 1)
	var s *Server
	s, err := New(Options{Workers: 1, Obs: om, BeforeRun: func(id string) {
		_, st, _ := s.lookup(id)
		saw <- seen{st.State, om.Study.WorkersBusy.Load()}
	}})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.submit("c", "", encode(t, testJob(t, "slot", 1, nil)), fpspy.Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := <-saw; got.state != StateRunning || got.busy != 1 {
		t.Errorf("in BeforeRun: state %s, study.workers-busy %d; want running and 1", got.state, got.busy)
	}
	if _, err := s.WaitOutcome(context.Background(), rec.id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestMissPassReleasesTraceBlocks pins what a miss pass allocates. The
// daemon reads only the count of a sampled pass's records, so the pass
// gives its trace's staging blocks back unread and the next pass stages
// into them. A pass that kept its blocks would allocate them afresh
// each time: about 386 KB for this one.
func TestMissPassReleasesTraceBlocks(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under -race")
	}
	gc := debug.SetGCPercent(-1)
	procs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	})
	w, err := workload.ByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	j := jobs.Capture("canneal", w.Build(workload.SizeSmall), nil, 16<<20)
	pass := func() *Outcome {
		t.Helper()
		out, err := executePass(j, study.SampledConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := pass() // stocks the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := pass()
	runtime.ReadMemStats(&after)
	if out.Records == 0 || out.Records != first.Records {
		t.Fatalf("the passes counted %d and %d records, want the same nonzero count", first.Records, out.Records)
	}
	const ceiling = 128 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got >= ceiling {
		t.Errorf("a miss pass of %d records allocated %d bytes, ceiling %d", out.Records, got, ceiling)
	}
}
