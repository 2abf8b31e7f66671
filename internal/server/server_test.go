package server

import (
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	fpspy "repro"
	"repro/internal/isa"
	"repro/internal/jobs"
	"repro/internal/obs"
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

func TestCacheKeyDeterministicAndSensitive(t *testing.T) {
	env := map[string]string{"A": "1", "B": "2", "C": "3", "D": "4"}
	cfg := fpspy.Config{Mode: fpspy.ModeIndividual}
	j1 := testJob(t, "k", 3, env)
	// Rebuilt from scratch (fresh maps, fresh slices): the key must not
	// depend on anything but content.
	j2 := testJob(t, "k", 3, map[string]string{"D": "4", "C": "3", "B": "2", "A": "1"})
	if CacheKey(j1, cfg) != CacheKey(j2, cfg) {
		t.Fatal("identical content hashed differently")
	}
	// The clone survives a wire round trip with the same address.
	back, err := jobs.Decode(encode(t, j1))
	if err != nil {
		t.Fatal(err)
	}
	if CacheKey(back, cfg) != CacheKey(j1, cfg) {
		t.Fatal("wire round trip changed the content address")
	}
	// Name is identity-irrelevant; everything else is identity.
	named := testJob(t, "other-name", 3, env)
	if CacheKey(named, cfg) != CacheKey(j1, cfg) {
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

// TestGracefulShutdownPersistRestart is the drain contract end to end:
// during a drain /v1/jobs answers 503, the in-flight pass completes,
// queued-but-unstarted jobs survive the stop/start cycle through the
// persisted queue, and the restarted daemon runs them to completion
// under their original IDs.
func TestGracefulShutdownPersistRestart(t *testing.T) {
	state := filepath.Join(t.TempDir(), "queue.gob")
	om := obs.New(obs.Options{})
	s, err := New(Options{
		Workers: 1, Shards: 1, QueueDepth: 8, StateFile: state, Obs: om,
	})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	started := make(chan string, 1)
	s.mu.Lock()
	s.testBeforeRun = func(rec *jobRec) {
		started <- rec.id
		<-gate
	}
	s.mu.Unlock()

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

	type shutdownResult struct {
		n   int
		err error
	}
	done := make(chan shutdownResult, 1)
	go func() {
		n, err := s.Shutdown()
		done <- shutdownResult{n, err}
	}()
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
	s2, err := New(Options{Workers: 1, Shards: 1, QueueDepth: 8, StateFile: state})
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

// TestShedOnFullQueue pins the backpressure path: a full shard answers
// 503 and does not leak a cache entry for the rejected submission.
func TestShedOnFullQueue(t *testing.T) {
	om := obs.New(obs.Options{})
	s, err := New(Options{Workers: 1, Shards: 1, QueueDepth: 1, Obs: om})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	started := make(chan string, 1)
	s.mu.Lock()
	s.testBeforeRun = func(rec *jobRec) {
		started <- rec.id
		<-gate
	}
	s.mu.Unlock()
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
