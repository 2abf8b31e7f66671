package server_test

// The in-process end-to-end suite: a real HTTP server (httptest) in
// front of a real daemon, driven through the typed client — the same
// path cmd/fpctl takes. It pins the PR's acceptance criteria:
//
//   - two identical submissions from different clients run exactly one
//     study pass (content-addressed cache + singleflight);
//   - a rate-limited client observes 429 with Retry-After while other
//     clients are unaffected;
//   - the NDJSON result stream round-trips through trace.monlog parsing
//     bit-identically with a direct in-process replay.
//
// The soak at the bottom hammers the daemon from concurrent clients
// under -race.

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	fpspy "repro"
	"repro/internal/isa"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
)

// e2eJob builds a tiny guest whose every divide raises at least the
// inexact condition, captured as a submission clone.
func e2eJob(t testing.TB, name string, divs int, env map[string]string) *jobs.Job {
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

// newDaemon stands up a daemon behind httptest and tears both down at
// test end.
func newDaemon(t testing.TB, opts server.Options) (*server.Server, *httptest.Server) {
	t.Helper()
	srv, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown() //nolint:errcheck // double-shutdown in some tests is fine
	})
	return srv, ts
}

// decodedRecords replays job in process and decodes its trace.
func decodedRecords(t testing.TB, job *jobs.Job, cfg fpspy.Config) int {
	t.Helper()
	res, err := job.Replay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := res.Records()
	if err != nil {
		t.Fatal(err)
	}
	return len(recs)
}

func TestE2ESingleflightAcrossClients(t *testing.T) {
	om := obs.New(obs.Options{})
	_, ts := newDaemon(t, server.Options{Workers: 2, Obs: om})

	job := e2eJob(t, "shared", 4, map[string]string{"TENANT": "42"})
	cfg := fpspy.Config{Mode: fpspy.ModeIndividual}

	// Two different clients submit the identical clone concurrently.
	type outcome struct {
		resp *server.SubmitResponse
		res  *client.Result
		err  error
	}
	outs := make([]outcome, 2)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := client.New(ts.URL, fmt.Sprintf("client-%d", i))
			resp, err := c.Submit(job, cfg)
			if err != nil {
				outs[i] = outcome{err: err}
				return
			}
			res, err := c.Result(resp.ID) // blocks until settled
			outs[i] = outcome{resp: resp, res: res, err: err}
		}(i)
	}
	wg.Wait()
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("client %d: %v", i, o.err)
		}
	}
	if outs[0].resp.ID == outs[1].resp.ID {
		t.Fatal("distinct submissions must get distinct job IDs")
	}

	// Exactly one pass executed: one cache miss, one hit, one thread
	// monitored by the spy across the whole daemon.
	if miss := om.Server.CacheMisses.Load(); miss != 1 {
		t.Errorf("cache misses = %d, want 1", miss)
	}
	if hits := om.Server.CacheHits.Load(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	if mon := om.Spy.ThreadsMonitored.Load(); mon != 1 {
		t.Errorf("threads monitored = %d, want 1 (one pass total)", mon)
	}
	// Both clients see the identical result.
	if outs[0].res.Summary.Steps != outs[1].res.Summary.Steps ||
		outs[0].res.Summary.EventSet != outs[1].res.Summary.EventSet ||
		outs[0].res.Summary.Records != outs[1].res.Summary.Records {
		t.Errorf("summaries diverge: %+v vs %+v", outs[0].res.Summary, outs[1].res.Summary)
	}
	if outs[0].res.Summary.Records == 0 {
		t.Error("individual pass captured no records")
	}
	// The daemon counts a non-probe job's records in place, copying
	// none; the count is the one a read returns.
	if want := decodedRecords(t, job, cfg); outs[0].res.Summary.Records != want {
		t.Errorf("summary records = %d, want %d decoded", outs[0].res.Summary.Records, want)
	}
	if !outs[0].resp.CacheHit && !outs[1].resp.CacheHit {
		t.Error("one of the two identical submissions must be a cache hit")
	}
}

func TestE2ERateLimit429(t *testing.T) {
	_, ts := newDaemon(t, server.Options{
		Workers: 1, RatePerSec: 0.001, Burst: 1, // one token, glacial refill
	})
	job := e2eJob(t, "limited", 1, nil)
	cfg := fpspy.Config{Mode: fpspy.ModeAggregate}

	alice := client.New(ts.URL, "alice")
	// Surface the first 429 instead of sleeping out its Retry-After
	// (client_test covers retry-on-429).
	alice.RetryMax = -1
	if _, err := alice.Submit(job, cfg); err != nil {
		t.Fatal(err)
	}
	_, err := alice.Submit(job, cfg)
	var rl *client.RateLimitError
	if !errors.As(err, &rl) {
		t.Fatalf("second submit err = %v, want RateLimitError", err)
	}
	if rl.RetryAfter < time.Second {
		t.Errorf("Retry-After = %v, want >= 1s", rl.RetryAfter)
	}
	// The raw header is present on the wire.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// (default client identity is the remote host, not "alice" — this
	// one is admitted and fails on the empty body instead)
	if resp.StatusCode == http.StatusTooManyRequests {
		t.Fatal("different client identity must not share alice's bucket")
	}
	// Bob is unaffected by alice's exhausted bucket.
	bob := client.New(ts.URL, "bob")
	if _, err := bob.Submit(job, cfg); err != nil {
		t.Fatalf("bob rate limited by alice's bucket: %v", err)
	}
}

// TestE2EResultStreamRoundTrip proves the result stream is the monitor
// log, bit-identically: a storm-watchdog config generates demote
// events, and the NDJSON stream re-parsed through trace.ParseMonitorLog
// equals the event list of a direct in-process replay.
func TestE2EResultStreamRoundTrip(t *testing.T) {
	_, ts := newDaemon(t, server.Options{Workers: 1})
	job := e2eJob(t, "stormy", 12, nil)
	// Individual mode with a hair-trigger storm watchdog: the divide
	// storm demotes the process to aggregate mode, emitting monitor-log
	// events.
	cfg := fpspy.Config{
		Mode:        fpspy.ModeIndividual,
		StormFaults: 3,
		StormCycles: 100_000_000,
	}

	direct, err := job.Replay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := direct.Store.MonitorEvents()
	if len(want) == 0 {
		t.Fatal("storm config produced no monitor events; the round-trip check needs a non-empty log")
	}

	c := client.New(ts.URL, "analyst")
	resp, err := c.Submit(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Result(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Events, want) {
		t.Errorf("streamed monitor log != direct replay:\nstream: %+v\ndirect: %+v", res.Events, want)
	}
	if res.Summary.Steps != direct.Steps {
		t.Errorf("summary steps %d != direct %d", res.Summary.Steps, direct.Steps)
	}
	if res.Summary.WallCycles != direct.WallCycles {
		t.Errorf("summary wall cycles %d != direct %d", res.Summary.WallCycles, direct.WallCycles)
	}
	if res.Summary.EventSet != uint64(direct.EventSet()) {
		t.Errorf("summary event set %#x != direct %#x", res.Summary.EventSet, uint64(direct.EventSet()))
	}
	if res.Summary.Events != len(want) {
		t.Errorf("summary event count %d != %d", res.Summary.Events, len(want))
	}
}

func TestE2EFiguresAndErrors(t *testing.T) {
	om := obs.New(obs.Options{})
	_, ts := newDaemon(t, server.Options{Workers: 1, Obs: om})
	c := client.New(ts.URL, "tester")

	ids, err := c.Figures()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 15 {
		t.Fatalf("figure list %v, want 15 entries", ids)
	}
	// Figure 8 assembles from static binary analysis — no passes — so
	// it is the cheap end-to-end probe of the figures endpoint.
	fig, err := c.Figure("8")
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID == "" || len(fig.Rows) == 0 || len(fig.Header) == 0 {
		t.Fatalf("figure 8 came back empty: %+v", fig)
	}

	// Unknown routes and bad inputs are typed errors, not hangs.
	var apiErr *client.APIError
	if _, err := c.Status("job-999999"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unknown job status err = %v, want 404", err)
	}
	if _, err := c.Figure("99"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unknown figure err = %v, want 404", err)
	}
	if _, err := c.SubmitBlob("bad", []byte("not a clone"), fpspy.Config{}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("garbage clone err = %v, want 400", err)
	}

	// The metrics scrape reflects the traffic this test generated.
	snap, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Histograms["server.http.figures-ns"].Count < 2 {
		t.Errorf("figures latency histogram count = %d, want >= 2", snap.Histograms["server.http.figures-ns"].Count)
	}
}

// TestE2EUnexecutableCloneRejected: a clone whose instructions the
// machine cannot execute as encoded (an unregistered opcode, a register
// beyond the register files, a branch target outside the program) is
// refused at submission with 400 on both job routes, and the daemon
// goes on serving.
func TestE2EUnexecutableCloneRejected(t *testing.T) {
	_, ts := newDaemon(t, server.Options{Workers: 1})
	c := client.New(ts.URL, "hostile")
	for name, inst := range map[string]isa.Inst{
		"bad-opcode": {Op: isa.Opcode(isa.NumOpcodes() + 3)},
		"movi-r200":  {Op: isa.OpMOVI, Rd: 200, Imm: 1},
		"addsd-x77":  {Op: isa.OpADDSD, Rd: 1, Rs1: 77, Rs2: 2},
		"blt-wraps":  {Op: isa.OpBLT, Rs1: isa.R2, Rs2: isa.R3, Imm: 1<<62 + 1},
	} {
		prog := &isa.Program{Name: name, Base: isa.DefaultCodeBase, Insts: []isa.Inst{inst, {Op: isa.OpHLT}}}
		job := jobs.Capture(name, prog, nil, 1<<20)
		var apiErr *client.APIError
		if _, err := c.Submit(job, fpspy.Config{}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
			t.Errorf("%s: submit err = %v, want 400", name, err)
		}
		if _, err := c.SubmitShadow(job, fpspy.Config{}, 113); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
			t.Errorf("%s: shadow submit err = %v, want 400", name, err)
		}
	}
	resp, err := c.Submit(e2eJob(t, "after", 2, nil), fpspy.Config{Mode: fpspy.ModeIndividual})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Result(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Steps == 0 {
		t.Errorf("valid job after the rejected ones: summary %+v", res.Summary)
	}
}

// TestE2EConcurrentClientsSoak hammers one daemon from many concurrent
// clients over a small set of distinct programs. Under -race this is
// the serving-path soak; the invariants are exact because the cache
// admits exactly one pass per content address.
func TestE2EConcurrentClientsSoak(t *testing.T) {
	const (
		nClients  = 6
		perClient = 12
		nPrograms = 4
	)
	om := obs.New(obs.Options{})
	_, ts := newDaemon(t, server.Options{
		Workers: 4, Shards: 4, QueueDepth: nClients*perClient + 1, Obs: om,
	})
	cfg := fpspy.Config{Mode: fpspy.ModeIndividual}
	progs := make([]*jobs.Job, nPrograms)
	for i := range progs {
		progs[i] = e2eJob(t, fmt.Sprintf("soak-%d", i), i+1, nil)
	}

	summaries := make([][]server.Summary, nClients)
	var wg sync.WaitGroup
	errc := make(chan error, nClients)
	for ci := 0; ci < nClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := client.New(ts.URL, fmt.Sprintf("soak-client-%d", ci))
			for k := 0; k < perClient; k++ {
				job := progs[(ci+k)%nPrograms]
				resp, err := c.Submit(job, cfg)
				if err != nil {
					errc <- fmt.Errorf("client %d submit %d: %w", ci, k, err)
					return
				}
				res, err := c.Result(resp.ID)
				if err != nil {
					errc <- fmt.Errorf("client %d result %s: %w", ci, resp.ID, err)
					return
				}
				summaries[ci] = append(summaries[ci], res.Summary)
			}
		}(ci)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	total := uint64(nClients * perClient)
	if got := om.Server.Submissions.Load(); got != total {
		t.Errorf("submissions = %d, want %d", got, total)
	}
	if miss := om.Server.CacheMisses.Load(); miss != nPrograms {
		t.Errorf("cache misses = %d, want %d (one pass per distinct program)", miss, nPrograms)
	}
	if hits := om.Server.CacheHits.Load(); hits != total-nPrograms {
		t.Errorf("cache hits = %d, want %d", hits, total-nPrograms)
	}
	if mon := om.Spy.ThreadsMonitored.Load(); mon != nPrograms {
		t.Errorf("threads monitored = %d, want %d (exactly one pass per program)", mon, nPrograms)
	}
	if om.Server.Shed.Load() != 0 || om.Server.RateLimited.Load() != 0 {
		t.Errorf("unexpected rejections: shed=%d rateLimited=%d",
			om.Server.Shed.Load(), om.Server.RateLimited.Load())
	}
	// Every client saw the identical summary for the same program.
	byName := map[string]server.Summary{}
	for ci := range summaries {
		for _, sum := range summaries[ci] {
			prev, ok := byName[sum.Name]
			if !ok {
				byName[sum.Name] = sum
				continue
			}
			if prev.Steps != sum.Steps || prev.EventSet != sum.EventSet || prev.Records != sum.Records {
				t.Fatalf("divergent summaries for %s: %+v vs %+v", sum.Name, prev, sum)
			}
		}
	}
	if len(byName) != nPrograms {
		t.Errorf("distinct result names = %d, want %d", len(byName), nPrograms)
	}
}
