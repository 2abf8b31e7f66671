package server_test

// Robustness end-to-end: the daemon restart contract as clients see it.
// A drain with queued jobs happens while clients are mid-Watch over
// real HTTP; the daemon then restarts on the same address, and every
// job must settle exactly once under its original ID — the watchers
// ride through the outage on the client's retry policy alone. Alongside
// it: the crash-safe persistence regression (a torn state write is
// never loaded) and the /healthz draining-vs-healthy distinction.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	fpspy "repro"
	"repro/internal/server"
	"repro/internal/server/client"
)

func TestE2EHealthzDrainingVsHealthy(t *testing.T) {
	srv, ts := newDaemon(t, server.Options{Workers: 1})
	getHealth := func() (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Status string `json:"status"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body.Status
	}
	if code, status := getHealth(); code != http.StatusOK || status != server.StatusOK {
		t.Fatalf("healthy daemon: got %d %q, want 200 %q", code, status, server.StatusOK)
	}
	if _, err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if code, status := getHealth(); code != http.StatusServiceUnavailable || status != server.StatusDraining {
		t.Fatalf("draining daemon: got %d %q, want 503 %q", code, status, server.StatusDraining)
	}
}

// TestTornStateWriteNeverLoaded pins the crash-safe persistence
// contract: a crash mid-save leaves only a temp file, and a restart
// must load the last committed state (or nothing), never the torn
// bytes.
func TestTornStateWriteNeverLoaded(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, "queue.gob")
	torn := []byte("not a gob stream: crashed halfway through")

	// A torn write with no committed state behind it: the daemon starts
	// empty instead of decoding garbage.
	if err := os.WriteFile(state+".tmp", torn, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Options{Workers: 1, StateFile: state})
	if err != nil {
		t.Fatalf("restart over torn temp file: %v", err)
	}
	if _, err := os.Stat(state + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("torn temp file should be swept on load, stat err = %v", err)
	}
	if _, err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Commit real state: one job blocked in flight, one queued, then
	// drain. The queued job is the committed content.
	gate := make(chan struct{})
	running := make(chan struct{}, 1)
	srv1, err := server.New(server.Options{
		Workers: 1, QueueDepth: 8, StateFile: state,
		BeforeRun: func(string) { running <- struct{}{}; <-gate },
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fpspy.Config{Mode: fpspy.ModeAggregate}
	blobA, _ := server.FaultingJob(t, "torn-a", 1, nil).Encode()
	blobB, _ := server.FaultingJob(t, "torn-b", 2, nil).Encode()
	if _, err := srv1.Submit("tester", "torn-a", blobA, cfg); err != nil {
		t.Fatal(err)
	}
	<-running
	sub, err := srv1.Submit("tester", "torn-b", blobB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() { time.Sleep(10 * time.Millisecond); close(gate) }()
	if n, err := srv1.Shutdown(); err != nil || n != 1 {
		t.Fatalf("Shutdown = (%d, %v), want 1 persisted job", n, err)
	}

	// Crash during the NEXT save: garbage lands in the temp file while
	// the committed file still holds the real queue.
	if err := os.WriteFile(state+".tmp", torn, 0o644); err != nil {
		t.Fatal(err)
	}
	srv2, err := server.New(server.Options{Workers: 1, QueueDepth: 8, StateFile: state})
	if err != nil {
		t.Fatalf("restart with committed state + torn temp: %v", err)
	}
	defer srv2.Shutdown() //nolint:errcheck // test teardown
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := srv2.WaitOutcome(ctx, sub.ID); err != nil {
		t.Fatalf("committed job %s did not settle after restart: %v", sub.ID, err)
	}
	if _, err := os.Stat(state + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("torn temp file survived the restart, stat err = %v", err)
	}
}

// TestE2ERestartReadmissionConcurrentClients drains a daemon with
// queued jobs while clients are mid-Watch over HTTP, restarts it on the
// same address, and asserts every job settles exactly once under its
// original ID. The watchers never see the outage: the client retry
// policy absorbs both the drain's 503s and the dead-port window.
func TestE2ERestartReadmissionConcurrentClients(t *testing.T) {
	const queued = 4
	state := filepath.Join(t.TempDir(), "queue.gob")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	gate := make(chan struct{})
	running := make(chan struct{}, 1)
	srv1, err := server.New(server.Options{
		Workers: 1, QueueDepth: 16, StateFile: state,
		BeforeRun: func(string) { running <- struct{}{}; <-gate },
	})
	if err != nil {
		t.Fatal(err)
	}
	hs1 := &http.Server{Handler: srv1}
	go hs1.Serve(ln) //nolint:errcheck // closed in-test

	newClient := func(id string) *client.Client {
		c := client.New("http://"+addr, id)
		c.RetryMax = 200
		c.RetryBaseWait = time.Millisecond
		c.RetryMaxWait = 25 * time.Millisecond
		return c
	}

	// Block the single worker, then queue jobs behind it.
	cfg := fpspy.Config{Mode: fpspy.ModeAggregate}
	blocker, _ := server.FaultingJob(t, "restart-blocker", 1, nil).Encode()
	if _, err := newClient("c0").SubmitBlobContext(context.Background(), "restart-blocker", blocker, cfg); err != nil {
		t.Fatal(err)
	}
	<-running
	ids := make([]string, queued)
	for i := range ids {
		blob, _ := server.FaultingJob(t, fmt.Sprintf("restart-%d", i), i+2, nil).Encode()
		resp, err := newClient(fmt.Sprintf("c%d", i+1)).SubmitBlobContext(context.Background(), fmt.Sprintf("restart-%d", i), blob, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if resp.CacheHit {
			t.Fatalf("job %d unexpectedly hit cache", i)
		}
		ids[i] = resp.ID
	}

	// One watcher per queued job; each confirms a successful poll before
	// the drain starts so it is genuinely mid-Watch.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var ready, done sync.WaitGroup
	results := make([]*server.StatusResponse, queued)
	errs := make([]error, queued)
	for i, id := range ids {
		ready.Add(1)
		done.Add(1)
		go func(i int, id string) {
			defer done.Done()
			c := newClient(fmt.Sprintf("w%d", i))
			if _, err := c.StatusContext(ctx, id); err != nil {
				ready.Done()
				errs[i] = fmt.Errorf("pre-drain poll: %w", err)
				return
			}
			ready.Done()
			results[i], errs[i] = c.WatchContext(ctx, id, 5*time.Millisecond)
		}(i, id)
	}
	ready.Wait()

	// Drain with the watchers live, then kill the listener mid-Watch.
	go func() { time.Sleep(20 * time.Millisecond); close(gate) }()
	if n, err := srv1.Shutdown(); err != nil || n != queued {
		t.Fatalf("Shutdown = (%d, %v), want %d persisted jobs", n, err, queued)
	}
	hs1.Close() //nolint:errcheck // drop watcher connections hard

	// Restart on the same address. BeforeRun now counts passes: exactly
	// one per re-admitted job, none duplicated by the retrying watchers.
	var passes atomic.Int32
	srv2, err := server.New(server.Options{
		Workers: 2, QueueDepth: 16, StateFile: state,
		BeforeRun: func(string) { passes.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hs2 := &http.Server{Handler: srv2}
	go hs2.Serve(ln2) //nolint:errcheck // closed in cleanup
	t.Cleanup(func() {
		hs2.Close()     //nolint:errcheck // test teardown
		srv2.Shutdown() //nolint:errcheck // test teardown
	})

	done.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("watcher %d: %v", i, err)
		}
		if results[i].ID != ids[i] {
			t.Fatalf("watcher %d: settled under %s, want original %s", i, results[i].ID, ids[i])
		}
		if results[i].State != server.StateDone {
			t.Fatalf("watcher %d: state %s, want done (%s)", i, results[i].State, results[i].Error)
		}
	}
	if n := passes.Load(); n != queued {
		t.Fatalf("restarted daemon ran %d passes, want exactly %d", n, queued)
	}
}
