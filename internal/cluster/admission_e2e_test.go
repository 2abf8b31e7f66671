package cluster_test

// A cluster node admits client submissions through the daemon's own
// handlers: the same body bound, client identity, rate limiting and
// metrics as a lone daemon, and one forward per new content address no
// matter how many identical submissions attach to it.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	fpspy "repro"
	"repro/internal/cluster"
	"repro/internal/server"
)

// submitAs posts body on /v1/jobs straight into a node's handler as a
// header-less client connecting from host.
func submitAs(node *cluster.Node, host string, body io.Reader) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", body)
	req.RemoteAddr = host + ":40000"
	w := httptest.NewRecorder()
	node.ServeHTTP(w, req)
	return w
}

// submitBody is a /v1/jobs body carrying blob.
func submitBody(t *testing.T, blob []byte) io.Reader {
	t.Helper()
	body, err := json.Marshal(server.SubmitRequest{Clone: blob, Config: fpspy.Config{Mode: fpspy.ModeAggregate}})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(body)
}

func TestNodeSubmitBodyBound(t *testing.T) {
	peers := newTestCluster(t, 2, nil)
	// A clone 1 MiB over the daemon's 64 MiB body bound. It is streamed,
	// never held whole, so the test costs what the handler reads.
	const over = 64<<20 + 1<<20
	body := io.MultiReader(strings.NewReader(`{"clone":"`),
		io.LimitReader(repeatByte('A'), over), strings.NewReader(`"}`))
	w := submitAs(peers[0].node, "10.0.0.1", body)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "request body too large") {
		t.Fatalf("oversized submission via a node: %d %s, want 400 request body too large",
			w.Code, strings.TrimSpace(w.Body.String()))
	}
}

func TestNodeRateLimitsByHost(t *testing.T) {
	peers := newTestCluster(t, 2, func(_ int, so *server.Options, _ *cluster.Options) {
		so.RatePerSec, so.Burst = 0.001, 1
	})
	blob := encodeJob(t, cjob(t, "by-host", 2))
	for _, host := range []string{"10.0.0.1", "10.0.0.2"} {
		if w := submitAs(peers[0].node, host, submitBody(t, blob)); w.Code == http.StatusTooManyRequests {
			t.Fatalf("first submission from %s: %d %s; header-less clients on different hosts share a bucket",
				host, w.Code, strings.TrimSpace(w.Body.String()))
		}
	}
	// The limiter is on: the first host's second submission is refused.
	if w := submitAs(peers[0].node, "10.0.0.1", submitBody(t, blob)); w.Code != http.StatusTooManyRequests {
		t.Fatalf("second submission from one host: %d, want 429", w.Code)
	}
}

func TestNodeSubmitMetrics(t *testing.T) {
	// The pass is held, on whichever peer owns the job, until the first
	// response is read: the job runs in microseconds, and a job already
	// done when the handler reads its state is answered 200, not 202.
	gate := make(chan struct{})
	var gateOnce sync.Once
	open := func() { gateOnce.Do(func() { close(gate) }) }
	peers := newTestCluster(t, 2, func(_ int, so *server.Options, _ *cluster.Options) {
		so.RatePerSec, so.Burst = 0.001, 1
		prev := so.BeforeRun
		so.BeforeRun = func(id string) {
			prev(id)
			<-gate
		}
	})
	defer open()
	blob := encodeJob(t, cjob(t, "metered", 2))
	w := submitAs(peers[0].node, "10.0.0.1", submitBody(t, blob))
	open()
	if w.Code != http.StatusAccepted {
		t.Fatalf("submission via a node: %d %s", w.Code, strings.TrimSpace(w.Body.String()))
	}
	sv := &peers[0].om.Server
	if sv.SubmitNS.Count() == 0 {
		t.Fatal("a submission via a node was not observed in server.http.submit-ns")
	}
	if w := submitAs(peers[0].node, "10.0.0.1", submitBody(t, blob)); w.Code != http.StatusTooManyRequests {
		t.Fatalf("rate-limited submission via a node: %d, want 429", w.Code)
	}
	if got := sv.RateLimited.Load(); got != 1 {
		t.Fatalf("server.rate-limited = %d after one refusal via a node, want 1", got)
	}
}

func TestNodeForwardsOncePerAddress(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	open := func() { gateOnce.Do(func() { close(gate) }) }
	peers := newTestCluster(t, 3, func(i int, so *server.Options, _ *cluster.Options) {
		if i == 1 {
			prev := so.BeforeRun
			so.BeforeRun = func(id string) {
				prev(id)
				<-gate
			}
		}
	})
	defer open()
	cfg := fpspy.Config{Mode: fpspy.ModeAggregate}
	j := jobOwnedBy(t, peers, 1, cfg)
	blob := encodeJob(t, j)

	// Six identical submissions via peer 0 while the owner holds the
	// pass: all six are admitted before anything settles.
	const dups = 6
	ids := make([]string, dups)
	var wg sync.WaitGroup
	errs := make(chan error, dups)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := fastClient(peers[0].url, fmt.Sprintf("dup-%d", i)).SubmitBlobContext(context.Background(), j.Name, blob, cfg)
			if err != nil {
				errs <- err
				return
			}
			ids[i] = resp.ID
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	open()
	cl := fastClient(peers[0].url, "dup-watch")
	for _, id := range ids {
		if st, err := cl.WatchContext(context.Background(), id, 5*time.Millisecond); err != nil {
			t.Fatal(err)
		} else if st.State != server.StateDone {
			t.Fatalf("job %s: state %s (%s)", id, st.State, st.Error)
		}
	}
	if got := peers[0].cm().Forwards.Load(); got != 1 {
		t.Fatalf("peer 0 made %d forwards for %d identical submissions, want 1", got, dups)
	}
	if got := totalPasses(peers); got != 1 {
		t.Fatalf("cluster ran %d passes, want 1", got)
	}
}

// TestForwardedCacheHit: a submission placed on an owner that answers
// from its cache reads as a cache hit where it was submitted — no pass
// ran for it anywhere.
func TestForwardedCacheHit(t *testing.T) {
	peers := newTestCluster(t, 3, nil)
	cfg := fpspy.Config{Mode: fpspy.ModeAggregate}
	j := jobOwnedBy(t, peers, 1, cfg)
	blob := encodeJob(t, j)
	for i, via := range []int{1, 0} {
		cl := fastClient(peers[via].url, "forwarded-hit")
		resp, err := cl.SubmitBlobContext(context.Background(), j.Name, blob, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := cl.WatchContext(context.Background(), resp.ID, 5*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != server.StateDone || st.CacheHit != (i == 1) {
			t.Fatalf("submission %d via peer %d: state %s cacheHit=%v (%s)", i, via, st.State, st.CacheHit, st.Error)
		}
	}
	if got := peers[0].cm().Forwards.Load(); got != 1 {
		t.Fatalf("peer 0 made %d forwards, want 1", got)
	}
	if got := totalPasses(peers); got != 1 {
		t.Fatalf("cluster ran %d passes, want 1", got)
	}
}

// TestForwardFailsOnFullQueue: a forward that fails while the local
// queue is full fails its job with the queue-full message instead of
// leaving it pending, and leaves no cache entry behind.
func TestForwardFailsOnFullQueue(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	peers := newTestCluster(t, 3, func(i int, so *server.Options, _ *cluster.Options) {
		if i == 0 {
			so.Workers, so.QueueDepth = 1, 1
			prev := so.BeforeRun
			so.BeforeRun = func(id string) {
				prev(id)
				if id == "job-000001" {
					started <- struct{}{}
					<-gate
				}
			}
		}
	})
	defer close(gate)
	cfg := fpspy.Config{Mode: fpspy.ModeAggregate}

	// Jam peer 0: one pass held in flight, one job filling the queue.
	// Their divide counts lie beyond jobOwnedBy's, so j cannot share
	// their content address.
	if _, err := peers[0].srv.Submit("jam", "jam", encodeJob(t, cjob(t, "jam", 1000)), cfg); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := peers[0].srv.Submit("jam", "queued", encodeJob(t, cjob(t, "queued", 1001)), cfg); err != nil {
		t.Fatal(err)
	}
	j := jobOwnedBy(t, peers, 1, cfg)
	peers[1].kill()
	peers[2].kill()

	cl := fastClient(peers[0].url, "full-queue")
	resp, err := cl.SubmitBlobContext(context.Background(), j.Name, encodeJob(t, j), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.WatchContext(context.Background(), resp.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateFailed || !strings.Contains(st.Error, server.ErrQueueFull.Error()) {
		t.Fatalf("job %s: state %s (%s), want failed with %q", resp.ID, st.State, st.Error, server.ErrQueueFull)
	}
	if _, _, ok := peers[0].srv.CachedOutcome(server.CacheKey(j, cfg)); ok {
		t.Fatal("the shed job left a cache entry behind")
	}
}

// repeatByte is an endless stream of b.
type repeatByte byte

func (r repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}
