package cluster_test

// The recovery path of one forward, scripted call by call: a node whose
// only peer is a RoundTripper answering from a script, so each attempt's
// fate is fixed in advance. No test sleeps or polls; only an attempt to
// a silent owner waits, for the node's own per-call deadline. A forward
// calls the owner under that deadline, retries transient failures, and
// otherwise hands its job back to the local queue; these tests pin each
// branch.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	fpspy "repro"
	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
)

// scriptPeer stands in for the one peer a node forwards to: attempt
// call (from 1), asking about content address key, is answered by
// answer with a status and a JSON body carrying its digest, or fails in
// transport when answer returns an error.
type scriptPeer struct {
	calls  atomic.Int32
	answer func(call int32, key string) (status int, reply any, err error)
}

// errSilent scripts an owner that never answers: the attempt ends when
// its per-call deadline does.
var errSilent = errors.New("owner silent")

func (sp *scriptPeer) RoundTrip(req *http.Request) (*http.Response, error) {
	var asked struct {
		Key string `json:"key"`
	}
	if req.Body != nil {
		json.NewDecoder(req.Body).Decode(&asked) //nolint:errcheck // only a run RPC names a key
		req.Body.Close()                         //nolint:errcheck // request fully read
	}
	status, reply, err := sp.answer(sp.calls.Add(1), asked.Key)
	if errors.Is(err, errSilent) {
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(reply)
	if err != nil {
		return nil, err
	}
	h := http.Header{}
	h.Set(cluster.DigestHeader, digestOf(body))
	return &http.Response{
		StatusCode: status, Header: h, Request: req,
		Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body)),
	}, nil
}

func digestOf(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// ownerReply is a run RPC's answer as it travels from the owner.
type ownerReply struct {
	Key     string          `json:"key"`
	Outcome *server.Outcome `json:"outcome,omitempty"`
}

// scripted is a one-worker daemon wrapped in a node whose only peer is
// a scriptPeer.
type scripted struct {
	srv    *server.Server
	node   *cluster.Node
	om     *obs.Metrics
	peer   *scriptPeer
	passes atomic.Int32
}

// newScripted builds a scripted node; beforeRun, when set, runs after
// the pass count at the start of every local pass.
func newScripted(t *testing.T, beforeRun func(id string)) *scripted {
	t.Helper()
	s := &scripted{om: obs.New(obs.Options{}), peer: &scriptPeer{}}
	srv, err := server.New(server.Options{
		Workers: 1, QueueDepth: 4, Obs: s.om,
		BeforeRun: func(id string) {
			s.passes.Add(1)
			if beforeRun != nil {
				beforeRun(id)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	node, err := cluster.NewNode(cluster.Options{
		Server: srv, Self: "http://self", Peers: []string{"http://peer"}, Obs: s.om,
		HTTPClient: &http.Client{Transport: s.peer}, ProbeInterval: -1, RPCTimeout: 50 * time.Millisecond,
		RetryMax: 3, RetryBaseWait: time.Millisecond, RetryMaxWait: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.srv, s.node = srv, node
	t.Cleanup(func() {
		node.Close()
		srv.Shutdown() //nolint:errcheck // teardown
	})
	return s
}

// submitForeign submits, through the node's client API, a clone whose
// content address the peer owns, so the node places it and forwards it
// once. It returns the job's ID.
func (s *scripted) submitForeign(t *testing.T, cfg fpspy.Config) string {
	t.Helper()
	var j *jobs.Job
	for i := 0; j == nil; i++ {
		c := cjob(t, fmt.Sprintf("foreign-%d", i), 1+i)
		if s.node.Ring().Owner(server.CacheKey(c, cfg)) == "http://peer" {
			j = c
		}
	}
	body, err := json.Marshal(server.SubmitRequest{Clone: encodeJob(t, j), Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	// A forward that fails at once may settle the job before the handler
	// answers, which makes the answer 200 instead of 202.
	w := submitAs(s.node, "10.0.0.1", bytes.NewReader(body))
	var resp server.SubmitResponse
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil || (w.Code != http.StatusAccepted && w.Code != http.StatusOK) {
		t.Fatalf("submit: %d %v", w.Code, err)
	}
	return resp.ID
}

// TestForwardRecovery forwards one job per case through a scripted
// owner and checks how it settles: from the owner's answer after a
// dropped or timed-out attempt is retried, or by a local pass once the
// retries run out, after a refusal, or after an answer under another
// content address.
func TestForwardRecovery(t *testing.T) {
	cfg := fpspy.Config{Mode: fpspy.ModeAggregate}
	// owned is the owner's outcome, marked so that no local pass can
	// produce it.
	owned := &server.Outcome{AccumFingerprint: "from the owner"}
	for _, tc := range []struct {
		name   string
		answer func(call int32, key string) (int, any, error)
		// calls, retries and local are the attempts sent, the retries
		// among them and the local fallbacks taken.
		calls, retries, local int
	}{
		{"dropped-then-answered", func(call int32, key string) (int, any, error) {
			if call == 1 {
				return 0, nil, errors.New("connection reset by scripted peer")
			}
			return http.StatusOK, ownerReply{Key: key, Outcome: owned}, nil
		}, 2, 1, 0},
		{"silent-then-answered", func(call int32, key string) (int, any, error) {
			if call == 1 {
				return 0, nil, errSilent
			}
			return http.StatusOK, ownerReply{Key: key, Outcome: owned}, nil
		}, 2, 1, 0},
		{"silent", func(int32, string) (int, any, error) {
			return 0, nil, errSilent
		}, 3, 2, 1},
		{"refused", func(int32, string) (int, any, error) {
			return http.StatusBadRequest, map[string]string{"error": "refused"}, nil
		}, 1, 0, 1},
		{"answered-under-another-key", func(_ int32, key string) (int, any, error) {
			return http.StatusOK, ownerReply{Key: "other-" + key, Outcome: owned}, nil
		}, 1, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newScripted(t, nil)
			s.peer.answer = tc.answer
			id := s.submitForeign(t, cfg)
			out, err := s.srv.WaitOutcome(context.Background(), id)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.peer.calls.Load(); got != int32(tc.calls) {
				t.Errorf("owner called %d times, want %d", got, tc.calls)
			}
			cl := &s.om.Cluster
			if got := cl.Retries.Load(); got != uint64(tc.retries) {
				t.Errorf("cluster.retries = %d, want %d", got, tc.retries)
			}
			if got := cl.PartitionLocal.Load(); got != uint64(tc.local) {
				t.Errorf("cluster.partition-local = %d, want %d", got, tc.local)
			}
			if got := s.passes.Load(); got != int32(tc.local) {
				t.Errorf("%d local passes, want %d", got, tc.local)
			}
			if fromOwner := out.AccumFingerprint == owned.AccumFingerprint; fromOwner != (tc.local == 0) {
				t.Errorf("job settled from the owner: %v, want %v", fromOwner, tc.local == 0)
			}
		})
	}
}

// TestRunRefusesMismatchedKey checks the owner side: a run RPC whose
// body arrived intact but whose clone and config do not hash to the key
// it names is answered 400 and starts no pass. The same body under its
// true key is then studied, proving the refusal came from the key.
func TestRunRefusesMismatchedKey(t *testing.T) {
	s := newScripted(t, nil)
	cfg := fpspy.Config{Mode: fpspy.ModeAggregate}
	j := cjob(t, "mismatched", 2)
	run := func(key string) int {
		body, err := json.Marshal(map[string]any{
			"name": j.Name, "client": "peer", "clone": encodeJob(t, j), "config": cfg, "key": key,
		})
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/cluster/v1/run", bytes.NewReader(body))
		req.Header.Set(cluster.DigestHeader, digestOf(body))
		w := httptest.NewRecorder()
		s.node.ServeHTTP(w, req)
		return w.Code
	}
	key := server.CacheKey(j, cfg)
	if code := run(strings.Repeat("0", len(key))); code != http.StatusBadRequest {
		t.Fatalf("run under a mismatched key answered %d, want 400", code)
	}
	if got := s.passes.Load(); got != 0 {
		t.Fatalf("a refused run started %d passes", got)
	}
	if code := run(key); code != http.StatusOK || s.passes.Load() != 1 {
		t.Fatalf("run under the true key answered %d after %d passes", code, s.passes.Load())
	}
}

// TestRequeuedForwardPersistedOnce drains a daemon whose forward failed
// and went back to the local queue while its one worker was busy: the
// requeued job is persisted once, not once from the queue and again as
// a job still placed on a peer.
func TestRequeuedForwardPersistedOnce(t *testing.T) {
	started := make(chan struct{})
	// queued hands the worker the requeued job's ID; its one slot lets
	// the cleanup below release a worker the test never reached.
	queued := make(chan string, 1)
	var s *scripted
	s = newScripted(t, func(id string) {
		if id != "job-000001" {
			return
		}
		close(started)
		// Hold the worker until the drain begins: WaitOutcome on the
		// queued job returns only once Shutdown has stopped dispatching.
		s.srv.WaitOutcome(context.Background(), <-queued) //nolint:errcheck // interrupted by the drain
	})
	t.Cleanup(func() {
		select {
		case queued <- "":
		default:
		}
	})
	s.peer.answer = func(int32, string) (int, any, error) { return 0, nil, errors.New("peer down") }
	cfg := fpspy.Config{Mode: fpspy.ModeAggregate}
	if _, err := s.srv.Submit("jam", "jam", encodeJob(t, cjob(t, "jam", 1000)), cfg); err != nil {
		t.Fatal(err)
	}
	<-started
	id := s.submitForeign(t, cfg)
	s.node.Close() // returns once the failed forward has requeued its job
	if got := s.om.Cluster.PartitionLocal.Load(); got != 1 {
		t.Errorf("cluster.partition-local = %d, want 1", got)
	}
	queued <- id
	n, err := s.srv.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("drain persisted %d jobs, want the requeued forward once", n)
	}
}
