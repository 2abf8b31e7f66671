package cluster

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/server"
)

// replayTransport answers every call with one recorded reply, with bit
// flip of its body inverted (flip < 0 leaves the body intact) and the
// digest header dropped when noDigest is set.
type replayTransport struct {
	header   http.Header
	body     []byte
	flip     int
	noDigest bool
}

func (rt *replayTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close() //nolint:errcheck // request fully sent
	}
	body := bytes.Clone(rt.body)
	if rt.flip >= 0 {
		body[rt.flip/8] ^= 1 << uint(rt.flip%8)
	}
	h := rt.header.Clone()
	if rt.noDigest {
		h.Del(DigestHeader)
	}
	return &http.Response{
		StatusCode: http.StatusOK, Header: h, Request: req,
		Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body)),
	}, nil
}

// TestCorruptReplyNeverInstalled flips each bit of a recorded run reply
// in turn and forwards a job through it: every flip must be rejected,
// counted in cluster.rpc-errors, and never installed in the local
// cache. The intact reply is then accepted and installed, proving the
// rejections came from the digest and not from a broken harness.
func TestCorruptReplyNeverInstalled(t *testing.T) {
	srv, err := server.New(server.Options{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown() //nolint:errcheck // teardown
	const key = "flip-key"
	rec := httptest.NewRecorder()
	clusterJSON(rec, http.StatusOK, runResponse{Key: key, Outcome: &server.Outcome{Steps: 7, EventSet: 0x20, Records: 3}})
	rt := &replayTransport{header: rec.Header(), body: rec.Body.Bytes()}
	om := obs.New(obs.Options{})
	n, err := NewNode(Options{
		Server: srv, Self: "http://self", Peers: []string{"http://peer"}, Obs: om,
		HTTPClient: &http.Client{Transport: rt}, ProbeInterval: -1, RetryMax: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	// The job as Place hands it over. The daemon holds no entry under
	// key, so the local fallback after a rejected reply (RequeuePending)
	// has nothing to run and can install nothing under key either.
	job := server.PendingJob{Name: "flip", Client: "c", Key: key, Blob: []byte("not a clone")}
	forward := func() {
		n.wg.Add(1)
		n.forward(job)
	}
	installed := func() bool {
		_, _, ok := srv.CachedOutcome(key)
		return ok
	}

	bits := len(rt.body) * 8
	for rt.flip = 0; rt.flip < bits; rt.flip++ {
		if forward(); installed() {
			t.Fatalf("bit %d: corrupted reply was installed", rt.flip)
		}
		if got := om.Cluster.RPCErrors.Load(); got != uint64(rt.flip+1) {
			t.Fatalf("bit %d: rpc errors = %d, want %d", rt.flip, got, rt.flip+1)
		}
	}
	// A reply with no digest at all is rejected the same way.
	rt.flip, rt.noDigest = -1, true
	if forward(); installed() {
		t.Fatal("reply without a digest was installed")
	}
	if got := om.Cluster.RPCErrors.Load(); got != uint64(bits+1) {
		t.Fatalf("rpc errors = %d after %d flips and one missing digest", got, bits)
	}

	rt.noDigest = false
	forward()
	if out, _, ok := srv.CachedOutcome(key); !ok || out.Steps != 7 {
		t.Fatalf("intact reply not installed: %+v", out)
	}
}

// TestCorruptRequestRefused checks the receiving side: a peer RPC whose
// body does not match its digest is answered 5xx (so the sender
// retries) before any handler decodes it.
func TestCorruptRequestRefused(t *testing.T) {
	srv, err := server.New(server.Options{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown() //nolint:errcheck // teardown
	n, err := NewNode(Options{Server: srv, Self: "http://self", ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	join := func(body, digest string) int {
		req := httptest.NewRequest(http.MethodPost, "/cluster/v1/join", strings.NewReader(body))
		if digest != "" {
			req.Header.Set(DigestHeader, digest)
		}
		w := httptest.NewRecorder()
		n.ServeHTTP(w, req)
		return w.Code
	}
	sent := `{"peer":"http://joiner"}`
	flipped := `{"peer":"http://joiNer"}`
	for _, c := range []struct{ body, digest string }{
		{flipped, bodyDigest([]byte(sent))},
		{sent, ""},
	} {
		if code := join(c.body, c.digest); !rpcRetryable(&rpcError{Status: code}) {
			t.Errorf("corrupt join answered %d, want a retryable 5xx", code)
		}
		if n.ring.Alive("http://joiner") || n.ring.Alive("http://joiNer") {
			t.Fatal("handler acted on a corrupt request")
		}
	}
	if code := join(sent, bodyDigest([]byte(sent))); code != http.StatusOK {
		t.Fatalf("intact join answered %d", code)
	}
	if !n.ring.Alive("http://joiner") {
		t.Fatal("intact join not applied")
	}
}
