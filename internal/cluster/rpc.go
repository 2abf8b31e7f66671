package cluster

// The peer-to-peer RPC path. Every call gets a per-call deadline;
// transient failures retry with capped exponential backoff and full
// jitter; calls that name more than one replica hedge — when the owner
// has not answered within hedgeAfter, the same request races to the
// next ring replica and the first answer wins. Hedging is safe because
// the run RPC is idempotent by construction: it is keyed on the content
// address, so a duplicate arrival is a cache hit on the receiver, never
// a second study pass.
//
// Every request and reply body travels with its SHA-256 digest in
// DigestHeader. A body whose digest is missing or wrong was corrupted
// in flight: both ends treat it as a dropped call, never as data, so a
// flipped bit can only cost a retry — it cannot become a cached result.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	fpspy "repro"
	"repro/internal/obs"
	"repro/internal/server"
)

// Wire types for /cluster/v1/*. Outcomes travel as server.Outcome,
// which is JSON-clean by construction.

// runRequest asks the owning peer to study one clone.
type runRequest struct {
	Name   string       `json:"name"`
	Client string       `json:"client"`
	Clone  []byte       `json:"clone"`
	Config fpspy.Config `json:"config"`
	// Key is the sender-computed content address; the receiver verifies
	// it so a corrupted clone or config cannot settle under the wrong
	// address.
	Key string `json:"key"`
}

// runResponse is a settled study: outcome or pass error.
type runResponse struct {
	Key      string          `json:"key"`
	CacheHit bool            `json:"cacheHit"`
	Outcome  *server.Outcome `json:"outcome,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// healthResponse is one gossip exchange: the peer's own status and
// load, plus its liveness view of the membership.
type healthResponse struct {
	Status   string          `json:"status"`
	Self     string          `json:"self"`
	QueueLen int             `json:"queueLen"`
	Peers    map[string]bool `json:"peers"`
}

type stealRequest struct {
	Max int `json:"max"`
}

type stealResponse struct {
	Jobs []server.PendingJob `json:"jobs"`
}

// completeRequest returns a stolen job's outcome to its victim.
type completeRequest struct {
	Key     string          `json:"key"`
	Outcome *server.Outcome `json:"outcome,omitempty"`
	Error   string          `json:"error,omitempty"`
}

type joinRequest struct {
	Peer string `json:"peer"`
}

type joinResponse struct {
	Peers []string `json:"peers"`
}

// rpcError is a non-2xx peer response.
type rpcError struct {
	Status int
	Msg    string
}

func (e *rpcError) Error() string {
	return fmt.Sprintf("cluster rpc: %s (HTTP %d)", e.Msg, e.Status)
}

// ErrNoPeers means the ring has no live replica for the call.
var ErrNoPeers = errors.New("cluster: no live peers")

// DigestHeader carries the hex SHA-256 of a /cluster/v1/* body.
const DigestHeader = "X-Fpspy-Digest"

// rpcBodyLimit bounds the bytes read from one request or reply body.
const rpcBodyLimit = 64 << 20

// errDigest marks a body that failed its digest check.
var errDigest = errors.New("cluster rpc: body digest mismatch")

func bodyDigest(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// checkDigest verifies body against the digest its sender put in h.
func checkDigest(h http.Header, body []byte) error {
	if h.Get(DigestHeader) != bodyDigest(body) {
		return errDigest
	}
	return nil
}

// verified admits a /cluster/v1/* request only when its body matches its
// digest, so no handler ever decodes a corrupted body. A mismatch is
// answered 502, which the sender retries like a dropped call.
func verified(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, rpcBodyLimit))
		if err == nil {
			err = checkDigest(r.Header, body)
		}
		if err != nil {
			clusterError(w, http.StatusBadGateway, "%v", err)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		h(w, r)
	}
}

// rpcRetryable classifies an attempt error: transport failures, digest
// and decode failures (a corrupted wire must never be trusted, only
// retried), and 5xx responses are transient; 4xx responses are
// permanent.
func rpcRetryable(err error) bool {
	var re *rpcError
	if errors.As(err, &re) {
		return re.Status >= 500
	}
	return err != nil
}

// rpcClient issues cluster RPCs under the robustness policy.
type rpcClient struct {
	hc         *http.Client
	timeout    time.Duration // per-call deadline
	hedgeAfter time.Duration // silence before the hedge fires
	retryMax   int
	baseWait   time.Duration
	maxWait    time.Duration
	cm         *obs.ClusterMetrics // nil when observability is off

	mu  sync.Mutex
	rng *rand.Rand
}

func newRPCClient(hc *http.Client, o Options, cm *obs.ClusterMetrics) *rpcClient {
	return &rpcClient{
		hc: hc, timeout: o.RPCTimeout, hedgeAfter: o.HedgeAfter,
		retryMax: o.RetryMax, baseWait: o.RetryBaseWait, maxWait: o.RetryMaxWait,
		// The jitter seed is fixed: streams still decorrelate across
		// nodes because draws interleave with each node's own call order.
		cm: cm, rng: rand.New(rand.NewSource(0x5eed)),
	}
}

// once performs one HTTP exchange against one peer and returns the raw
// response body on 2xx, after checking it against its digest.
func (r *rpcClient) once(ctx context.Context, peer, method, path string, in any) ([]byte, error) {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return nil, fmt.Errorf("cluster rpc: encode: %w", err)
		}
	}
	req, err := http.NewRequestWithContext(ctx, method, peer+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(DigestHeader, bodyDigest(body))
	resp, err := r.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, rpcBodyLimit))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return nil, &rpcError{Status: resp.StatusCode, Msg: strings.TrimSpace(string(data))}
	}
	if err := checkDigest(resp.Header, data); err != nil {
		return nil, fmt.Errorf("%w (%s %s)", err, method, path)
	}
	return data, nil
}

// hedged races one logical call across up to two replicas: the primary
// immediately, the successor after hedgeAfter of silence (or at once if
// the primary fails fast). First success wins; losers are cancelled by
// the shared per-call deadline context.
func (r *rpcClient) hedged(ctx context.Context, peers []string, method, path string, in, out any) error {
	cctx, cancel := context.WithTimeout(ctx, r.timeout)
	defer cancel()
	type attempt struct {
		body  []byte
		err   error
		hedge bool
	}
	ch := make(chan attempt, len(peers))
	launch := func(peer string, hedge bool) {
		go func() {
			body, err := r.once(cctx, peer, method, path, in)
			ch <- attempt{body, err, hedge}
		}()
	}
	launch(peers[0], false)
	outstanding := 1
	var hedgeC <-chan time.Time
	if len(peers) > 1 && r.hedgeAfter > 0 {
		t := time.NewTimer(r.hedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	fireHedge := func() {
		hedgeC = nil
		if r.cm != nil {
			r.cm.Hedges.Inc()
		}
		launch(peers[1], true)
		outstanding++
	}
	var lastErr error
	for {
		select {
		case <-hedgeC:
			fireHedge()
		case a := <-ch:
			outstanding--
			if a.err == nil {
				if out != nil {
					if derr := json.Unmarshal(a.body, out); derr != nil {
						// A corrupted response is an error, not data.
						a.err = fmt.Errorf("cluster rpc: decode %s: %w", path, derr)
					}
				}
			}
			if a.err == nil {
				if a.hedge && r.cm != nil {
					r.cm.HedgeWins.Inc()
				}
				return nil
			}
			lastErr = a.err
			if r.cm != nil {
				r.cm.RPCErrors.Inc()
			}
			if outstanding == 0 {
				if hedgeC != nil {
					// The primary failed before the hedge timer: hedge
					// immediately instead of waiting out the silence.
					fireHedge()
					continue
				}
				return lastErr
			}
		case <-cctx.Done():
			return cctx.Err()
		}
	}
}

// invoke is the full robust call: per-attempt hedged exchange, capped
// jittered backoff between attempts, fresh replica set each attempt (so
// an eviction mid-call reroutes the retry), and context cancellation
// throughout.
func (r *rpcClient) invoke(ctx context.Context, replicas func() []string, method, path string, in, out any) error {
	var lastErr error
	for att := 1; att <= r.retryMax; att++ {
		peers := replicas()
		if len(peers) == 0 {
			return ErrNoPeers
		}
		err := r.hedged(ctx, peers, method, path, in, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !rpcRetryable(err) || att == r.retryMax {
			return lastErr
		}
		if r.cm != nil {
			r.cm.Retries.Inc()
		}
		t := time.NewTimer(r.backoff(att))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	return lastErr
}

// backoff is the capped exponential wait with full jitter for retry
// attempt att (1-based).
func (r *rpcClient) backoff(att int) time.Duration {
	d := r.baseWait << uint(att-1)
	if d <= 0 || d > r.maxWait {
		d = r.maxWait
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return d/2 + time.Duration(r.rng.Int63n(int64(d/2)+1))
}
