package cluster

// Node is one cluster member: a daemon plus the routing, health, and
// stealing fabric. The daemon's own handlers are the only client API
// and its job table the only job table — fpctl pointed at any peer sees
// the whole cluster — and the node adds the /cluster/v1/* peer RPCs on
// the same listener.
//
// Routing happens at admission: the node is the daemon's Placer. A
// client submission that starts a new cache entry is offered to it,
// and when the entry's content address is owned by another live
// member, the node forwards the clone there in the background over the
// robust RPC path. Meanwhile the job sits in the daemon's table, held
// like a stolen job, so identical submissions attach to it. The settled
// outcome is installed in the local cache on return (cache-everywhere),
// so the next local submission of the same clone is a pure cache hit.
// When every replica is unreachable — a full partition — the job goes
// back to the local queue instead of failing: availability wins, and
// the cluster-wide singleflight guarantee narrows to per-partition
// until the ring heals.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
)

// Options configures a Node.
type Options struct {
	// Self is this node's advertised URL (e.g. "http://10.0.0.1:8765").
	Self string
	// Peers seeds the membership (self is implied).
	Peers []string
	// Server is the wrapped daemon (required).
	Server *server.Server
	// Obs wires cluster metrics (nil-safe, like everywhere else).
	Obs *obs.Metrics
	// HTTPClient carries peer RPCs; tests inject fault transports here.
	HTTPClient *http.Client

	// RPCTimeout is the per-call deadline (default 30s).
	RPCTimeout time.Duration
	// HedgeAfter is the owner-silence threshold before the same request
	// races to the next ring replica (default 250ms; 0 disables).
	HedgeAfter time.Duration
	// RetryMax bounds RPC attempts (default 4).
	RetryMax int
	// RetryBaseWait/RetryMaxWait shape the backoff (defaults 25ms/1s).
	RetryBaseWait time.Duration
	RetryMaxWait  time.Duration

	// ProbeInterval is the health/gossip cadence (default 1s; <0
	// disables the background loop — tests drive ProbeOnce directly).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (default 500ms).
	ProbeTimeout time.Duration
	// EvictAfter is the consecutive-probe-failure threshold for
	// eviction (default 2).
	EvictAfter int

	// StealThreshold is the gossiped queue length above which an idle
	// node steals from a loaded peer (default 4).
	StealThreshold int
	// StealBatch bounds jobs taken per steal (default 2).
	StealBatch int
	// LeaseTimeout is how long a victim waits for a stolen job's
	// outcome before re-queueing it locally (default 30s).
	LeaseTimeout time.Duration

	// VNodes is the virtual-node count per ring member.
	VNodes int
}

func (o *Options) defaults() {
	if o.RPCTimeout <= 0 {
		o.RPCTimeout = 30 * time.Second
	}
	if o.HedgeAfter == 0 {
		o.HedgeAfter = 250 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 4
	}
	if o.RetryBaseWait <= 0 {
		o.RetryBaseWait = 25 * time.Millisecond
	}
	if o.RetryMaxWait <= 0 {
		o.RetryMaxWait = time.Second
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 500 * time.Millisecond
	}
	if o.EvictAfter <= 0 {
		o.EvictAfter = 2
	}
	if o.StealThreshold <= 0 {
		o.StealThreshold = 4
	}
	if o.StealBatch <= 0 {
		o.StealBatch = 2
	}
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 30 * time.Second
	}
}

// Node is one cluster member.
type Node struct {
	opts Options
	srv  *server.Server
	ring *Ring
	rpc  *rpcClient
	om   *obs.Metrics
	mux  *http.ServeMux
	hc   *http.Client

	mu     sync.Mutex
	load   map[string]int       // gossiped queue length per peer
	fails  map[string]int       // consecutive probe failures
	leases map[string]time.Time // stolen-from-us key -> expiry
	wg     sync.WaitGroup
	stopc  chan struct{}
	ctx    context.Context
	cancel context.CancelFunc
	closed bool
}

// NewNode builds and starts a node around a running daemon and installs
// it as the daemon's Placer. Background probe/steal loops start unless
// ProbeInterval < 0.
func NewNode(o Options) (*Node, error) {
	if o.Server == nil {
		return nil, fmt.Errorf("cluster: Options.Server is required")
	}
	if o.Self == "" {
		return nil, fmt.Errorf("cluster: Options.Self is required")
	}
	o.defaults()
	members := append([]string{o.Self}, o.Peers...)
	hc := o.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	n := &Node{
		opts: o, srv: o.Server, om: o.Obs, hc: hc,
		ring:   NewRing(o.VNodes, members...),
		load:   make(map[string]int),
		fails:  make(map[string]int),
		leases: make(map[string]time.Time),
		stopc:  make(chan struct{}),
	}
	n.ctx, n.cancel = context.WithCancel(context.Background())
	n.rpc = newRPCClient(hc, o, n.cm())
	n.mux = http.NewServeMux()
	peerRPC := func(pattern string, h http.HandlerFunc) { n.mux.HandleFunc(pattern, verified(h)) }
	peerRPC("POST /cluster/v1/run", n.handleRun)
	peerRPC("GET /cluster/v1/cache/{key}", n.handleCache)
	peerRPC("GET /cluster/v1/health", n.handleHealth)
	peerRPC("POST /cluster/v1/steal", n.handleSteal)
	peerRPC("POST /cluster/v1/complete", n.handleComplete)
	peerRPC("POST /cluster/v1/join", n.handleJoin)
	n.mux.Handle("/", n.srv) // the client API is the daemon's
	n.srv.SetPlacer(n)
	if o.ProbeInterval > 0 {
		n.wg.Add(1)
		go n.healthLoop()
	}
	return n, nil
}

// cm is the nil-safe cluster metrics handle.
func (n *Node) cm() *obs.ClusterMetrics { return n.om.ClusterMetricsOrNil() }

// Ring exposes the membership view (tests and fpmon).
func (n *Node) Ring() *Ring { return n.ring }

// Close stops placement and the background loops (the wrapped daemon
// is the caller's to shut down). Forwards still in flight are cancelled
// and hand their jobs back to the daemon's queue.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	n.srv.SetPlacer(nil) // no Place call, hence no new forward, after this
	n.cancel()
	close(n.stopc)
	n.wg.Wait()
}

// ServeHTTP serves both the client API and the peer RPC surface.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n.mux.ServeHTTP(w, r)
}

// clusterJSON writes v as the JSON reply body with its digest.
func clusterJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(map[string]string{"error": err.Error()})
	}
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(DigestHeader, bodyDigest(body))
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // client gone
}

func clusterError(w http.ResponseWriter, status int, format string, args ...any) {
	clusterJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// replicasFor is the hedging set for key: owner plus next ring replica.
func (n *Node) replicasFor(key string) []string {
	return n.ring.Replicas(key, 2)
}

// Place is the daemon's placement hook: a new pass whose content
// address another live member owns is forwarded there, and every other
// pass stays here. It runs under the daemon's lock, so it only starts
// the forward.
func (n *Node) Place(job server.PendingJob) bool {
	c := n.cm()
	if owner := n.ring.Owner(job.Key); owner == "" || owner == n.opts.Self {
		if c != nil {
			c.ForwardsLocal.Inc()
		}
		return false
	}
	n.wg.Add(1)
	go n.forward(job)
	return true
}

// forward ships one placed job to its owner over the robust RPC path
// and installs the settled outcome locally (cache-everywhere), which
// settles the job and everything attached to it. Exhausted retries mean
// the owner's side of the ring is unreachable: the job goes back to the
// local queue rather than failing.
func (n *Node) forward(job server.PendingJob) {
	defer n.wg.Done()
	c := n.cm()
	if c != nil {
		c.Forwards.Inc()
	}
	start := time.Now()
	req := runRequest{Name: job.Name, Client: job.Client, Clone: job.Blob, Config: job.Config, Key: job.Key}
	var resp runResponse
	err := n.rpc.invoke(n.ctx, func() []string {
		reps := n.replicasFor(req.Key)
		// Never forward to self: if the ring hands the arc back (every
		// other peer evicted), the local fallback below handles it.
		out := reps[:0]
		for _, p := range reps {
			if p != n.opts.Self {
				out = append(out, p)
			}
		}
		return out
	}, http.MethodPost, "/cluster/v1/run", req, &resp)
	if c != nil {
		c.ForwardNS.Observe(uint64(time.Since(start).Nanoseconds()))
	}
	if err == nil && resp.Key != req.Key {
		err = fmt.Errorf("cluster: owner settled %q under wrong key %q", req.Key, resp.Key)
	}
	if err != nil {
		if c != nil {
			c.PartitionLocal.Inc()
		}
		n.srv.RequeuePending(req.Key)
		return
	}
	n.srv.InstallOutcome(req.Key, resp.Outcome, resp.Error, resp.CacheHit)
}

// handleRun is the owner side of a forward: study the clone locally
// (the content-addressed cache makes duplicate arrivals free) and
// answer with the settled outcome.
func (n *Node) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		clusterError(w, http.StatusBadRequest, "bad run body: %v", err)
		return
	}
	// Verify the content address: a clone corrupted in flight must not
	// settle under the sender's key.
	j, err := jobs.Decode(req.Clone)
	if err != nil {
		clusterError(w, http.StatusBadRequest, "bad clone: %v", err)
		return
	}
	if key := server.CacheKey(j, req.Config); key != req.Key {
		clusterError(w, http.StatusBadRequest, "content address mismatch: got %s, want %s", key, req.Key)
		return
	}
	if out, errMsg, ok := n.srv.CachedOutcome(req.Key); ok {
		clusterJSON(w, http.StatusOK, runResponse{Key: req.Key, CacheHit: true, Outcome: out, Error: errMsg})
		return
	}
	res, err := n.srv.Submit(req.Client, req.Name, req.Clone, req.Config)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		clusterError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	out, err := n.srv.WaitOutcome(r.Context(), res.ID)
	if err != nil {
		// A settled pass error is data; an interrupted wait (drain,
		// caller gone) is a transient failure the sender retries.
		if cachedOut, errMsg, ok := n.srv.CachedOutcome(req.Key); ok {
			clusterJSON(w, http.StatusOK, runResponse{Key: req.Key, CacheHit: res.CacheHit, Outcome: cachedOut, Error: errMsg})
			return
		}
		w.Header().Set("Retry-After", "1")
		clusterError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	clusterJSON(w, http.StatusOK, runResponse{Key: req.Key, CacheHit: res.CacheHit, Outcome: out})
}

func (n *Node) handleCache(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	out, errMsg, ok := n.srv.CachedOutcome(key)
	if !ok {
		clusterError(w, http.StatusNotFound, "no settled entry for %s", key)
		return
	}
	clusterJSON(w, http.StatusOK, runResponse{Key: key, CacheHit: true, Outcome: out, Error: errMsg})
}

func (n *Node) handleHealth(w http.ResponseWriter, _ *http.Request) {
	status := server.StatusOK
	code := http.StatusOK
	if n.srv.Draining() {
		status = server.StatusDraining
		code = http.StatusServiceUnavailable
	}
	view := make(map[string]bool)
	for _, p := range n.ring.Known() {
		view[p] = n.ring.Alive(p)
	}
	clusterJSON(w, code, healthResponse{
		Status: status, Self: n.opts.Self, QueueLen: n.srv.QueueLen(), Peers: view,
	})
}

func (n *Node) handleSteal(w http.ResponseWriter, r *http.Request) {
	var req stealRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		clusterError(w, http.StatusBadRequest, "bad steal body: %v", err)
		return
	}
	stolen := n.srv.StealPending(req.Max)
	now := time.Now()
	n.mu.Lock()
	for _, sj := range stolen {
		n.leases[sj.Key] = now.Add(n.opts.LeaseTimeout)
	}
	n.mu.Unlock()
	if c := n.cm(); c != nil {
		for range stolen {
			c.StealsOut.Inc()
		}
	}
	clusterJSON(w, http.StatusOK, stealResponse{Jobs: stolen})
}

func (n *Node) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		clusterError(w, http.StatusBadRequest, "bad complete body: %v", err)
		return
	}
	if req.Outcome == nil && req.Error == "" {
		clusterError(w, http.StatusBadRequest, "complete without outcome or error")
		return
	}
	n.srv.InstallOutcome(req.Key, req.Outcome, req.Error, false)
	n.mu.Lock()
	delete(n.leases, req.Key)
	n.mu.Unlock()
	clusterJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (n *Node) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Peer == "" {
		clusterError(w, http.StatusBadRequest, "bad join body")
		return
	}
	if n.ring.Add(req.Peer) {
		if c := n.cm(); c != nil {
			c.Readmissions.Inc()
		}
	}
	clusterJSON(w, http.StatusOK, joinResponse{Peers: n.ring.Known()})
}

// Join introduces this node to an existing member and adopts the
// membership it answers with.
func (n *Node) Join(peer string) error {
	var resp joinResponse
	err := n.rpc.invoke(n.ctx, func() []string { return []string{peer} },
		http.MethodPost, "/cluster/v1/join", joinRequest{Peer: n.opts.Self}, &resp)
	if err != nil {
		return fmt.Errorf("cluster: join via %s: %w", peer, err)
	}
	for _, p := range resp.Peers {
		n.ring.Add(p)
	}
	return nil
}
