package cluster

// The health layer. Each node periodically probes every known peer's
// /cluster/v1/health endpoint; answers carry the peer's load and its
// liveness view of the membership (gossip), so nodes discover members
// they were never explicitly told about. EvictAfter consecutive probe
// failures evict a peer — its ring arc redistributes to the survivors —
// and the probes keep going, so a recovered peer is re-admitted
// automatically and takes its arc back. The same cadence drives work
// stealing: an idle node that sees a gossiped queue above
// StealThreshold takes a lease on a batch of the victim's queued jobs,
// runs them through its own daemon, and posts the outcomes back; the
// victim's lease janitor re-queues anything a crashed stealer never
// returned.

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/server"
)

// decodeJSON is strict JSON decoding for probe/steal bodies issued
// outside the retrying invoke path.
func decodeJSON(body []byte, out any) error {
	return json.Unmarshal(body, out)
}

// healthLoop drives probing, stealing, and lease expiry until Close.
func (n *Node) healthLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stopc:
			return
		case <-t.C:
			n.ProbeOnce()
			n.StealOnce()
			n.ExpireLeases(time.Now())
		}
	}
}

// ProbeOnce probes every known peer exactly once, applying eviction,
// re-admission, gossip merge, and load recording. Tests call it
// directly for deterministic sequencing.
func (n *Node) ProbeOnce() {
	c := n.cm()
	for _, peer := range n.ring.Known() {
		if peer == n.opts.Self {
			continue
		}
		if c != nil {
			c.Probes.Inc()
		}
		resp, err := n.probe(peer)
		if err != nil {
			if c != nil {
				c.ProbeFailures.Inc()
			}
			n.mu.Lock()
			n.fails[peer]++
			failed := n.fails[peer]
			delete(n.load, peer)
			n.mu.Unlock()
			if failed >= n.opts.EvictAfter && n.ring.Evict(peer) {
				if c != nil {
					c.Evictions.Inc()
				}
			}
			continue
		}
		n.mu.Lock()
		n.fails[peer] = 0
		n.load[peer] = resp.QueueLen
		n.mu.Unlock()
		if n.ring.Add(peer) {
			// The peer answered after an eviction (or was only known
			// through gossip): it is live again and owns its arc.
			if c != nil {
				c.Readmissions.Inc()
			}
		}
		// Gossip merge: liveness opinions stay local (each node evicts
		// on its own probes), but membership spreads — any peer the
		// answer names gets probed from now on.
		for p := range resp.Peers {
			if p == n.opts.Self || n.ring.Alive(p) {
				continue
			}
			n.mu.Lock()
			_, known := n.fails[p]
			if !known {
				n.fails[p] = 0
			}
			n.mu.Unlock()
			if !known {
				n.ring.Add(p)
			}
		}
	}
}

// probe is one bounded health exchange.
func (n *Node) probe(peer string) (*healthResponse, error) {
	ctx, cancel := context.WithTimeout(n.ctx, n.opts.ProbeTimeout)
	defer cancel()
	body, err := n.rpc.once(ctx, peer, http.MethodGet, "/cluster/v1/health", nil)
	if err != nil {
		return nil, err
	}
	var resp healthResponse
	if err := decodeJSON(body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// StealOnce takes one batch of queued jobs from the most-loaded live
// peer when this node is idle and the peer's gossiped queue exceeds
// StealThreshold. Stolen jobs run through the local daemon (sharing its
// worker pool and cache) and their outcomes post back to the victim,
// settling the waiters parked there.
func (n *Node) StealOnce() {
	if n.srv.QueueLen() > 0 || n.srv.Draining() {
		return // busy or dying nodes don't steal
	}
	victim, load := "", 0
	n.mu.Lock()
	for p, l := range n.load {
		if l > load {
			victim, load = p, l
		}
	}
	n.mu.Unlock()
	if victim == "" || load < n.opts.StealThreshold || !n.ring.Alive(victim) {
		return
	}
	ctx, cancel := context.WithTimeout(n.ctx, n.opts.RPCTimeout)
	defer cancel()
	body, err := n.rpc.once(ctx, victim, http.MethodPost, "/cluster/v1/steal",
		stealRequest{Max: n.opts.StealBatch})
	if err != nil {
		return
	}
	var resp stealResponse
	if err := decodeJSON(body, &resp); err != nil {
		return
	}
	c := n.cm()
	for _, sj := range resp.Jobs {
		if c != nil {
			c.StealsIn.Inc()
		}
		n.wg.Add(1)
		go n.runStolen(victim, sj)
	}
}

// runStolen executes one stolen job locally and returns its outcome to
// the victim. A failed return is not retried beyond the RPC policy: the
// victim's lease janitor re-queues the job, and first-writer-wins
// settling makes the duplicate pass harmless.
func (n *Node) runStolen(victim string, sj server.PendingJob) {
	defer n.wg.Done()
	var out *server.Outcome
	var errMsg string
	res, err := n.srv.Submit(sj.Client, sj.Name, sj.Blob, sj.Config)
	if err != nil {
		errMsg = err.Error()
	} else if out, err = n.srv.WaitOutcome(n.ctx, res.ID); err != nil {
		out, errMsg = nil, err.Error()
	}
	n.rpc.invoke(n.ctx, func() []string { return []string{victim} }, //nolint:errcheck // janitor covers a lost return
		http.MethodPost, "/cluster/v1/complete",
		completeRequest{Key: sj.Key, Outcome: out, Error: errMsg}, nil)
}

// ExpireLeases re-queues stolen jobs whose stealer went silent past its
// lease. Settled-in-the-meantime leases are simply dropped.
func (n *Node) ExpireLeases(now time.Time) {
	n.mu.Lock()
	var expired []string
	for key, dl := range n.leases {
		if now.After(dl) {
			expired = append(expired, key)
		}
	}
	n.mu.Unlock()
	c := n.cm()
	for _, key := range expired {
		requeued := n.srv.RequeuePending(key)
		n.mu.Lock()
		if requeued || !n.stillStolen(key) {
			delete(n.leases, key)
		}
		n.mu.Unlock()
		if requeued && c != nil {
			c.StealRequeues.Inc()
		}
	}
}

// stillStolen reports whether key still awaits a stealer's return (a
// full local queue can make RequeuePending fail transiently; the lease
// stays and the janitor retries next tick). Caller holds n.mu.
func (n *Node) stillStolen(key string) bool {
	_, _, settled := n.srv.CachedOutcome(key)
	return !settled
}

// LoadView is this node's gossiped view of peer queue lengths.
func (n *Node) LoadView() map[string]int {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]int, len(n.load))
	for p, l := range n.load {
		out[p] = l
	}
	return out
}
