package cluster

// The health layer. Each node periodically probes every known peer's
// /cluster/v1/health endpoint; answers carry the peer's liveness view
// of the membership (gossip), so nodes discover members they were never
// explicitly told about. evictAfter consecutive probe failures evict a
// peer — its ring arc redistributes to the survivors — and the probes
// keep going, so a recovered peer is re-admitted automatically and
// takes its arc back.

import (
	"context"
	"encoding/json"
	"net/http"
	"time"
)

// evictAfter is the consecutive-probe-failure threshold for eviction:
// one lost probe is not enough to move a peer's arc.
const evictAfter = 2

// healthLoop drives probing until Close.
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
		}
	}
}

// ProbeOnce probes every known peer exactly once, applying eviction,
// re-admission, and gossip merge. Tests call it directly for
// deterministic sequencing.
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
			n.mu.Unlock()
			if failed >= evictAfter && n.ring.Evict(peer) {
				if c != nil {
					c.Evictions.Inc()
				}
			}
			continue
		}
		n.mu.Lock()
		n.fails[peer] = 0
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
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
