// Package cluster joins N fpspyd daemons into one study service: a
// consistent-hash ring keyed on the submission content address routes
// every clone to one owning peer, so cluster-wide deduplication
// inherits the single-node cache and singleflight invariants — a clone
// studied anywhere is studied once, and cached everywhere a result
// passes through. A gossip-fed health layer evicts dead peers (and
// re-admits recovered ones) with automatic ring rebalance, and the RPC
// path carries body digests, per-call deadlines and capped jittered
// backoff. A forward that still fails hands its job back to the local
// queue: every pass replays a deterministic clone, so a local pass gives
// the owner's answer, and under a full partition a node degrades to
// local-only service instead of failing submissions.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"sync"
)

// defaultVNodes is the virtual-node count per peer: enough that a
// 3–10 peer ring balances within a few percent, cheap enough that
// rebuilds on membership change stay trivial.
const defaultVNodes = 64

// Ring is a consistent-hash ring over peer URLs. Only live members
// occupy slots; eviction and re-admission rebuild the slot array, which
// moves only the evicted peer's arc — every other key keeps its owner.
type Ring struct {
	mu    sync.RWMutex
	alive map[string]bool // every known peer -> liveness
	slots []ringSlot      // live peers' virtual nodes, sorted by hash
}

type ringSlot struct {
	hash uint64
	peer string
}

// NewRing builds a ring whose initial members are all live.
func NewRing(members ...string) *Ring {
	r := &Ring{alive: make(map[string]bool)}
	for _, m := range members {
		r.alive[m] = true
	}
	r.rebuild()
	return r
}

// ringHash maps a string to a ring position: the first 8 bytes of its
// SHA-256. Content addresses are themselves SHA-256 hex, so key
// placement is uniform by construction.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// rebuild regenerates the slot array from the live members. Caller
// holds r.mu.
func (r *Ring) rebuild() {
	r.slots = r.slots[:0]
	buf := make([]byte, 0, 80)
	for peer, ok := range r.alive {
		if !ok {
			continue
		}
		for i := 0; i < defaultVNodes; i++ {
			buf = append(buf[:0], peer...)
			buf = append(buf, '#', byte(i), byte(i>>8))
			sum := sha256.Sum256(buf)
			r.slots = append(r.slots, ringSlot{
				hash: binary.BigEndian.Uint64(sum[:8]), peer: peer,
			})
		}
	}
	sort.Slice(r.slots, func(i, j int) bool { return r.slots[i].hash < r.slots[j].hash })
}

// Add registers peer as a live member (idempotent). It reports whether
// membership changed.
func (r *Ring) Add(peer string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.alive[peer] {
		return false
	}
	r.alive[peer] = true
	r.rebuild()
	return true
}

// Evict marks peer dead, removing its arc from the ring; the peer stays
// known so recovery can re-admit it. Reports whether liveness changed.
func (r *Ring) Evict(peer string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	was, known := r.alive[peer]
	if !known || !was {
		return false
	}
	r.alive[peer] = false
	r.rebuild()
	return true
}

// Alive reports peer's liveness.
func (r *Ring) Alive(peer string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.alive[peer]
}

// Members returns the live peers in unspecified order.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.alive))
	for p, ok := range r.alive {
		if ok {
			out = append(out, p)
		}
	}
	return out
}

// Known returns every peer ever seen, live or not.
func (r *Ring) Known() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.alive))
	for p := range r.alive {
		out = append(out, p)
	}
	return out
}

// Owner returns the live peer owning key: the peer of the first slot
// clockwise from key's ring position ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.slots) == 0 {
		return ""
	}
	h := ringHash(key)
	i := sort.Search(len(r.slots), func(i int) bool { return r.slots[i].hash >= h })
	return r.slots[i%len(r.slots)].peer
}
