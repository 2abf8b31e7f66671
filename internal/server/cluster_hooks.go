package server

// The cluster surface: the small set of exported hooks internal/cluster
// builds its peer fabric on. Everything here reuses the daemon's
// existing job table, content-addressed cache, and singleflight
// discipline — a job placed on a peer stays in this job table, and a
// peer-computed outcome enters through the same settle path a local
// pass does, so cluster-wide dedup inherits the single-node invariants
// instead of re-implementing them.

import (
	"context"
	"errors"
	"fmt"

	fpspy "repro"
)

// SubmitResult is the exported view of an admitted submission.
type SubmitResult struct {
	// ID is the daemon-assigned job ID.
	ID string
	// CacheHit reports whether the submission attached to an existing
	// cache entry instead of scheduling a new pass.
	CacheHit bool
}

// Submit admits one submission on behalf of a peer — the owner side of
// a forward — through the same admission path the HTTP handlers take,
// minus rate limiting and placement: a job admitted here runs here, so
// a forwarded pass is never forwarded again.
func (s *Server) Submit(client, name string, blob []byte, cfg fpspy.Config) (SubmitResult, error) {
	rec, err := s.submit(client, name, blob, cfg, false)
	if err != nil {
		return SubmitResult{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return SubmitResult{ID: rec.id, CacheHit: rec.cacheHit}, nil
}

// WaitOutcome blocks until the job's pass settles and returns its
// outcome (or the pass error). It unblocks early on context
// cancellation and on a drain that strands the job unstarted.
func (s *Server) WaitOutcome(ctx context.Context, id string) (*Outcome, error) {
	s.mu.Lock()
	rec, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("server: unknown job %q", id)
	}
	select {
	case <-rec.entry.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.stopc:
		s.mu.Lock()
		settled := rec.entry.settled
		s.mu.Unlock()
		if !settled {
			return nil, fmt.Errorf("server: job %s interrupted by drain", id)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec.entry.err != nil {
		return nil, rec.entry.err
	}
	return rec.entry.out, nil
}

// CachedOutcome reports whether key has a settled cache entry, and its
// outcome or error message when it does. The owner side of a forward
// answers from it when the clone is already settled here; that counts
// as a hit for eviction.
func (s *Server) CachedOutcome(key string) (out *Outcome, errMsg string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, exists := s.cache[key]
	if !exists || !e.settled {
		return nil, "", false
	}
	s.lru.MoveToFront(e.elem)
	if e.err != nil {
		return nil, e.err.Error(), true
	}
	return e.out, "", true
}

// InstallOutcome publishes an externally computed outcome (a peer's
// pass) under key. The first settle wins: an already-settled entry
// keeps its outcome and counts the install as a hit for eviction. An
// unsettled entry — including one whose primary still waits in a shard
// queue — settles immediately, finalizing its waiters; the dispatcher
// skips settled primaries, so the local pass never double-runs. With no
// entry present, a settled one is created so future submissions hit.
// cacheHit reports that the peer served the outcome from its own cache:
// the local primary then reads as a cache hit too, since no pass ran
// for it anywhere.
func (s *Server) InstallOutcome(key string, out *Outcome, errMsg string, cacheHit bool) {
	var err error
	if errMsg != "" {
		err = errors.New(errMsg)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, exists := s.cache[key]
	if !exists {
		e = &cacheEntry{key: key, done: make(chan struct{})}
		s.cache[key] = e
	}
	if e.settled {
		s.lru.MoveToFront(e.elem)
		return
	}
	if cacheHit && e.primary != nil {
		e.primary.cacheHit = true
	}
	s.settleLocked(e, out, err)
}

// PendingJob is one unstarted primary offered to the Placer at
// admission. The peer it is placed on replays the clone and the outcome
// comes back through InstallOutcome; RequeuePending takes back a job
// whose peer never answered.
type PendingJob struct {
	// Name and Client identify the job to the peer that replays it.
	Name, Client string
	// Key is the content address the outcome must settle under.
	Key string
	// Blob is the encoded clone exactly as submitted.
	Blob []byte
	// Config is the FPSpy configuration to replay under.
	Config fpspy.Config
}

// pending is rec's PendingJob view.
func (rec *jobRec) pending() PendingJob {
	return PendingJob{
		Name: rec.name, Client: rec.client,
		Key: rec.key, Blob: rec.blob, Config: rec.cfg,
	}
}

// Placer places new passes on other cluster members; a cluster node is
// one. The daemon offers it each client submission that starts a new
// cache entry, and none that arrive through Submit. A true return means
// the placer took the job: it stays registered (identical submissions
// attach to it) and the placer must settle it through InstallOutcome or
// hand it back through RequeuePending. False leaves the pass to this
// node, whose full queue then still answers 503.
//
// Place runs under the daemon's lock, so that the cache lookup, the
// placement decision and the entry's registration are one step; it
// must return promptly and must not call into the daemon before it
// returns.
type Placer interface {
	Place(job PendingJob) bool
}

// SetPlacer installs the placement hook (nil removes it). Once a
// SetPlacer(nil) returns, no further Place call starts.
func (s *Server) SetPlacer(p Placer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.placer = p
}

// RequeuePending takes back a job placed on a peer that could not be
// reached and puts its primary back in its shard queue for a local pass.
// It does nothing when the entry settled in the meantime or is not
// placed. On a full queue the job fails with ErrQueueFull and leaves the
// cache, and the next identical submission starts afresh.
func (s *Server) RequeuePending(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.cache[key]
	if !ok || e.settled || !e.placed || e.primary == nil {
		return
	}
	sv := s.obs.ServerMetricsOrNil()
	select {
	case s.shardOf(key) <- e.primary:
		e.placed = false
		if sv != nil {
			sv.QueueDepth.Add(1)
		}
	default:
		if sv != nil {
			sv.Shed.Inc()
		}
		delete(s.cache, key)
		s.settleLocked(e, nil, ErrQueueFull)
	}
}
