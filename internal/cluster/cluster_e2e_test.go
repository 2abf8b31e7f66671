package cluster_test

// The cluster end-to-end suite: 3-node in-process clusters over real
// HTTP (httptest), driven through the typed client, with the chaos
// service-fault injector on the peer RPC path. It pins the cluster's
// invariants:
//
//   - cluster-wide singleflight: N clients × N nodes × one identical
//     clone → exactly one study pass anywhere;
//   - cache-everywhere: a clone studied via any peer is a cache hit on
//     every peer it passed through;
//   - kill/restart: no job is lost when its owner dies mid-study, and
//     the dead peer is evicted then re-admitted on recovery;
//   - full partition: a node with no reachable peers degrades to
//     local-only service instead of failing submissions.

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	fpspy "repro"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/isa"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
)

// cjob builds a tiny clone whose divides raise inexact conditions.
func cjob(t testing.TB, name string, divs int) *jobs.Job {
	t.Helper()
	b := fpspy.NewProgram(name)
	b.Movi(isa.R1, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R1)
	b.Movi(isa.R1, int64(math.Float64bits(3)))
	b.Movqx(isa.X1, isa.R1)
	for i := 0; i < divs; i++ {
		b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1)
	}
	b.Hlt()
	return jobs.Capture(name, b.Build(), nil, 4<<20)
}

func encodeJob(t testing.TB, j *jobs.Job) []byte {
	t.Helper()
	blob, err := j.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// peerT is one live cluster member plus its bookkeeping.
type peerT struct {
	url    string
	ts     *httptest.Server
	hold   atomic.Pointer[cluster.Node]
	srv    *server.Server
	node   *cluster.Node
	om     *obs.Metrics
	passes atomic.Int32
}

func (p *peerT) cm() *obs.ClusterMetrics { return p.om.ClusterMetricsOrNil() }

// kill makes the peer unreachable: in-flight connections drop and
// later requests answer 503 — indistinguishable from a crashed daemon
// to the rest of the ring.
func (p *peerT) kill() {
	p.hold.Store(nil)
	p.ts.CloseClientConnections()
}

// restart brings the same node back on the same URL.
func (p *peerT) restart() { p.hold.Store(p.node) }

// newTestCluster boots n nodes on real listeners, fully meshed. The
// background probe loop is off — tests drive ProbeOnce for
// deterministic sequencing.
func newTestCluster(t testing.TB, n int, mod func(i int, so *server.Options, co *cluster.Options)) []*peerT {
	t.Helper()
	peers := make([]*peerT, n)
	for i := range peers {
		p := &peerT{}
		p.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if nd := p.hold.Load(); nd != nil {
				nd.ServeHTTP(w, r)
				return
			}
			w.Header().Set("Retry-After", "1")
			http.Error(w, "peer down", http.StatusServiceUnavailable)
		}))
		p.url = p.ts.URL
		peers[i] = p
	}
	urls := make([]string, n)
	for i, p := range peers {
		urls[i] = p.url
	}
	for i, p := range peers {
		p := p
		p.om = obs.New(obs.Options{})
		others := make([]string, 0, n-1)
		for j, u := range urls {
			if j != i {
				others = append(others, u)
			}
		}
		so := server.Options{
			Workers: 2, QueueDepth: 32, Obs: p.om,
			BeforeRun: func(string) { p.passes.Add(1) },
		}
		co := cluster.Options{
			Self: p.url, Peers: others, Obs: p.om,
			ProbeInterval: -1, ProbeTimeout: 250 * time.Millisecond, RPCTimeout: 20 * time.Second,
			RetryMax: 3, RetryBaseWait: 2 * time.Millisecond, RetryMaxWait: 50 * time.Millisecond,
		}
		if mod != nil {
			mod(i, &so, &co)
		}
		srv, err := server.New(so)
		if err != nil {
			t.Fatal(err)
		}
		co.Server = srv
		node, err := cluster.NewNode(co)
		if err != nil {
			t.Fatal(err)
		}
		p.srv, p.node = srv, node
		p.hold.Store(node)
	}
	t.Cleanup(func() {
		for _, p := range peers {
			p.ts.Close()
			p.node.Close()
			p.srv.Shutdown() //nolint:errcheck // teardown
		}
	})
	return peers
}

func totalPasses(peers []*peerT) int32 {
	var n int32
	for _, p := range peers {
		n += p.passes.Load()
	}
	return n
}

// fastClient is a retrying client pinned to one peer.
func fastClient(url, id string) *client.Client {
	c := client.New(url, id)
	c.RetryMax = 40
	c.RetryBaseWait = 2 * time.Millisecond
	c.RetryMaxWait = 50 * time.Millisecond
	return c
}

// ownerIndex finds which peer owns blob's content address, as seen
// from peers[0]'s ring.
func ownerIndex(t testing.TB, peers []*peerT, j *jobs.Job, cfg fpspy.Config) int {
	t.Helper()
	key := server.CacheKey(j, cfg)
	owner := peers[0].node.Ring().Owner(key)
	for i, p := range peers {
		if p.url == owner {
			return i
		}
	}
	t.Fatalf("owner %s of %s is not a cluster member", owner, key)
	return -1
}

// jobOwnedBy generates a clone whose content address lands on the
// wanted peer.
func jobOwnedBy(t testing.TB, peers []*peerT, want int, cfg fpspy.Config) *jobs.Job {
	t.Helper()
	for i := 0; i < 512; i++ {
		j := cjob(t, fmt.Sprintf("owned-%d-%d", want, i), 1+i)
		if ownerIndex(t, peers, j, cfg) == want {
			return j
		}
	}
	t.Fatal("no clone found owned by wanted peer")
	return nil
}

func TestClusterSingleflight(t *testing.T) {
	peers := newTestCluster(t, 3, nil)
	cfg := fpspy.Config{Mode: fpspy.ModeAggregate}
	blob := encodeJob(t, cjob(t, "singleflight", 3))

	const perNode = 3
	var wg sync.WaitGroup
	summaries := make(chan *server.Summary, len(peers)*perNode)
	errs := make(chan error, len(peers)*perNode)
	for pi, p := range peers {
		for ci := 0; ci < perNode; ci++ {
			wg.Add(1)
			go func(pi, ci int, url string) {
				defer wg.Done()
				cl := fastClient(url, fmt.Sprintf("client-%d-%d", pi, ci))
				resp, err := cl.SubmitBlobContext(context.Background(), "singleflight", blob, cfg)
				if err != nil {
					errs <- fmt.Errorf("submit via peer %d: %w", pi, err)
					return
				}
				if st, err := cl.WatchContext(context.Background(), resp.ID, 5*time.Millisecond); err != nil {
					errs <- fmt.Errorf("watch %s via peer %d: %w", resp.ID, pi, err)
					return
				} else if st.State != server.StateDone {
					errs <- fmt.Errorf("job %s via peer %d: state %s (%s)", resp.ID, pi, st.State, st.Error)
					return
				}
				res, err := cl.Result(resp.ID)
				if err != nil {
					errs <- fmt.Errorf("result %s via peer %d: %w", resp.ID, pi, err)
					return
				}
				summaries <- &res.Summary
			}(pi, ci, p.url)
		}
	}
	wg.Wait()
	close(errs)
	close(summaries)
	for err := range errs {
		t.Fatal(err)
	}
	var first *server.Summary
	for s := range summaries {
		if first == nil {
			first = s
			continue
		}
		if s.Steps != first.Steps || s.EventSet != first.EventSet || s.Events != first.Events {
			t.Fatalf("inconsistent results: %+v vs %+v", s, first)
		}
	}
	if got := totalPasses(peers); got != 1 {
		t.Fatalf("cluster ran %d passes for one clone across %d clients, want exactly 1",
			got, len(peers)*3)
	}
}

func TestClusterCacheEverywhere(t *testing.T) {
	peers := newTestCluster(t, 3, nil)
	cfg := fpspy.Config{Mode: fpspy.ModeAggregate}
	// A clone owned by peer 1, always submitted via other peers.
	j := jobOwnedBy(t, peers, 1, cfg)
	blob := encodeJob(t, j)

	settle := func(url string) *server.StatusResponse {
		t.Helper()
		cl := fastClient(url, "cache-everywhere")
		resp, err := cl.SubmitBlobContext(context.Background(), j.Name, blob, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := cl.WatchContext(context.Background(), resp.ID, 5*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != server.StateDone {
			t.Fatalf("job %s: state %s (%s)", resp.ID, st.State, st.Error)
		}
		return st
	}
	settle(peers[0].url)
	if got := totalPasses(peers); got != 1 {
		t.Fatalf("first submission ran %d passes, want 1", got)
	}
	if peers[1].passes.Load() != 1 {
		t.Fatal("the pass must run on the owning peer")
	}
	// Same clone via the third peer: the owner answers from cache.
	settle(peers[2].url)
	// And again via the first: its local install from the forward makes
	// this a zero-RPC local hit.
	fwdBefore := peers[0].cm().Forwards.Load()
	hitsBefore := peers[0].om.Server.CacheHits.Load()
	st := settle(peers[0].url)
	if !st.CacheHit {
		t.Fatal("resubmission via the forwarding peer should be a cache hit")
	}
	if got := totalPasses(peers); got != 1 {
		t.Fatalf("cluster ran %d passes total, want 1 (cache everywhere)", got)
	}
	if c := peers[0].cm(); c.Forwards.Load() == 0 {
		t.Fatal("peer 0 never recorded a forward")
	}
	if peers[0].cm().Forwards.Load() != fwdBefore || peers[0].om.Server.CacheHits.Load() != hitsBefore+1 {
		t.Fatal("peer 0 never recorded a local cache serve")
	}
}

func TestClusterKillRestartNoLoss(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	started := make(chan struct{}, 8)
	peers := newTestCluster(t, 3, func(i int, so *server.Options, co *cluster.Options) {
		if i == 1 {
			prev := so.BeforeRun
			so.BeforeRun = func(id string) {
				prev(id)
				started <- struct{}{}
				<-gate
			}
		}
		co.RetryMax = 2
		co.RPCTimeout = 5 * time.Second
	})
	defer gateOnce.Do(func() { close(gate) })
	cfg := fpspy.Config{Mode: fpspy.ModeAggregate}
	j := jobOwnedBy(t, peers, 1, cfg)
	blob := encodeJob(t, j)

	cl := fastClient(peers[0].url, "kill-restart")
	resp, err := cl.SubmitBlobContext(context.Background(), j.Name, blob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The owner is now mid-study on this clone. Kill it.
	<-started
	peers[1].kill()

	// The job must still settle exactly once for the watcher: the
	// forwarding peer's retries fail over to a degraded local run.
	st, err := cl.WatchContext(context.Background(), resp.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("job %s after owner kill: state %s (%s)", resp.ID, st.State, st.Error)
	}
	if peers[0].cm().PartitionLocal.Load() == 0 {
		t.Fatal("forwarding peer should have degraded to a local run")
	}

	// The dead peer is evicted after two failed probes...
	peers[0].node.ProbeOnce()
	peers[0].node.ProbeOnce()
	if peers[0].node.Ring().Alive(peers[1].url) {
		t.Fatal("dead peer still live after two failed probes")
	}
	if peers[0].cm().Evictions.Load() == 0 {
		t.Fatal("eviction not recorded")
	}

	// ...and re-admitted on recovery, taking its arc back.
	gateOnce.Do(func() { close(gate) })
	peers[1].restart()
	peers[0].node.ProbeOnce()
	if !peers[0].node.Ring().Alive(peers[1].url) {
		t.Fatal("recovered peer not re-admitted")
	}
	if peers[0].cm().Readmissions.Load() == 0 {
		t.Fatal("re-admission not recorded")
	}
}

// TestClusterPartitionDegradesLocal: a node cut off from every peer
// serves all its clones locally. The clones are chosen by owner before
// the partition — one owned by each dark peer and one by peer 0 — so
// the forward path runs whatever ports the listeners drew.
func TestClusterPartitionDegradesLocal(t *testing.T) {
	peers := newTestCluster(t, 3, func(i int, so *server.Options, co *cluster.Options) {
		co.RetryMax = 2
		co.RPCTimeout = 2 * time.Second
	})
	cfg := fpspy.Config{Mode: fpspy.ModeAggregate}
	clones := []*jobs.Job{jobOwnedBy(t, peers, 1, cfg), jobOwnedBy(t, peers, 2, cfg), jobOwnedBy(t, peers, 0, cfg)}
	// Sever peer 0 from everyone: the other two go dark.
	peers[1].kill()
	peers[2].kill()

	cl := fastClient(peers[0].url, "partitioned")
	// Foreign-owned and self-owned clones alike must settle locally.
	for i, j := range clones {
		resp, err := cl.SubmitBlobContext(context.Background(), j.Name, encodeJob(t, j), cfg)
		if err != nil {
			t.Fatalf("submit %d under partition: %v", i, err)
		}
		st, err := cl.WatchContext(context.Background(), resp.ID, 5*time.Millisecond)
		if err != nil {
			t.Fatalf("watch %d under partition: %v", i, err)
		}
		if st.State != server.StateDone {
			t.Fatalf("job %d under partition: state %s (%s)", i, st.State, st.Error)
		}
	}
	if got := peers[0].passes.Load(); got != int32(len(clones)) {
		t.Fatalf("partitioned peer ran %d local passes, want %d", got, len(clones))
	}
	// Both foreign-owned clones took the forward path and came back for
	// a local pass; the self-owned one never left.
	c := peers[0].cm()
	if f, pl, fl := c.Forwards.Load(), c.PartitionLocal.Load(), c.ForwardsLocal.Load(); f != 2 || pl != 2 || fl != 1 {
		t.Fatalf("forwards %d, partition-local %d, forwards-local %d; want 2, 2, 1", f, pl, fl)
	}
	// After eviction the ring is local-only and submissions stop
	// attempting forwards entirely.
	peers[0].node.ProbeOnce()
	peers[0].node.ProbeOnce()
	if len(peers[0].node.Ring().Members()) != 1 {
		t.Fatalf("ring members after full partition = %v, want self only",
			peers[0].node.Ring().Members())
	}
	j := cjob(t, "partition-after-evict", 2)
	resp, err := cl.SubmitBlobContext(context.Background(), j.Name, encodeJob(t, j), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := cl.WatchContext(context.Background(), resp.ID, 5*time.Millisecond); err != nil || st.State != server.StateDone {
		t.Fatalf("local-only submission: %v / %+v", err, st)
	}
}

// TestClusterFaultSweep runs the whole service-fault family against a
// 3-node cluster: under seeded RPC delay, drop, and corruption, every
// submission still settles, identical clones agree on their results,
// and nothing is lost — at worst the cluster trades extra passes
// (degraded local runs after exhausted retries) for availability.
func TestClusterFaultSweep(t *testing.T) {
	cfg := fpspy.Config{Mode: fpspy.ModeAggregate}
	for _, sc := range chaos.ServiceFaultScenarios(11) {
		t.Run(sc.Name, func(t *testing.T) {
			peers := newTestCluster(t, 3, func(i int, so *server.Options, co *cluster.Options) {
				spec := sc.Spec
				spec.Seed += int64(i)
				co.HTTPClient = &http.Client{Transport: spec.Transport(nil)}
				co.RetryMax = 6
				co.RPCTimeout = 10 * time.Second
			})
			const clones = 4
			type res struct {
				clone int
				sum   *server.Summary
				err   error
			}
			var wg sync.WaitGroup
			out := make(chan res, clones*2)
			for c := 0; c < clones; c++ {
				// Each clone submitted twice, via different peers.
				for dup := 0; dup < 2; dup++ {
					wg.Add(1)
					go func(c, dup int) {
						defer wg.Done()
						j := cjob(t, fmt.Sprintf("fault-%s-%d", sc.Name, c), c+2)
						cl := fastClient(peers[(c+dup)%len(peers)].url, fmt.Sprintf("cl-%d-%d", c, dup))
						resp, err := cl.SubmitBlobContext(context.Background(), j.Name, encodeJob(t, j), cfg)
						if err != nil {
							out <- res{c, nil, fmt.Errorf("submit clone %d dup %d: %w", c, dup, err)}
							return
						}
						st, err := cl.WatchContext(context.Background(), resp.ID, 5*time.Millisecond)
						if err != nil {
							out <- res{c, nil, fmt.Errorf("watch clone %d dup %d: %w", c, dup, err)}
							return
						}
						if st.State != server.StateDone {
							out <- res{c, nil, fmt.Errorf("clone %d dup %d: state %s (%s)", c, dup, st.State, st.Error)}
							return
						}
						r, err := cl.Result(resp.ID)
						if err != nil {
							out <- res{c, nil, fmt.Errorf("result clone %d dup %d: %w", c, dup, err)}
							return
						}
						out <- res{c, &r.Summary, nil}
					}(c, dup)
				}
			}
			wg.Wait()
			close(out)
			bySteps := map[int]uint64{}
			for r := range out {
				if r.err != nil {
					t.Fatal(r.err)
				}
				if prev, ok := bySteps[r.clone]; ok && prev != r.sum.Steps {
					t.Fatalf("clone %d: divergent results under faults (%d vs %d steps)",
						r.clone, prev, r.sum.Steps)
				}
				bySteps[r.clone] = r.sum.Steps
			}
		})
	}
}
