package main

// The service workload: two fpspyd cluster nodes on loopback, driven by
// a closed loop of one client per CPU with zero think time — fpctl
// callers wait for their result stream, so a slow daemon receives less
// load. Each job goes to a seeded node; the mix is 80% resubmissions of
// pre-settled clones (cache hits, the reads), 15% fresh clones under
// the sampled configuration (new passes, about half forwarded to the
// owning node, the writes) and 5% fresh shadow jobs at precision 113.
// The mix, the clone set and the zero think time are assumptions: no
// measured fpspyd traffic backs them. Each class's latency is therefore
// reported on its own, so the hit share cannot hide the other classes.
// Every job's summary must equal a direct in-process replay of its
// clone, and every resubmission must be served from the cache.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	fpspy "repro"
	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/isa"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/study"
	"repro/internal/workload"
)

var serviceCloneNames = []string{"miniaero", "lammps", "laghos", "moose", "wrf", "enzo",
	"nas-ep", "nas-cg", "nas-ft", "canneal", "ext/radiosity", "bodytrack"}

func servicePrograms(c config) []namedProgram {
	if c.short {
		return buildNamed([]string{"wrf", "nas-cg", "canneal"}, workload.SizeSmall)
	}
	return buildNamed(serviceCloneNames, workload.SizeSmall)
}

// Job classes of the mix.
const (
	classHit    = "hit"
	classMiss   = "miss"
	classShadow = "shadow"
)

// cloneRef is one captured clone and its reference outcomes, computed
// by replaying it directly in process.
type cloneRef struct {
	name          string
	prog          *isa.Program
	blob          []byte
	plain, shadow server.Summary
	// passMS is the direct plain replay's host time: the pass alone,
	// without the daemon around it.
	passMS float64
}

func newCloneRef(p namedProgram) (cloneRef, error) {
	ref := cloneRef{name: p.name, prog: p.prog}
	j := jobs.Capture(p.name, p.prog, nil, cloneMemBytes)
	var err error
	if ref.blob, err = j.Encode(); err != nil {
		return ref, err
	}
	start := time.Now()
	if ref.plain, err = reference(j, study.SampledConfig()); err != nil {
		return ref, err
	}
	ref.passMS = msSince(start)
	ref.shadow, err = reference(j, study.ShadowConfig(shadowPrec))
	return ref, err
}

// reference replays a clone in process and reduces the run to the
// scalar summary the daemon's result stream ends with.
func reference(j *jobs.Job, cfg fpspy.Config) (server.Summary, error) {
	res, err := j.Replay(cfg)
	if err != nil {
		return server.Summary{}, fmt.Errorf("%s reference: %w", j.Name, err)
	}
	if res.TraceErr != nil {
		return server.Summary{}, fmt.Errorf("%s reference: trace flush: %w", j.Name, res.TraceErr)
	}
	recs, err := res.Records()
	if err != nil {
		return server.Summary{}, fmt.Errorf("%s reference: %w", j.Name, err)
	}
	s := server.Summary{
		Steps: res.Steps, WallCycles: res.WallCycles, ExitCode: res.ExitCode,
		EventSet: uint64(res.EventSet()), Records: len(recs),
		Aggregates: len(res.Aggregates()), Events: len(res.Store.MonitorEvents()),
	}
	if cfg.ShadowPrec > 0 {
		if rc := analysis.BuildRootCause(cfg.ShadowPrec, res.Store.ShadowSites()); rc != nil {
			s.ShadowPrec, s.ShadowSites, s.ShadowSites99 = rc.Prec, len(rc.Sites), rc.Sites99
			s.ShadowOps, s.ShadowLocalUlps, s.ShadowMaxUlps = rc.TotalOps, rc.TotalLocalUlps, rc.MaxUlps
		}
	}
	return s, nil
}

// harness is a two-node cluster on loopback plus per-lane clients.
type harness struct {
	ts      []*httptest.Server
	srvs    []*server.Server
	nodes   []*cluster.Node
	tr      *http.Transport
	clients [][]*client.Client // [lane][node]
}

// startHarness boots two cluster nodes with default options apart from
// one pass worker per two CPUs each, wired to om.
func startHarness(om *obs.Metrics, lanes int) (*harness, error) {
	const n = 2
	h := &harness{tr: &http.Transport{MaxIdleConnsPerHost: lanes}}
	hold := make([]atomic.Pointer[cluster.Node], n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if nd := hold[i].Load(); nd != nil {
				nd.ServeHTTP(w, r)
				return
			}
			http.Error(w, "node starting", http.StatusServiceUnavailable)
		}))
		h.ts = append(h.ts, ts)
		urls[i] = ts.URL
	}
	for i := 0; i < n; i++ {
		srv, err := server.New(server.Options{Workers: max(1, runtime.NumCPU()/2), Obs: om})
		if err != nil {
			h.close()
			return nil, err
		}
		h.srvs = append(h.srvs, srv)
		node, err := cluster.NewNode(cluster.Options{Self: urls[i], Peers: []string{urls[1-i]}, Server: srv, Obs: om})
		if err != nil {
			h.close()
			return nil, err
		}
		h.nodes = append(h.nodes, node)
		hold[i].Store(node)
	}
	hc := &http.Client{Transport: h.tr}
	for lane := 0; lane < lanes; lane++ {
		var cls []*client.Client
		for i := 0; i < n; i++ {
			cl := client.New(urls[i], fmt.Sprintf("bench-%d", lane))
			cl.HTTPClient = hc
			cls = append(cls, cl)
		}
		h.clients = append(h.clients, cls)
	}
	return h, nil
}

func (h *harness) close() {
	for _, ts := range h.ts {
		ts.Close()
	}
	for _, n := range h.nodes {
		n.Close()
	}
	for _, s := range h.srvs {
		s.Shutdown() //nolint:errcheck // no state file; nothing to persist
	}
	h.tr.CloseIdleConnections()
}

// owner is the index of the node owning a content address.
func (h *harness) owner(key string) int {
	if h.nodes[0].Ring().Owner(key) == h.ts[0].URL {
		return 0
	}
	return 1
}

// jobSpec is one job, prepared before its timed region.
type jobSpec struct {
	class     string
	name      string
	blob      []byte
	cfg       fpspy.Config
	node      int
	forwarded bool
	ref       server.Summary
}

// freshJob captures a clone of ref under a new environment nonce — a
// new content address with the same behavior — for node.
func (h *harness) freshJob(class string, ref *cloneRef, nonce string, node int) (jobSpec, error) {
	j := jobSpec{class: class, name: ref.name, node: node, cfg: study.SampledConfig(), ref: ref.plain}
	keyCfg := j.cfg
	if class == classShadow {
		j.cfg, keyCfg, j.ref = fpspy.Config{Mode: fpspy.ModeAggregate}, study.ShadowConfig(shadowPrec), ref.shadow
	}
	job := jobs.Capture(ref.name, ref.prog, map[string]string{"BENCH_NONCE": nonce}, cloneMemBytes)
	var err error
	if j.blob, err = job.Encode(); err != nil {
		return j, err
	}
	j.forwarded = h.owner(server.CacheKey(job, keyCfg)) != node
	return j, nil
}

// do runs one job: submit, then read the whole result stream.
func (h *harness) do(o opCtx, s *sample, j jobSpec) error {
	cl := h.clients[o.lane][j.node]
	ctx := context.Background()
	s.forwarded = j.forwarded
	var id string
	start := time.Now()
	err := o.span("http.submit", func(opCtx) error {
		var resp *server.SubmitResponse
		var err error
		if j.class == classShadow {
			resp, err = cl.SubmitShadowBlobContext(ctx, j.name, j.blob, j.cfg, shadowPrec)
		} else {
			resp, err = cl.SubmitBlobContext(ctx, j.name, j.blob, j.cfg)
		}
		if err == nil {
			id = resp.ID
		}
		return err
	})
	s.submitMS = msSince(start)
	if err != nil {
		return fmt.Errorf("%s %s: submit: %w", j.class, j.name, err)
	}
	start = time.Now()
	var sum *server.Summary
	err = o.span("http.result", func(opCtx) (err error) {
		sum, err = cl.StreamResultContext(ctx, id, nil)
		return err
	})
	s.resultMS = msSince(start)
	if err != nil {
		return fmt.Errorf("%s %s: result: %w", j.class, j.name, err)
	}
	return o.span("bench.check", func(opCtx) error { return checkSummary(j, sum) })
}

// checkSummary compares a streamed summary with the clone's direct
// replay; a resubmission must also have been a cache hit. The total
// local error is compared to a relative 1e-9: analysis.BuildRootCause
// sums it in map iteration order, so its last bits differ from run to
// run.
func checkSummary(j jobSpec, got *server.Summary) error {
	if j.class == classHit && !got.CacheHit {
		return fmt.Errorf("resubmitted %s missed the cache", j.name)
	}
	g, want := *got, j.ref
	g.ID, g.Name, g.CacheHit = "", "", false
	ulps, wantUlps := g.ShadowLocalUlps, want.ShadowLocalUlps
	g.ShadowLocalUlps, want.ShadowLocalUlps = 0, 0
	if g != want || math.Abs(ulps-wantUlps) > 1e-9*math.Max(math.Abs(ulps), math.Abs(wantUlps)) {
		return fmt.Errorf("%s %s: summary %+v, direct replay %+v", j.class, j.name, *got, j.ref)
	}
	return nil
}

// depthSampler tracks the daemons' peak queue depth while running.
type depthSampler struct {
	peak int64 // written by the sampling goroutine, read after done
	stop chan struct{}
	done sync.WaitGroup
}

func sampleDepth(om *obs.Metrics) *depthSampler {
	d := &depthSampler{stop: make(chan struct{})}
	d.done.Add(1)
	go func() {
		defer d.done.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-t.C:
				d.peak = max(d.peak, om.Server.QueueDepth.Load())
			}
		}
	}()
	return d
}

func (d *depthSampler) finish() float64 {
	close(d.stop)
	d.done.Wait()
	return float64(d.peak)
}

type serviceBench struct {
	c    config
	refs []cloneRef
	// h serves untraced jobs; ht, wired to the traced registry, serves
	// the traced ones of a traced run.
	h, ht     *harness
	lanes     int
	depthPeak float64
}

func newServiceBench(c config, om *obs.Metrics) (runner, error) {
	b := &serviceBench{c: c, lanes: runtime.NumCPU()}
	for _, p := range servicePrograms(c) {
		ref, err := newCloneRef(p)
		if err != nil {
			return nil, err
		}
		if err := firstErr(
			pins.check(c, p.name+".steps", ref.plain.Steps),
			pins.check(c, p.name+".records", uint64(ref.plain.Records)),
			pins.check(c, p.name+".shadow_ops", ref.shadow.ShadowOps),
		); err != nil {
			return nil, err
		}
		b.refs = append(b.refs, ref)
	}
	var err error
	if b.h, err = b.start(nil); err != nil {
		return nil, err
	}
	if om != nil {
		if b.ht, err = b.start(om); err != nil {
			b.h.close()
			return nil, err
		}
	}
	return b, nil
}

// start boots a harness and settles every clone on both nodes, so a
// resubmission is a local cache hit wherever it lands.
func (b *serviceBench) start(om *obs.Metrics) (*harness, error) {
	h, err := startHarness(om, b.lanes)
	if err != nil {
		return nil, err
	}
	for i := range b.refs {
		for node := range h.nodes {
			j := jobSpec{class: "settle", name: b.refs[i].name, blob: b.refs[i].blob,
				cfg: study.SampledConfig(), node: node, ref: b.refs[i].plain}
			if err := h.do(opCtx{}, &sample{}, j); err != nil {
				h.close()
				return nil, err
			}
		}
	}
	return h, nil
}

func (b *serviceBench) close() {
	b.h.close()
	if b.ht != nil {
		b.ht.close()
	}
}

// deck deals its cards in a fresh seeded shuffle on every pass, so each
// pass through it deals every card exactly once.
type deck struct {
	rng   *rand.Rand
	cards []int
	pos   int
}

func newDeck(rng *rand.Rand, cards []int) *deck { return &deck{rng: rng, cards: cards} }

func (d *deck) next() int {
	if d.pos == 0 {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[d.pos]
	d.pos = (d.pos + 1) % len(d.cards)
	return c
}

// mixClasses is one deck of the mix: 16 hits, 3 misses, 1 shadow job.
var mixClasses = []string{classHit, classMiss, classShadow}

// laneMix deals one lane's jobs. Dealing from decks instead of drawing
// independently makes every run hold the mix's proportions, and every
// class cycle through every clone and both nodes, whatever the seed —
// the expensive shadow jobs would otherwise swing a run's throughput.
type laneMix struct {
	classes       *deck
	clones, nodes [3]*deck
}

func newLaneMix(rng *rand.Rand, clones int) *laneMix {
	classes := append(append(make([]int, 16), 1, 1, 1), 2)
	m := &laneMix{classes: newDeck(rng, classes)}
	for i := range m.clones {
		m.clones[i] = newDeck(rng, rng.Perm(clones))
		m.nodes[i] = newDeck(rng, []int{0, 1})
	}
	return m
}

// pick deals the next job.
func (b *serviceBench) pick(h *harness, mix *laneMix, nonce string) (jobSpec, error) {
	class := mix.classes.next()
	ref := &b.refs[mix.clones[class].next()]
	node := mix.nodes[class].next()
	if mixClasses[class] == classHit {
		return jobSpec{class: classHit, name: ref.name, blob: ref.blob, cfg: study.SampledConfig(), node: node, ref: ref.plain}, nil
	}
	return h.freshJob(mixClasses[class], ref, nonce, node)
}

func (b *serviceBench) measure(m *meter) {
	type chunk struct {
		h      *harness
		traced bool
	}
	chunks := []chunk{{b.h, false}}
	if b.ht != nil {
		// Alternate so that neither half enjoys a warmer process.
		chunks = []chunk{{b.h, false}, {b.ht, true}, {b.h, false}, {b.ht, true}}
	}
	per := m.window / time.Duration(len(chunks))
	for ci, ch := range chunks {
		b.loop(m, ch.h, ci, per, ch.traced)
	}
}

// loop runs the closed loop on h for d: every lane submits its next job
// as soon as the previous one's result stream has ended.
func (b *serviceBench) loop(m *meter, h *harness, chunk int, d time.Duration, traced bool) {
	var rt0 rtStats
	var obs0 counts
	var depth *depthSampler
	if traced {
		rt0, obs0 = readRuntime(), countsOf(m.om.Snapshot())
		depth = sampleDepth(m.om)
	}
	start := time.Now()
	until := start.Add(d)
	var wg sync.WaitGroup
	for lane := 0; lane < b.lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			mix := newLaneMix(rand.New(rand.NewSource(b.c.seed*7919+int64(chunk*b.lanes+lane))), len(b.refs))
			for n := 0; n == 0 || time.Now().Before(until); n++ {
				j, err := b.pick(h, mix, fmt.Sprintf("%d-%d-%d-%d", b.c.seed, chunk, lane, n))
				if err != nil {
					m.record(sample{class: "prepare"}, err)
					continue
				}
				m.op(j.class, lane, traced, func(o opCtx, s *sample) error { return h.do(o, s, j) })
			}
		}(lane)
	}
	wg.Wait()
	m.mu.Lock()
	m.elapsed += time.Since(start)
	m.mu.Unlock()
	if traced {
		b.depthPeak = max(b.depthPeak, depth.finish())
		m.addRuntime(readRuntime().sub(rt0), countsOf(m.om.Snapshot()).sub(obs0))
	}
}

// layers splits the traced jobs' latency into submit and result legs
// per class, sets it against the pass alone, and reads the daemon and
// cluster counters.
func (b *serviceBench) layers(m *meter, _ *legResult, out map[string]float64) {
	c := m.obsDelta
	obsLayers(c, float64(m.tracedOps()), out)
	noStudyLayers(out)
	pick := func(class string, field func(sample) float64) []float64 {
		var xs []float64
		for _, s := range m.samples {
			if s.traced && s.class == class {
				xs = append(xs, field(s))
			}
		}
		return xs
	}
	total := func(s sample) float64 { return s.ms }
	submit := func(s sample) float64 { return s.submitMS }
	result := func(s sample) float64 { return s.resultMS }
	var fwdMS, localMS []float64
	for _, s := range m.samples {
		switch {
		case !s.traced || s.class != classMiss:
		case s.forwarded:
			fwdMS = append(fwdMS, s.ms)
		default:
			localMS = append(localMS, s.ms)
		}
	}
	var passMS []float64
	for _, r := range b.refs {
		passMS = append(passMS, r.passMS)
	}
	out["server.pass_ms_p50"] = median(passMS)
	out["server.hit_submit_ms_p50"] = median(pick(classHit, submit))
	out["server.hit_result_ms_p50"] = median(pick(classHit, result))
	out["server.miss_submit_ms_p50"] = median(pick(classMiss, submit))
	out["server.miss_result_ms_p50"] = median(pick(classMiss, result))
	out["server.shadow_ms_p50"] = median(pick(classShadow, total))
	out["server.miss_overhead_ms"] = median(pick(classMiss, total)) - median(passMS)
	out["server.cache_hit_ratio"] = ratio(c.C[obs.NameServerCacheHits], c.C[obs.NameServerSubmissions])
	out["server.queue_depth_max"] = b.depthPeak
	fwd, local := c.C[obs.NameClusterForwards], c.C["cluster.forwards-local"]
	out["cluster.forward_frac"] = ratio(fwd, fwd+local)
	out["cluster.forward_ms_mean"] = ratio(c.Sum["cluster.forward-ns"], c.Count["cluster.forward-ns"]) / 1e6
	out["cluster.fwd_extra_ms"] = median(fwdMS) - median(localMS)
	out["cluster.hedges"] = c.C[obs.NameClusterHedges]
	out["cluster.retries"] = c.C["cluster.retries"]
	out["cluster.rpc_errors"] = c.C["cluster.rpc-errors"]
}
