package study

import (
	"sync"
	"testing"

	fpspy "repro"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestWorkerPoolSizing(t *testing.T) {
	if NewWithWorkers(3).Workers() != 3 {
		t.Error("explicit worker count not honored")
	}
	if New().Workers() < 1 || NewWithWorkers(0).Workers() < 1 {
		t.Error("default worker count must be at least 1")
	}
}

func TestPassListCoversAllFigures(t *testing.T) {
	// Every pass the figures request must be in the prewarm list, or
	// All() silently falls back to on-demand (serial) execution for it.
	s := New()
	listed := make(map[passKey]bool)
	for _, k := range s.passList() {
		listed[k] = true
	}
	s.Prewarm()
	s.mu.Lock()
	cached := len(s.results)
	s.mu.Unlock()
	if _, err := s.All(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.results) != cached {
		t.Errorf("figures ran %d passes the prewarm list missed", len(s.results)-cached)
	}
	for k := range s.results {
		if !listed[k] {
			t.Errorf("pass not in passList: %+v", k)
		}
	}
}

// TestSingleflightDedup pins that concurrent requests for the same pass
// execute it once and share the identical result pointer, and that
// concurrent readers of a pass's records share one decode.
func TestSingleflightDedup(t *testing.T) {
	s := NewWithWorkers(4)
	const callers = 8
	results := make([]*fpspy.Result, callers)
	recs := make([][]trace.Record, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.run("miniaero", AggregateConfig(), false, workload.SizeSmall)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
			if recs[i], err = s.records("miniaero", SampledConfig(), workload.SizeSmall); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a distinct result: pass ran more than once", i)
		}
		if len(recs[i]) == 0 || &recs[i][0] != &recs[0][0] {
			t.Fatalf("caller %d got its own decode of the records", i)
		}
	}
	sampled, _ := s.run("miniaero", SampledConfig(), false, workload.SizeSmall)
	if n := sampled.Store.Decoded.Load(); n != uint64(len(recs[0])) {
		t.Errorf("store decoded %d records for %d read", n, len(recs[0]))
	}
}

// TestExecInOrder: the matrices' dispatcher runs every call and, on
// one worker, starts them in index order, not in the order racing
// goroutines happen to take the slot.
func TestExecInOrder(t *testing.T) {
	for _, workers := range []int{1, 2} {
		s := NewWithWorkers(workers)
		const n = 16
		var mu sync.Mutex
		var order []int
		s.execInOrder(n, func(i int) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
		if len(order) != n {
			t.Fatalf("%d workers: ran %d of %d calls", workers, len(order), n)
		}
		if workers == 1 {
			for i, got := range order {
				if got != i {
					t.Fatalf("1 worker: call %d started at position %d: %v", got, i, order)
				}
			}
		}
	}
}

// TestParallelStudyMatchesSerial renders the full study once on a
// single worker and once on a pool, and requires byte-identical output.
// Every pass is a hermetic simulation with its own seeded sampler, so
// scheduling must not be observable. Run under -race in CI, this also
// shakes out data races in the scheduler and any shared workload state.
func TestParallelStudyMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full study in -short mode")
	}
	render := func(workers int) string {
		s := NewWithWorkers(workers)
		// The reduced size keeps two extra full studies affordable under
		// the race detector; determinism does not depend on size.
		s.Size = workload.SizeSmall
		tables, err := s.All()
		if err != nil {
			t.Fatal(err)
		}
		return renderStudy(tables)
	}
	if d := firstDiff(render(8), render(1)); d != "" {
		t.Fatalf("parallel output (got) against serial (want) %s", d)
	}
}

// TestPassCacheDecodesOnce pins the pass cache's work: a figure runs
// only the passes it reads and decodes each of their traces once, so
// `fpstudy -only N` does exactly that figure's work; a figure asked for
// again decodes nothing; no cached result keeps its simulator; and a
// cell keeps one form of its trace, the records its store holds.
func TestPassCacheDecodesOnce(t *testing.T) {
	s := NewWithWorkers(2)
	s.Size = workload.SizeSmall
	step := func(fig func() (*Table, error), passes, stores uint64) studyWork {
		t.Helper()
		if _, err := fig(); err != nil {
			t.Fatal(err)
		}
		w := s.work()
		if w.passes != passes || w.stores != stores || w.records == 0 {
			t.Fatalf("work = %+v, want %d passes and %d stores decoded", w, passes, stores)
		}
		return w
	}
	step(s.Figure12, 1, 1)
	w := step(s.Figure13, 2, 2)
	if again := step(s.Figure13, 2, 2); again != w {
		t.Errorf("Figure 13 asked for twice: work %+v, then %+v", w, again)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, e := range s.results {
		if e.res.Kern != nil || e.res.Proc != nil {
			t.Errorf("cached pass %+v keeps its simulator", k)
		}
		if len(e.recs) == 0 {
			continue
		}
		if recs, err := e.res.Records(); err != nil || &recs[0] != &e.recs[0] {
			t.Errorf("cached pass %+v keeps its records apart from its store's (err %v)", k, err)
		}
	}
}
