package study

import (
	"strings"
	"sync"
	"testing"

	fpspy "repro"
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
// execute it once and share the identical result pointer.
func TestSingleflightDedup(t *testing.T) {
	s := NewWithWorkers(4)
	const callers = 8
	results := make([]*fpspy.Result, callers)
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
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a distinct result: pass ran more than once", i)
		}
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
		var sb strings.Builder
		for _, tbl := range tables {
			sb.WriteString(tbl.Render())
			sb.WriteString("\n")
		}
		return sb.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial == parallel {
		return
	}
	sl, pl := strings.Split(serial, "\n"), strings.Split(parallel, "\n")
	for i := 0; i < len(sl) && i < len(pl); i++ {
		if sl[i] != pl[i] {
			t.Fatalf("parallel output diverged at line %d:\n serial   %q\n parallel %q", i+1, sl[i], pl[i])
		}
	}
	t.Fatalf("output length changed: %d vs %d lines", len(sl), len(pl))
}
