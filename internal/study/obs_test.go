package study

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	fpspy "repro"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestGoldenStudyOutputUnderObs is the study-level transparency
// contract: attaching a shared observability registry to every pass must
// leave the rendered study byte-identical to the golden file produced
// without instrumentation. Instruments observe the simulation; they
// never feed back into it.
func TestGoldenStudyOutputUnderObs(t *testing.T) {
	if testing.Short() {
		t.Skip("full study in -short mode")
	}
	s := New()
	om := obs.New(obs.Options{TraceCapacity: 1 << 20})
	s.Obs = om
	tables, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "study.golden"))
	if err != nil {
		t.Fatalf("golden file missing (run TestGoldenStudyOutput with -update): %v", err)
	}
	if d := firstDiff(renderStudy(tables), string(want)); d != "" {
		t.Fatalf("instrumented study %s", d)
	}
	if om.Snapshot().Counters[obs.NameStudyPassesExecuted] == 0 {
		t.Fatal("registry observed no passes; transparency test proved nothing")
	}
}

// TestObsReconciliation is the end-to-end accounting contract: after a
// set of instrumented passes, the snapshot's trap and pass counters must
// reconcile exactly with the aggregate of the emitted trace records —
// with the trace going through its JSON wire format, as `fpstudy
// -metrics -traceout` ships it.
func TestObsReconciliation(t *testing.T) {
	s := NewWithWorkers(4)
	s.Size = workload.SizeSmall
	om := obs.New(obs.Options{TraceCapacity: 1 << 19})
	s.Obs = om

	apps := workload.Apps()
	if len(apps) < 3 {
		t.Fatalf("need at least 3 app workloads, have %d", len(apps))
	}
	var passes []passKey
	for _, w := range apps[:3] {
		passes = append(passes,
			passKey{name: w.Meta.Name, cfg: AggregateConfig(), size: s.Size},
			passKey{name: w.Meta.Name, cfg: FilteredConfig(), size: s.Size},
		)
	}
	passes = append(passes, passKey{name: apps[0].Meta.Name, noSpy: true, size: s.Size})

	var storeFaults uint64
	for _, k := range passes {
		res, err := s.run(k.name, k.cfg, k.noSpy, k.size)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		storeFaults += res.Store.Faults
	}

	if d := om.Tracer.Dropped(); d != 0 {
		t.Fatalf("tracer dropped %d events; reconciliation needs the full stream", d)
	}
	var buf bytes.Buffer
	if err := om.Tracer.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ParseTraceJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var passSpans, twoTrapSpans uint64
	for _, ev := range evs {
		switch {
		case ev.Cat == "study" && ev.Phase == obs.PhaseComplete:
			passSpans++
		case ev.Cat == "fpspy" && ev.Name == "two-trap":
			twoTrapSpans++
		}
	}

	snap := om.Snapshot()
	executed := snap.Counters[obs.NameStudyPassesExecuted]
	if want := uint64(len(passes)); executed != want {
		t.Errorf("passes executed %d, want %d", executed, want)
	}
	if req := snap.Counters[obs.NameStudyPassRequests]; req != executed {
		t.Errorf("pass requests %d != executed %d (no duplicates were issued)", req, executed)
	}
	if passSpans != executed {
		t.Errorf("study spans in trace %d, executed counter %d", passSpans, executed)
	}
	faults := snap.Counters[obs.NameSpyFaults]
	if faults == 0 {
		t.Fatal("no FP faults observed; reconciliation proved nothing")
	}
	if twoTrapSpans != faults {
		t.Errorf("two-trap spans in trace %d, spy.faults counter %d", twoTrapSpans, faults)
	}
	if faults != storeFaults {
		t.Errorf("spy.faults counter %d, sum of per-pass store faults %d", faults, storeFaults)
	}
	if sigfpe := snap.Counters[obs.KernelSignalCounterName(int(kernel.SIGFPE))]; sigfpe != faults {
		t.Errorf("kernel SIGFPE deliveries %d, spy.faults %d", sigfpe, faults)
	}
	if h, ok := snap.Histograms["study.pass.host-ns"]; ok && h.Count != executed {
		t.Errorf("pass host-time histogram count %d, executed %d", h.Count, executed)
	}
	if busy := snap.Gauges["study.workers-busy"]; busy != 0 {
		t.Errorf("workers-busy gauge %d after all passes finished", busy)
	}
}

// TestObsStudyRace hammers one shared registry from the parallel worker
// pool while snapshots and trace exports are taken concurrently. Run
// under -race (the CI race job does), this pins the registry's
// thread-safety contract.
func TestObsStudyRace(t *testing.T) {
	s := NewWithWorkers(8)
	s.Size = workload.SizeSmall
	om := obs.New(obs.Options{TraceCapacity: 1 << 16})
	s.Obs = om

	done := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
					snap := om.Snapshot()
					_ = snap.Counters[obs.NameSpyFaults]
					_ = om.Tracer.Events()
					_ = om.Tracer.ExportJSON(io.Discard)
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for _, w := range workload.Apps() {
		for _, cfg := range []fpspy.Config{AggregateConfig(), FilteredConfig()} {
			wg.Add(1)
			go func(name string, cfg fpspy.Config) {
				defer wg.Done()
				if _, err := s.run(name, cfg, false, s.Size); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}(w.Meta.Name, cfg)
		}
	}
	wg.Wait()
	close(done)
	readers.Wait()
}

// TestPassErrorPropagatesFromCache is the regression test for figures
// silently assembling from a failed pass: an error cached in the pass
// map must resurface from every figure that needs that pass.
func TestPassErrorPropagatesFromCache(t *testing.T) {
	boom := errors.New("simulated pass failure")
	poison := func(s *Study, key passKey) {
		e := s.entry(key)
		e.once.Do(func() { e.err = boom })
	}

	s := New()
	poison(s, passKey{name: "miniaero-calibrated", cfg: AggregateConfig(), size: s.Size})
	if _, err := s.Figure6(); !errors.Is(err, boom) {
		t.Errorf("Figure6 with a poisoned pass: err = %v, want the cached pass error", err)
	}

	s = New()
	app := workload.Apps()[0].Meta.Name
	poison(s, passKey{name: app, cfg: AggregateConfig(), size: s.Size})
	if _, err := s.Figure9(); !errors.Is(err, boom) {
		t.Errorf("Figure9 with a poisoned %s pass: err = %v, want the cached pass error", app, err)
	}
	if _, err := s.All(); !errors.Is(err, boom) {
		t.Errorf("All with a poisoned pass: err = %v, want the cached pass error", err)
	}
}

// failingSink models a trace file on a full disk: every write errors.
type failingSink struct{}

func (failingSink) Write(p []byte) (int, error) { return 0, errors.New("sink: no space left") }

// TestTraceFlushFailureFailsPass is the regression test for the cache
// accepting passes whose individual-mode trace flushes failed: the
// result carries TraceErr, and vetPass must reject it so figures never
// assemble from a truncated record stream.
func TestTraceFlushFailureFailsPass(t *testing.T) {
	w := workload.Apps()[0]
	store := fpspy.NewStoreWithSink(func(fpspy.ThreadKey) io.Writer { return failingSink{} })
	res, err := fpspy.Run(w.Build(workload.SizeSmall), fpspy.Options{
		Config: FilteredConfig(),
		Store:  store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceErr == nil {
		t.Fatal("failing sink produced no TraceErr; the regression scenario did not reproduce")
	}
	if _, verr := vetPass(w.Meta.Name, res, nil); verr == nil {
		t.Fatal("vetPass accepted a pass with failed trace flushes")
	} else if !strings.Contains(verr.Error(), "trace flush") {
		t.Fatalf("vetPass error %q does not identify the trace flush failure", verr)
	}
}

// TestShadowMatrixUnderObs: the shadow and probe matrices report to
// Study.Obs like every other pass — the shadow.ops counter equals the
// shadowed lanes of the matrix's cells, and the site gauge is set.
func TestShadowMatrixUnderObs(t *testing.T) {
	s := NewWithWorkers(2)
	om := obs.New(obs.Options{})
	s.Obs = om
	rep := s.ShadowMatrix(DefaultShadowCells([]string{"wrf", "enzo"}, 113, 0, workload.SizeSmall))
	if rep.Failures != 0 {
		t.Fatalf("%d cells failed", rep.Failures)
	}
	var ops uint64
	for _, c := range rep.Cells {
		ops += c.Ops
	}
	snap := om.Snapshot()
	if ops == 0 || snap.Counters[obs.NameShadowOps] != ops {
		t.Fatalf("shadow.ops = %d, cells shadowed %d lanes", snap.Counters[obs.NameShadowOps], ops)
	}
	if snap.Gauges[obs.NameShadowSites] == 0 {
		t.Fatal("shadow.sites gauge never set")
	}
	before := om.Snapshot().Counters[obs.NameSpyFaults]
	probe := s.ProbeMatrix(DefaultProbeCells(workload.SizeSmall, []int64{1}))
	if len(probe.Cells) == 0 {
		t.Fatal("empty probe matrix")
	}
	if om.Snapshot().Counters[obs.NameSpyFaults] == before {
		t.Fatal("probe matrix recorded no spy faults under Obs")
	}
}
