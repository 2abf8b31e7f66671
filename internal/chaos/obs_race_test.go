package chaos

import (
	"io"
	"sync"
	"testing"

	fpspy "repro"
	"repro/internal/obs"
)

// TestThreadStormSharedRegistryRace runs several thread-storm scenarios
// concurrently against one shared observability registry while readers
// continuously snapshot it and export the trace. Thread storms are the
// most hostile instrumentation workload in the repository — many guest
// threads faulting at once, all funneling into the same counters and
// tracer ring. Run under -race (the CI race job does), this pins the
// registry's thread-safety contract at its worst case.
func TestThreadStormSharedRegistryRace(t *testing.T) {
	om := obs.New(obs.Options{TraceCapacity: 1 << 14})

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
					_ = snap.Counters["spy.faults"]
					_ = om.Tracer.ExportChromeTrace(io.Discard)
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for seed := int64(1); seed <= 4; seed++ {
		sc := Generate(FamilyThreadStorm, seed)
		wg.Add(1)
		go func(sc Scenario) {
			defer wg.Done()
			opts := sc.Options()
			opts.Obs = om
			res, err := fpspy.Run(sc.Prog, opts)
			if err == nil {
				_, err = Observe(res)
			}
			if err != nil {
				t.Errorf("chaos %s: %v", sc.Name, err)
			}
		}(sc)
	}
	wg.Wait()
	close(done)
	readers.Wait()

	snap := om.Snapshot()
	if snap.Counters["spy.threads-monitored"] == 0 {
		t.Error("no threads monitored; the storm never reached the spy")
	}
	if snap.Counters["spy.faults"] == 0 {
		t.Error("no faults recorded; the storm raised no FP events")
	}
}
