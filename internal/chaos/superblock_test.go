package chaos

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestSuperblockDifferential runs every chaos family in aggregate mode,
// where the spy takes no per-instruction traps and superblock regions
// run longest, on the superblock engine and on the precise single-step
// reference, and requires the guest-visible outcome — registers, mask
// registers, memory, exit codes, retirement counts — to be
// bit-identical, plus the recorded traces, the aggregate records and
// the monitor events. The
// engines are interchangeable only if this holds in both modes;
// TestChaosSweep checks individual mode, the families' own.
func TestSuperblockDifferential(t *testing.T) {
	for _, f := range Families() {
		f := f
		t.Run(string(f), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 2; seed++ {
				sc := Generate(f, seed)
				sc.Config.Mode = core.ModeAggregate

				fast, err := runOnce(sc, true, false)
				if err != nil {
					t.Fatalf("seed %d fast: %v", seed, err)
				}
				precise, err := runOnce(sc, true, true)
				if err != nil {
					t.Fatalf("seed %d precise: %v", seed, err)
				}
				if d := diffSnapshots("fast", "precise", fast.Snap, precise.Snap); d != "" {
					t.Fatalf("seed %d: superblock engine changed guest state: %s", seed, d)
				}
				d, err := diffRecords(fast.Store, precise.Store)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if d != "" {
					t.Fatalf("seed %d: traces differ across engines: %s", seed, d)
				}
				if a, b := fast.Store.Aggregates(), precise.Store.Aggregates(); !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d: aggregate records differ:\nfast:    %+v\nprecise: %+v", seed, a, b)
				}
				if a, b := eventSummary(fast.Store), eventSummary(precise.Store); a != b {
					t.Fatalf("seed %d: monitor events differ:\nfast:    %q\nprecise: %q", seed, a, b)
				}
			}
		})
	}
}
