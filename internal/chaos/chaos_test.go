package chaos

import (
	"fmt"
	"testing"

	"repro/internal/trace"
)

// TestChaosSweep is the harness's main entry: every scenario family,
// across fixed seeds, must (a) preserve guest-visible state across
// spy-on/spy-off and fast/precise engines, (b) record identical trace
// records on the fast and precise engines, and (c) record exactly the
// degradation it was built to induce, with a non-empty typed reason.
func TestChaosSweep(t *testing.T) {
	// Six seeds so every seeded sub-variant (aggressive stealer, both
	// stomper flavors, both handler-exit orders) appears in the sweep.
	seeds := []int64{1, 2, 3, 4, 5, 6}
	for _, fam := range Families() {
		for _, seed := range seeds {
			sc := Generate(fam, seed)
			t.Run(fmt.Sprintf("%s/seed%d", fam, seed), func(t *testing.T) {
				t.Parallel()
				store, err := Verify(sc)
				if err != nil {
					t.Fatal(err)
				}
				if err := CheckExpectation(store, sc); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestGenerateDeterministic pins the seeding contract: the same
// (family, seed) pair must produce a byte-identical guest program.
func TestGenerateDeterministic(t *testing.T) {
	for _, fam := range Families() {
		a, b := Generate(fam, 42), Generate(fam, 42)
		if a.Name != b.Name || len(a.Prog.Insts) != len(b.Prog.Insts) {
			t.Fatalf("%s: regeneration diverged (%s/%d vs %s/%d insts)",
				fam, a.Name, len(a.Prog.Insts), b.Name, len(b.Prog.Insts))
		}
		for i := range a.Prog.Insts {
			if a.Prog.Insts[i] != b.Prog.Insts[i] {
				t.Fatalf("%s: instruction %d differs", fam, i)
			}
		}
	}
}

// TestInducedAbortsAreTyped sweeps the degrading families and asserts
// every abort/demote in the monitor log carries a reason — the "no
// silent aborts" guarantee.
func TestInducedAbortsAreTyped(t *testing.T) {
	for _, fam := range Families() {
		sc := Generate(fam, 11)
		if sc.ExpectKind != trace.EventAbort && sc.ExpectKind != trace.EventDemote {
			continue
		}
		store, err := Verify(sc)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		for _, e := range store.MonitorEvents() {
			if (e.Kind == trace.EventAbort || e.Kind == trace.EventDemote) && e.Reason == "" {
				t.Errorf("%s: untyped degradation: %s", fam, e)
			}
		}
	}
}
