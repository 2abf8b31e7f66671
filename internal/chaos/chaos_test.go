package chaos

import (
	"fmt"
	"testing"

	"repro/internal/trace"
)

// TestChaosSweep is the harness's main entry: every scenario family,
// across fixed seeds, runs spy-on and spy-off on the fast and precise
// engines, and (a) the two engines must agree on everything the oracle
// observes, spy on or off, (b) the spy must leave guest state as the
// spy-off run leaves it, and (c) the spy-on run must record exactly the
// degradation the scenario was built to induce, with a non-empty typed
// reason.
func TestChaosSweep(t *testing.T) {
	// Six seeds so every seeded sub-variant (aggressive stealer, both
	// stomper flavors, both handler-exit orders) appears in the sweep.
	seeds := []int64{1, 2, 3, 4, 5, 6}
	for _, fam := range Families() {
		for _, seed := range seeds {
			sc := Generate(fam, seed)
			t.Run(fmt.Sprintf("%s/seed%d", fam, seed), func(t *testing.T) {
				t.Parallel()
				legs, err := Verify(sc.Prog, sc.Options, Engine, Spy)
				if err != nil {
					t.Fatalf("chaos %s: %v", sc.Name, err)
				}
				if err := CheckExpectation(legs[0].Events, sc); err != nil {
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

// TestInducedAbortsAreTyped sweeps the degrading families through the
// same legs and asserts every abort/demote in the monitor log carries a
// reason — the "no silent aborts" guarantee.
func TestInducedAbortsAreTyped(t *testing.T) {
	for _, fam := range Families() {
		sc := Generate(fam, 11)
		if sc.ExpectKind != trace.EventAbort && sc.ExpectKind != trace.EventDemote {
			continue
		}
		legs, err := Verify(sc.Prog, sc.Options, Engine, Spy)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		for _, e := range legs[0].Events {
			if (e.Kind == trace.EventAbort || e.Kind == trace.EventDemote) && e.Reason == "" {
				t.Errorf("%s: untyped degradation: %s", fam, e)
			}
		}
	}
}

// sweep registers an oracle check set over every family at seeds
// 1..seeds, one parallel subtest per family: prepare adjusts each
// scenario and returns the checks its legs must pass.
func sweep(t *testing.T, seeds int64, prepare func(*Scenario) []Check) {
	for _, f := range Families() {
		t.Run(string(f), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= seeds; seed++ {
				sc := Generate(f, seed)
				checks := prepare(&sc)
				if _, err := Verify(sc.Prog, sc.Options, checks...); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}
