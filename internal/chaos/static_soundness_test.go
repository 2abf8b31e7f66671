package chaos

import (
	"testing"

	"repro/internal/binscan/absint"
	"repro/internal/core"
)

// TestChaosStaticSoundness checks the abstract interpreter's verdicts
// against the chaos corpus: every condition a scenario dynamically
// raises must be may-possible at that site. A violation here means the
// static analysis under-approximated — the hard failure mode.
func TestChaosStaticSoundness(t *testing.T) {
	for _, f := range Families() {
		t.Run(string(f), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 3; seed++ {
				sc := Generate(f, seed)
				sc.Config.Mode = core.ModeIndividual
				sc.Config.SampleEvery = 0
				sc.Config.SampleOnUS, sc.Config.SampleOffUS = 0, 0
				sc.Config.MaxCount = 0
				sc.Config.ExceptList = core.AllEvents
				legs, err := Verify(sc.Prog, sc.Options)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				res := absint.Analyze(sc.Prog)
				for _, v := range absint.CheckSoundness(res, legs[0].Records) {
					t.Errorf("seed %d: %s", seed, v)
				}
			}
		})
	}
}
