package chaos

import (
	"testing"

	"repro/internal/binscan/absint"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/softfloat"
)

// TestSuperblockDifferential runs every chaos family in aggregate mode,
// where the spy takes no per-instruction traps and superblock regions
// run longest, through the engine check. The engines are
// interchangeable only if it holds in both modes; TestChaosSweep checks
// individual mode, the families' own.
func TestSuperblockDifferential(t *testing.T) {
	sweep(t, 2, func(sc *Scenario) []Check {
		sc.Config.Mode = core.ModeAggregate
		return []Check{Engine}
	})
}

// TestPruneDifferential narrows the spy's trap set statically: every
// chaos family runs in individual mode with every condition unmasked
// and again with only the conditions mayRaise finds possible, on both
// engines, through the trap-set and engine checks. A sound analysis
// makes the narrowing invisible but for the mask bits of each record's
// MXCSR. Families whose programs may raise every condition narrow
// nothing, so their two trap sets are one.
func TestPruneDifferential(t *testing.T) {
	sweep(t, 2, func(sc *Scenario) []Check {
		sc.Config.Mode = core.ModeIndividual
		sc.Config.ExceptList = core.AllEvents
		return []Check{TrapSet(core.AllEvents & mayRaise(sc.Prog)), Engine}
	})
}

// mayRaise is the set of conditions the abstract interpreter finds
// possible at some reachable site of prog.
func mayRaise(prog *isa.Program) softfloat.Flags {
	var may softfloat.Flags
	for _, s := range absint.Analyze(prog).Sites {
		if s.Reachable {
			may |= s.May
		}
	}
	return may
}

// TestShadowDifferential runs every chaos family in individual mode
// through the shadow check at 113 bits: the channel observes but never
// perturbs, under the same adversarial guests (signal stealers, MXCSR
// stompers, fork bursts) that exercise every degradation path.
func TestShadowDifferential(t *testing.T) {
	sweep(t, 2, func(sc *Scenario) []Check {
		sc.Config.Mode = core.ModeIndividual
		return []Check{Shadow(113)}
	})
}

// FuzzShadowDifferential fuzzes the shadow check over the (family,
// seed, precision) space.
func FuzzShadowDifferential(f *testing.F) {
	fams := Families()
	for i := range fams {
		f.Add(i, int64(1), uint64(113))
	}
	f.Add(0, int64(7), uint64(24))
	f.Add(3, int64(5), uint64(256))
	f.Fuzz(func(t *testing.T, fi int, seed int64, prec uint64) {
		if fi < 0 || fi >= len(fams) || seed <= 0 {
			t.Skip()
		}
		if prec < core.MinShadowPrec || prec > 512 {
			// Stay within the config's floor and keep mantissas small
			// enough that the fuzzer spends its budget on scenarios, not
			// on multi-kilobyte big.Float arithmetic.
			t.Skip()
		}
		sc := Generate(fams[fi], seed)
		sc.Config.Mode = core.ModeIndividual
		if _, err := Verify(sc.Prog, sc.Options, Shadow(prec)); err != nil {
			t.Fatalf("%s seed %d: %v", fams[fi], seed, err)
		}
	})
}
