package core

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/kernel"
)

// buildRounding builds a program producing n inexact events.
func buildRounding(n int64) *isa.Program {
	b := isa.NewBuilder("rounding")
	b.Movi(isa.R1, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R1)
	b.Movi(isa.R1, int64(math.Float64bits(3)))
	b.Movqx(isa.X1, isa.R1)
	b.Movi(isa.R8, 0)
	b.Movi(isa.R9, n)
	top := b.Label("top")
	b.Bind(top)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1)
	b.Addi(isa.R8, isa.R8, 1)
	b.Blt(isa.R8, isa.R9, top)
	b.Hlt()
	return b.Build()
}

// spawnWithEnv runs a program under FPSpy with a raw environment —
// including invalid settings the typed facade cannot express.
func spawnWithEnv(t *testing.T, prog *isa.Program, env map[string]string) (*Store, *kernel.Process) {
	t.Helper()
	k := kernel.New()
	store := NewStore()
	k.RegisterPreload(PreloadName, Factory(store, nil))
	if env == nil {
		env = map[string]string{}
	}
	env["LD_PRELOAD"] = PreloadName
	p, err := k.Spawn(prog, 1<<21, env)
	if err != nil {
		t.Fatal(err)
	}
	k.Run(10_000_000)
	if !p.Exited {
		t.Fatal("did not exit")
	}
	return store, p
}

func TestBadConfigLoadsInert(t *testing.T) {
	// An unparseable FPE_MODE must never break the application: FPSpy
	// loads, records the error, and touches nothing.
	store, p := spawnWithEnv(t, buildRounding(10), map[string]string{"FPE_MODE": "bogus"})
	if p.ExitCode != 0 {
		t.Errorf("exit %d", p.ExitCode)
	}
	if store.Faults != 0 || len(store.Aggregates()) != 0 {
		t.Error("inert FPSpy observed events")
	}
	// The spy instance recorded the configuration error.
	for _, obj := range p.Linker.Objects() {
		if obj.Name == PreloadName {
			return // instance exists; ConfigErr is internal state
		}
	}
	t.Error("fpspy.so not in the link chain")
}

func TestEnvDrivenIndividualMode(t *testing.T) {
	store, p := spawnWithEnv(t, buildRounding(10), map[string]string{"FPE_MODE": "individual"})
	if p.ExitCode != 0 {
		t.Errorf("exit %d", p.ExitCode)
	}
	if store.Recorded != 10 {
		t.Errorf("recorded = %d, want 10", store.Recorded)
	}
}

func TestEnvDrivenSubsample(t *testing.T) {
	store, _ := spawnWithEnv(t, buildRounding(100), map[string]string{
		"FPE_MODE":   "individual",
		"FPE_SAMPLE": "10",
	})
	if store.Recorded != 10 {
		t.Errorf("recorded = %d, want 10", store.Recorded)
	}
	if store.Faults != 100 {
		t.Errorf("faults = %d, want 100", store.Faults)
	}
}

func TestFPEDisableEnv(t *testing.T) {
	store, _ := spawnWithEnv(t, buildRounding(10), map[string]string{
		"FPE_MODE":    "individual",
		"FPE_DISABLE": "yes",
	})
	if store.Faults != 0 || store.Recorded != 0 {
		t.Error("FPE_DISABLE did not disable")
	}
}
