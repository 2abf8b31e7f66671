package main

// The rootcause workload: the shadow-precision root-cause matrix
// (fpstudy -shadow -mitprec 113) over the seven applications, on the
// study worker pool, cells in fpstudy's order. Shadow re-execution in
// big.Float and the adaptive-precision mitigated leg dominate; no
// instruction traps.

import (
	"fmt"
	"runtime"

	"repro/internal/obs"
	"repro/internal/study"
	"repro/internal/workload"
)

func rootNames(c config) ([]string, workload.Size) {
	if c.short {
		return []string{"wrf", "enzo"}, workload.SizeSmall
	}
	return appNames(), workload.SizeLarge
}

func rootPrograms(c config) []namedProgram {
	names, size := rootNames(c)
	return buildNamed(names, size)
}

type rootBench struct {
	c     config
	cells []study.ShadowCell
	// steps and ops total the traced matrices' shadowed legs: the cells
	// run without an obs hook, so their reports are the count source.
	steps, ops float64
}

func newRootBench(c config, _ *obs.Metrics) (runner, error) {
	names, size := rootNames(c)
	return &rootBench{c: c, cells: study.DefaultShadowCells(names, shadowPrec, shadowPrec, size)}, nil
}

func (b *rootBench) close() {}

func (b *rootBench) measure(m *meter) {
	// Every matrix runs fpstudy's own cell order, whatever the seed: on
	// two workers the matrix's wall time depends on where the straggler
	// cell (laghos) sits, so a seeded order would make the seed a source
	// of noise.
	m.serial("rootcause.matrix", func(o opCtx) error {
		var rep *study.ShadowReport
		_ = o.span("study.shadow_matrix", func(opCtx) error {
			rep = study.NewWithWorkers(runtime.NumCPU()).ShadowMatrix(b.cells)
			return nil
		})
		return o.span("bench.check", func(opCtx) error { return b.check(o, rep) })
	})
}

// check pins every cell's attribution summary and mitigated-leg count.
func (b *rootBench) check(o opCtx, rep *study.ShadowReport) error {
	if rep.Failures != 0 {
		return fmt.Errorf("%d matrix cells failed", rep.Failures)
	}
	for _, cell := range rep.Cells {
		if cell.Err != "" {
			return fmt.Errorf("%s: %s", cell.Workload, cell.Err)
		}
		if o.traced() {
			b.steps += float64(cell.Steps)
			b.ops += float64(cell.Ops)
		}
		if err := firstErr(
			pins.check(b.c, cell.Workload+".steps", cell.Steps),
			pins.check(b.c, cell.Workload+".sites", uint64(cell.Sites)),
			pins.check(b.c, cell.Workload+".sites99", uint64(cell.Sites99)),
			pins.check(b.c, cell.Workload+".ops", cell.Ops),
			pins.check(b.c, cell.Workload+".top", cell.TopAddr),
			pins.check(b.c, cell.Workload+".mit_emulated", cell.MitEmulated),
		); err != nil {
			return err
		}
	}
	return nil
}

func (b *rootBench) layers(m *meter, legs *legResult, out map[string]float64) {
	ops := float64(m.tracedOps())
	obsLayers(m.obsDelta, ops, out)
	noStudyLayers(out)
	out["guest.steps_per_op"] = ratio(b.steps, ops)
	out["shadow.ops_per_op"] = ratio(b.ops, ops)
	// The slowest cell against the whole matrix: how much of the
	// matrix's wall time one straggler sets.
	var slowest float64
	for _, ms := range legs.cellMS {
		slowest = max(slowest, ms)
	}
	out["sched.critical_frac"] = ratio(slowest, median(m.classMS("rootcause.matrix", true)))
}
