package fpspy_test

import (
	"testing"

	fpspy "repro"
	"repro/internal/isa"
	"repro/internal/obs"
)

const flopIters = 10

// flopMask is the write mask used by the masked op below: 5 of 8 lanes
// active, 3 suppressed.
const flopMask = 0b10110101

// flopProgram is a guest with an analytically known FLOP profile per
// iteration (SDE convention: lane operations, FMA = 2/lane, dpps = 4
// multiplies + 3 adds per 128-bit group, masked-off lanes skipped):
//
//	vaddpdz     add.double      8
//	vmulpdzk    mul.double      5   (+3 masked-skipped)
//	vfmaddpdz   fma.double     16
//	divsd       div.double      1
//	sqrtsd      sqrt.double     1
//	vsubpsz     sub.single     16
//	cvtsd2ss    convert.single  1
//	ucomisd     compare.double  1
//	roundsd     round.double    1
//	dpps        mul.single 4, add.single 3
func flopProgram() *fpspy.Program {
	b := fpspy.NewProgram("flops")
	a8 := b.Float64s(0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1)
	c8 := b.Float64s(0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2)
	s16 := b.Float32s(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
	three := b.Float64s(3)
	b.Movi(isa.R4, int64(a8))
	b.Fldvz(isa.X0, isa.R4, 0)
	b.Movi(isa.R4, int64(c8))
	b.Fldvz(isa.X1, isa.R4, 0)
	b.Movi(isa.R4, int64(s16))
	b.Fldvz(isa.X6, isa.R4, 0)
	b.Movi(isa.R4, int64(three))
	b.Fld(isa.X7, isa.R4, 0)
	b.Movi(isa.R5, flopMask)
	b.Kmovq(isa.K1, isa.R5)
	b.Movi(isa.R2, 0)
	b.Movi(isa.R3, flopIters)
	top := b.Label("top")
	b.Bind(top)
	b.FP2(isa.OpVADDPDZ, isa.X2, isa.X0, isa.X1)
	b.FP2Masked(isa.OpVMULPDKZ, isa.X3, isa.X0, isa.X1, isa.K1)
	b.FMA(isa.OpVFMADDPDZ, isa.X4, isa.X0, isa.X1, isa.X2)
	b.FP2(isa.OpDIVSD, isa.X5, isa.X0, isa.X7)
	b.FP1(isa.OpSQRTSD, isa.X8, isa.X7)
	b.FP2(isa.OpVSUBPSZ, isa.X9, isa.X6, isa.X6)
	b.Cvt(isa.OpCVTSD2SS, isa.X10, isa.X0)
	b.Ucomi(isa.OpUCOMISD, isa.R6, isa.X0, isa.X1)
	b.Round(isa.OpROUNDSD, isa.X11, isa.X0, isa.RoundImmNearest)
	b.Dp(isa.OpDPPS, isa.X12, isa.X6, isa.X6)
	b.Addi(isa.R2, isa.R2, 1)
	b.Blt(isa.R2, isa.R3, top)
	b.Hlt()
	return b.Build()
}

// flopSnapshot runs flopProgram under one engine configuration and
// returns the flop.* counter view.
func flopSnapshot(t *testing.T, opts fpspy.Options) map[string]uint64 {
	t.Helper()
	om := obs.New(obs.Options{})
	opts.Obs = om
	run, err := fpspy.Run(flopProgram(), opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if run.ExitCode != 0 {
		t.Fatalf("exit %d", run.ExitCode)
	}
	out := map[string]uint64{}
	for name, v := range om.Snapshot().Counters {
		if len(name) > 5 && name[:5] == "flop." {
			out[name] = v
		}
	}
	return out
}

// TestFlopCountersAnalytic reconciles the SDE-style FLOP counters
// against the program's analytically known op mix, exactly, and
// requires the counts to be engine-invariant: the superblock engine,
// the precise single-step engine, and the individual-mode trapping run
// must all credit identical FLOPs.
func TestFlopCountersAnalytic(t *testing.T) {
	want := map[string]uint64{
		"flop.add.double":     8 * flopIters,
		"flop.mul.double":     5 * flopIters,
		"flop.fma.double":     16 * flopIters,
		"flop.div.double":     1 * flopIters,
		"flop.sqrt.double":    1 * flopIters,
		"flop.sub.single":     16 * flopIters,
		"flop.convert.single": 1 * flopIters,
		"flop.compare.double": 1 * flopIters,
		"flop.round.double":   1 * flopIters,
		"flop.mul.single":     4 * flopIters,
		"flop.add.single":     3 * flopIters,
		"flop.masked-skipped": 3 * flopIters,
	}
	configs := []struct {
		label string
		opts  fpspy.Options
	}{
		{"superblock", fpspy.Options{Config: fpspy.Config{Mode: fpspy.ModeAggregate}}},
		{"precise", fpspy.Options{Config: fpspy.Config{Mode: fpspy.ModeAggregate}, NoFastPath: true}},
		{"individual", fpspy.Options{Config: fpspy.Config{Mode: fpspy.ModeIndividual}}},
	}
	for _, c := range configs {
		got := flopSnapshot(t, c.opts)
		for name, w := range want {
			if got[name] != w {
				t.Errorf("%s: %s = %d, want %d", c.label, name, got[name], w)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: unexpected counter %s = %d", c.label, name, got[name])
			}
		}
	}
}

// TestFlopCountersReconcileWithTrace is the e2e reconciliation gate: on
// a guest whose every FP site raises inexact on every execution, the
// individual-mode trace must contain exactly one record per dynamic
// execution, and multiplying each opcode's record count by its per-
// execution lane FLOPs must land exactly on the flop.* counters.
func TestFlopCountersReconcileWithTrace(t *testing.T) {
	const iters = 6
	b := fpspy.NewProgram("flops-traced")
	a8 := b.Float64s(0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1)
	c8 := b.Float64s(0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2)
	three := b.Float64s(3)
	b.Movi(isa.R4, int64(a8))
	b.Fldvz(isa.X0, isa.R4, 0)
	b.Movi(isa.R4, int64(c8))
	b.Fldvz(isa.X1, isa.R4, 0)
	b.Movi(isa.R4, int64(three))
	b.Fld(isa.X7, isa.R4, 0)
	b.Movi(isa.R5, flopMask)
	b.Kmovq(isa.K1, isa.R5)
	b.Movi(isa.R2, 0)
	b.Movi(isa.R3, iters)
	top := b.Label("top")
	b.Bind(top)
	b.FP2(isa.OpVADDPDZ, isa.X2, isa.X0, isa.X1)                // 0.1+0.2: inexact, 8 lanes
	b.FP2Masked(isa.OpVMULPDKZ, isa.X3, isa.X0, isa.X1, isa.K1) // 5 active lanes, inexact
	b.FMA(isa.OpVFMADDPDZ, isa.X4, isa.X0, isa.X1, isa.X2)      // inexact, 16 flops
	b.FP2(isa.OpDIVSD, isa.X5, isa.X0, isa.X7)                  // 0.1/3: inexact
	b.FP1(isa.OpSQRTSD, isa.X8, isa.X7)                         // sqrt(3): inexact
	b.Cvt(isa.OpCVTSD2SS, isa.X10, isa.X0)                      // 0.1 narrows inexactly
	b.Addi(isa.R2, isa.R2, 1)
	b.Blt(isa.R2, isa.R3, top)
	b.Hlt()

	om := obs.New(obs.Options{})
	run, err := fpspy.Run(b.Build(), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual},
		Obs:    om,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	recs := run.Store.AllRecords()

	// Trace-derived dynamic op counts.
	byOp := map[isa.Opcode]uint64{}
	for _, r := range recs {
		byOp[isa.Opcode(r.Opcode)]++
	}
	for _, op := range []isa.Opcode{isa.OpVADDPDZ, isa.OpVMULPDKZ, isa.OpVFMADDPDZ,
		isa.OpDIVSD, isa.OpSQRTSD, isa.OpCVTSD2SS} {
		if byOp[op] != iters {
			t.Errorf("trace has %d records for %s, want %d", byOp[op], op.Info().Name, iters)
		}
	}

	// Per-execution FLOP weights of each traced opcode.
	weights := map[string]map[isa.Opcode]uint64{
		"flop.add.double":     {isa.OpVADDPDZ: 8},
		"flop.mul.double":     {isa.OpVMULPDKZ: 5},
		"flop.fma.double":     {isa.OpVFMADDPDZ: 16},
		"flop.div.double":     {isa.OpDIVSD: 1},
		"flop.sqrt.double":    {isa.OpSQRTSD: 1},
		"flop.convert.single": {isa.OpCVTSD2SS: 1},
		"flop.masked-skipped": {isa.OpVMULPDKZ: 3},
	}
	counters := om.Snapshot().Counters
	for name, ws := range weights {
		var fromTrace uint64
		for op, w := range ws {
			fromTrace += byOp[op] * w
		}
		if counters[name] != fromTrace {
			t.Errorf("%s = %d, but trace-derived count is %d", name, counters[name], fromTrace)
		}
	}
}
