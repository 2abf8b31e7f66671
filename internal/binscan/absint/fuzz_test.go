package absint

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/softfloat"
)

// fuzzConsts is the data table every fuzz program loads operands from:
// the values that tickle each exception class (zeros, infinities, NaN,
// the largest normal, the smallest denormal) plus exact and inexact
// mundane values.
var fuzzConsts = []float64{
	0.0, 1.0, -1.0, 0.5, 3.0, 0.1, -2.5,
	1e308, 5e-324, math.Inf(1), math.Inf(-1), math.NaN(),
	math.MaxFloat64, 0x1p-1022, // smallest normal
}

// fuzzMXCSRWords are the environment words a fuzz program may ldmxcsr:
// the default, round-toward-zero, round-down, FTZ, and DAZ.
var fuzzMXCSRWords = []uint64{0x1f80, 0x7f80, 0x3f80, 0x9f80, 0x1fc0}

// genProgram deterministically builds a terminating program from fuzz
// bytes: forward-only control flow over FP arithmetic on table
// operands, with optional callc havoc, mxcsr rewrites, stores/loads,
// and an address-taken trailer block.
func genProgram(data []byte) *isa.Program {
	b := isa.NewBuilder("fuzz")
	consts := b.Float64s(fuzzConsts...)
	envs := b.Words(fuzzMXCSRWords...)
	scratch := b.Zeros(128)

	b.Movi(isa.R1, int64(consts))
	b.Movi(isa.R2, int64(envs))
	b.Movi(isa.R3, int64(scratch))

	next := 0
	byteAt := func() int {
		if next >= len(data) {
			return 0
		}
		v := int(data[next])
		next++
		return v
	}
	xreg := func(v int) int { return 1 + v%7 } // X1..X7

	// Seed a few registers from the table.
	for i := 1; i <= 4; i++ {
		b.Fld(i, isa.R1, int64(byteAt()%len(fuzzConsts))*8)
	}

	fp2 := []isa.Opcode{isa.OpADDSD, isa.OpSUBSD, isa.OpMULSD, isa.OpDIVSD, isa.OpMINSD, isa.OpMAXSD}
	fp2z := []isa.Opcode{isa.OpVADDPDZ, isa.OpVSUBPDZ, isa.OpVMULPDZ, isa.OpVDIVPDZ,
		isa.OpVADDPSZ, isa.OpVMULPSZ}
	fp2k := []isa.Opcode{isa.OpVADDPDKZ, isa.OpVSUBPDKZ, isa.OpVMULPDKZ, isa.OpVDIVPDKZ,
		isa.OpVADDPSKZ, isa.OpVDIVPSKZ}
	var pending []*isa.Label
	steps := 8 + byteAt()%48
	for i := 0; i < steps; i++ {
		op := byteAt()
		a, c := byteAt(), byteAt()
		switch op % 14 {
		case 0, 1, 2, 3: // weighted toward arithmetic
			b.FP2(fp2[op%len(fp2)], xreg(a), xreg(c), xreg(op>>4))
		case 4:
			b.FP1(isa.OpSQRTSD, xreg(a), xreg(c))
		case 5: // reload an operand from the table
			b.Fld(xreg(a), isa.R1, int64(c%len(fuzzConsts))*8)
		case 6: // forward branch: both arms stay live or one goes dead
			l := b.Label("fwd")
			pending = append(pending, l)
			if a%2 == 0 {
				b.Beq(isa.R0, isa.R0, l) // always taken
			} else {
				b.Bne(isa.R0, isa.R0, l) // never taken
			}
		case 7: // havoc
			b.CallC("rand")
		case 8: // store/load through scratch memory
			b.Fst(isa.R3, int64(a%8)*8, xreg(c))
			b.Fld(xreg(op>>4), isa.R3, int64(a%8)*8)
		case 9: // environment rewrite
			b.Ldmxcsr(isa.R2, int64(a%len(fuzzMXCSRWords))*8)
		case 10: // 512-bit packed arithmetic
			b.FP2(fp2z[op%len(fp2z)], xreg(a), xreg(c), xreg(op>>4))
		case 11: // write-masked arithmetic plus a sqrt form
			if a%3 == 0 {
				b.FP1Masked(isa.OpVSQRTPDKZ, xreg(a), xreg(c), op>>4%isa.NumMaskRegs)
			} else {
				b.FP2Masked(fp2k[op%len(fp2k)], xreg(a), xreg(c), xreg(op>>4), a%isa.NumMaskRegs)
			}
		case 12: // mask-register traffic
			if a%2 == 0 {
				b.Movi(isa.R5, int64(c))
				b.Kmovq(c%isa.NumMaskRegs, isa.R5)
			} else {
				b.Kmovrq(isa.R6, c%isa.NumMaskRegs)
			}
		case 13: // full-width store/load through scratch memory
			b.Fstvz(isa.R3, int64(a%2)*64, xreg(c))
			b.Fldvz(xreg(op>>4), isa.R3, int64(a%2)*64)
		}
		// Bind a pending forward label at a byte-chosen point.
		if len(pending) > 0 && c%3 == 0 {
			b.Bind(pending[0])
			pending = pending[1:]
		}
	}
	for _, l := range pending {
		b.Bind(l)
	}
	// Optionally end with an address-taken trailer the entry falls into:
	// exercises the untrusted-memory entry state.
	if byteAt()%2 == 0 {
		trailer := b.Label("trailer")
		b.Lea(isa.R4, trailer)
		b.Bind(trailer)
		b.FP2(isa.OpADDSD, isa.X1, isa.X1, isa.X2)
	}
	b.Hlt()
	return b.Build()
}

// runFuzzConcrete is runConcrete without the halt requirement: fuzz
// programs always terminate by construction (forward-only branches),
// but the soundness claim holds over any executed prefix regardless.
func runFuzzConcrete(p *isa.Program) map[int]softfloat.Flags {
	m := machine.New(p, 2<<20)
	raised := make(map[int]softfloat.Flags)
	for i := 0; i < 100000; i++ {
		m.CPU.MXCSR.ClearFlags()
		idx := p.IndexOf(m.CPU.RIP)
		ev := m.Step()
		if fl := m.CPU.MXCSR.Flags(); fl != 0 && idx >= 0 {
			raised[idx] |= fl
		}
		switch ev.(type) {
		case *machine.HaltEvent, *machine.FaultEvent:
			return raised
		}
	}
	return raised
}

// FuzzAbsint generates random terminating programs and checks the
// abstract interpreter's central claims against concrete execution:
// a never-trap site never raises any condition, May covers everything
// raised, and Must conditions are raised when the site executes in the
// default environment.
func FuzzAbsint(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 3, 9, 200, 14, 6, 0, 3, 9, 4, 4, 4})
	f.Add([]byte{6, 0, 0, 3, 3, 3, 7, 7, 9, 9, 5, 1, 2, 8, 8, 250, 131, 17})
	// 512-bit, write-masked, mask-register, and full-width memory forms
	// (op%14 in {10,11,12,13}), mixed with environment rewrites.
	f.Add([]byte{1, 2, 3, 4, 30, 10, 5, 24, 3, 7, 25, 0, 66, 26, 4, 1, 27, 9, 2, 9, 3, 1})
	f.Add([]byte{9, 9, 9, 9, 40, 11, 97, 33, 12, 2, 120, 13, 1, 50, 38, 255, 4, 26, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := genProgram(data)
		res := Analyze(p)

		raised := runFuzzConcrete(p)
		for idx, fl := range raised {
			site := res.SiteAt(p.AddrOf(idx))
			if site == nil {
				t.Fatalf("inst %d raised %v but is not a static site", idx, fl)
			}
			if !site.Reachable {
				t.Fatalf("inst %d (%s) raised %v but classified unreachable", idx, site.Op, fl)
			}
			if site.May == 0 {
				t.Fatalf("never-trap site %d (%s) raised %v concretely", idx, site.Op, fl)
			}
			if excess := fl &^ site.May; excess != 0 {
				t.Fatalf("inst %d (%s): raised %v outside static may=%v", idx, site.Op, fl, site.May)
			}
		}
		if !res.EnvVaries {
			// Must is proven for the default environment only, so it is
			// checkable only when the program never rewrites MXCSR.
			for idx, fl := range raised {
				site := res.SiteAt(p.AddrOf(idx))
				if miss := site.Must &^ fl; miss != 0 {
					t.Fatalf("inst %d (%s): must=%v but only %v raised", idx, site.Op, site.Must, fl)
				}
			}
		}
	})
}
