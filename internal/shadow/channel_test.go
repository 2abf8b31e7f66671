package shadow

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mxcsr"
	"repro/internal/obs"
	"repro/internal/softfloat"
)

// drive steps the machine to a halt with the channel attached, failing
// the test on any event that is not transparent to shadowing.
func drive(t *testing.T, m *machine.Machine) {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		ev := m.Step()
		if ev == nil {
			continue
		}
		switch ev.(type) {
		case *machine.CallCEvent, *machine.TrapEvent:
		case *machine.HaltEvent:
			return
		default:
			t.Fatalf("run ended with %T", ev)
		}
	}
	t.Fatal("no halt in 1M steps")
}

// TestNegativeControlRanksBadSite is the acceptance criterion's error
// injection: a guest whose loop runs exact operations plus exactly one
// rounding site must attribute all its error to that site, rank 1.
func TestNegativeControlRanksBadSite(t *testing.T) {
	b := isa.NewBuilder("negctl")
	b.Movi(isa.R6, int64(math.Float64bits(1.0)))
	b.Movqx(isa.X1, isa.R6)
	b.Movi(isa.R6, int64(math.Float64bits(3.0)))
	b.Movqx(isa.X2, isa.R6)
	b.Movi(isa.R6, 0)
	b.Movqx(isa.X0, isa.R6)
	b.Movi(isa.R8, 0)
	b.Movi(isa.R9, 200)
	top := b.Label("top")
	b.Bind(top)
	b.FP2(isa.OpADDSD, isa.X0, isa.X0, isa.X1) // exact: small-integer sum
	b.FP2(isa.OpMULSD, isa.X4, isa.X0, isa.X1) // exact: ×1.0
	b.FP2(isa.OpDIVSD, isa.X5, isa.X0, isa.X2) // inexact: n/3 — the bad site
	b.Addi(isa.R8, isa.R8, 1)
	b.Blt(isa.R8, isa.R9, top)
	b.Hlt()
	m := machine.New(b.Build(), 4096)
	ch := Attach(m, 113, nil)
	drive(t, m)

	rep := analysis.BuildRootCause(113, ch.Sites())
	top1, ok := rep.TopSite()
	if !ok {
		t.Fatal("no attributed sites")
	}
	if top1.Op != "divsd" {
		t.Fatalf("rank-1 site is %s at %#x, want the injected divsd", top1.Op, top1.Addr)
	}
	if top1.LocalUlps <= 0 {
		t.Errorf("bad site charged %v local ulps, want > 0", top1.LocalUlps)
	}
	// All of the error lives at the one bad site.
	if rep.Sites99 != 1 {
		t.Errorf("Sites99 = %d, want 1 (all error at the injected site)", rep.Sites99)
	}
	for i := range rep.Sites {
		if s := &rep.Sites[i]; s.Op != "divsd" && s.LocalUlps != 0 {
			t.Errorf("exact site %s at %#x charged %v local ulps", s.Op, s.Addr, s.LocalUlps)
		}
	}
}

// maskedProgram runs one write-masked 512-bit add over distinguishable
// lane values.
func maskedProgram(mask int64) *isa.Program {
	b := isa.NewBuilder("masked")
	a8 := b.Float64s(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
	c8 := b.Float64s(1, 2, 3, 4, 5, 6, 7, 8)
	b.Movi(isa.R4, int64(a8))
	b.Fldvz(isa.X0, isa.R4, 0)
	b.Movi(isa.R4, int64(c8))
	b.Fldvz(isa.X1, isa.R4, 0)
	b.Movi(isa.R5, mask)
	b.Kmovq(isa.K1, isa.R5)
	b.FP2Masked(isa.OpVADDPDKZ, isa.X2, isa.X0, isa.X1, isa.K1)
	b.Hlt()
	return b.Build()
}

// TestMaskedLanesDoNotShadowExecute: a K-masked z-form shadow-executes
// exactly its live lanes; masked-off lanes are neither computed nor
// attributed.
func TestMaskedLanesDoNotShadowExecute(t *testing.T) {
	for _, tc := range []struct {
		mask int64
		want uint64
	}{
		{0b11111111, 8},
		{0b01010001, 3},
		{0b00000000, 0},
	} {
		m := machine.New(maskedProgram(tc.mask), 1<<21)
		ch := Attach(m, 113, nil)
		drive(t, m)
		if got := ch.Stats().Ops; got != tc.want {
			t.Errorf("mask %#b: shadow-executed %d lanes, want %d", tc.mask, got, tc.want)
		}
		sites := ch.Sites()
		if tc.want == 0 {
			if len(sites) != 0 {
				t.Errorf("mask 0: attributed %d sites, want none", len(sites))
			}
			continue
		}
		if len(sites) != 1 || sites[0].Op != "vaddpdzk" || sites[0].Count != tc.want {
			t.Errorf("mask %#b: sites = %+v, want one vaddpdzk row with count %d", tc.mask, sites, tc.want)
		}
	}
}

// TestPackedLanesAllAttributed: an unmasked z-form charges all 8 lanes
// to one site.
func TestPackedLanesAllAttributed(t *testing.T) {
	b := isa.NewBuilder("packed")
	a8 := b.Float64s(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
	c8 := b.Float64s(1, 2, 3, 4, 5, 6, 7, 8)
	b.Movi(isa.R4, int64(a8))
	b.Fldvz(isa.X0, isa.R4, 0)
	b.Movi(isa.R4, int64(c8))
	b.Fldvz(isa.X1, isa.R4, 0)
	b.FP2(isa.OpVADDPDZ, isa.X2, isa.X0, isa.X1)
	b.FP2(isa.OpADDPD, isa.X3, isa.X0, isa.X1) // SSE width: 2 lanes
	b.Hlt()
	m := machine.New(b.Build(), 1<<21)
	ch := Attach(m, 113, nil)
	drive(t, m)
	if got := ch.Stats().Ops; got != 10 {
		t.Errorf("ops = %d, want 8 z-lanes + 2 pd lanes", got)
	}
}

// TestScalar32ShadowExecutes: scalar binary32 arithmetic is supported
// and measured in binary32 ulps.
func TestScalar32ShadowExecutes(t *testing.T) {
	b := isa.NewBuilder("scalar32")
	s4 := b.Float32s(0.1, 0.3, 0, 0)
	b.Movi(isa.R4, int64(s4))
	b.Flds(isa.X0, isa.R4, 0)
	b.Flds(isa.X1, isa.R4, 4)
	b.FP2(isa.OpADDSS, isa.X2, isa.X0, isa.X1) // 0.1f+0.3f rounds
	b.Hlt()
	m := machine.New(b.Build(), 1<<21)
	ch := Attach(m, 113, nil)
	drive(t, m)
	st := ch.Stats()
	if st.Ops != 1 {
		t.Fatalf("ops = %d, want 1", st.Ops)
	}
	if st.LocalUlps <= 0 || st.LocalUlps > 0.5 {
		t.Errorf("local error = %v, want (0, 0.5] for one correctly rounded op", st.LocalUlps)
	}
}

// TestDirtyEnvironmentSkipsShadowing: directed rounding disables
// shadow execution (results would diverge for non-rounding reasons).
func TestDirtyEnvironmentSkipsShadowing(t *testing.T) {
	ru := mxcsr.Default
	ru.SetRC(softfloat.RoundUp)
	b := isa.NewBuilder("dirtyenv")
	scratch := b.Words(uint64(ru))
	b.Movi(isa.R4, int64(scratch))
	b.Ldmxcsr(isa.R4, 0)
	b.Movi(isa.R6, int64(math.Float64bits(0.1)))
	b.Movqx(isa.X0, isa.R6)
	b.FP2(isa.OpADDSD, isa.X1, isa.X0, isa.X0)
	b.Hlt()
	m := machine.New(b.Build(), 1<<21)
	ch := Attach(m, 113, nil)
	drive(t, m)
	if got := ch.Stats().Ops; got != 0 {
		t.Errorf("ops = %d under round-up, want 0", got)
	}
	if len(ch.Sites()) != 0 {
		t.Errorf("sites attributed under a dirty environment: %+v", ch.Sites())
	}
}

// TestObsMetricsWired: the channel feeds the observability registry
// when one is attached, and tolerates nil.
func TestObsMetricsWired(t *testing.T) {
	om := obs.New(obs.Options{})
	m := machine.New(maskedProgram(0b1111), 1<<21)
	Attach(m, 113, &om.Shadow)
	drive(t, m)
	if got := om.Shadow.Channels.Load(); got != 1 {
		t.Errorf("shadow.channels = %d, want 1", got)
	}
	if got := om.Shadow.Ops.Load(); got != 4 {
		t.Errorf("shadow.ops = %d, want 4", got)
	}
	if got := om.Shadow.Sites.Load(); got != 1 {
		t.Errorf("shadow.sites = %d, want 1", got)
	}
}

// TestMemoryShadowThreading: a stored high-precision shadow survives a
// round trip through memory and keeps accumulating drift.
func TestMemoryShadowThreading(t *testing.T) {
	b := isa.NewBuilder("memthread")
	b.Movi(isa.R6, int64(math.Float64bits(0.1)))
	b.Movqx(isa.X1, isa.R6)
	b.Movi(isa.R6, 0)
	b.Movqx(isa.X0, isa.R6)
	b.Movi(isa.R10, 512)
	b.Movi(isa.R8, 0)
	b.Movi(isa.R9, 1000)
	top := b.Label("top")
	b.Bind(top)
	b.FP2(isa.OpADDSD, isa.X0, isa.X0, isa.X1)
	b.Fst(isa.R10, 0, isa.X0) // spill
	b.Fld(isa.X0, isa.R10, 0) // reload: shadow must follow
	b.Addi(isa.R8, isa.R8, 1)
	b.Blt(isa.R8, isa.R9, top)
	b.Hlt()
	m := machine.New(b.Build(), 4096)
	ch := Attach(m, 113, nil)
	drive(t, m)
	st := ch.Stats()
	if st.Ops < 1000 {
		t.Fatalf("ops = %d, want 1000", st.Ops)
	}
	// If the shadow were dropped at each spill, every add would restart
	// from the native value and no drift could accumulate past 1 ulp.
	if st.MaxUlps < 2 {
		t.Errorf("maxUlps = %d, want accumulated drift ≥ 2 (memory shadow lost?)", st.MaxUlps)
	}
}

// TestSiteTableBounded: the per-site map stops growing at maxSites and
// counts the overflow instead of accumulating unboundedly.
func TestSiteTableBounded(t *testing.T) {
	ch := &Channel{prec: 53, wide: widePrec(53)}
	for i := 0; i < maxSites+100; i++ {
		ch.site(uint64(i)*8, "addsd")
	}
	if len(ch.sites) != maxSites {
		t.Errorf("site table grew to %d, want cap %d", len(ch.sites), maxSites)
	}
	if ch.siteOverflow != 100 {
		t.Errorf("overflow count = %d, want 100", ch.siteOverflow)
	}
}

// TestClobberMemOverlaps: a store removes exactly the memory shadows it
// overlaps, whether or not every shadow sits at a 4-aligned address
// (the aligned-only probe is a shortcut, not a different rule).
func TestClobberMemOverlaps(t *testing.T) {
	type entry struct {
		ea     uint64
		single bool
	}
	for _, tc := range []struct {
		name     string
		entries  []entry
		ea, size uint64
		want     []uint64
	}{
		{"aligned", []entry{{96, false}, {104, false}, {112, true}, {116, true}}, 100, 8, []uint64{112, 116}},
		{"aligned narrow", []entry{{96, false}, {104, true}, {108, true}}, 107, 1, []uint64{96, 108}},
		{"unaligned entry", []entry{{96, false}, {121, false}, {132, true}}, 128, 4, []uint64{96, 132}},
		{"unaligned store", []entry{{96, false}, {104, false}}, 103, 2, nil},
	} {
		ch := &Channel{mem: map[uint64]memShadow{}}
		for _, e := range tc.entries {
			ch.putMem(e.ea, val{set: true}, e.single)
		}
		ch.clobberMem(tc.ea, tc.size)
		var got []uint64
		for a := uint64(0); a < 256; a++ {
			if _, ok := ch.mem[a]; ok {
				got = append(got, a)
			}
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: shadows left at %v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: shadows left at %v, want %v", tc.name, got, tc.want)
				break
			}
		}
		if ch.unaligned != 0 {
			t.Errorf("%s: unaligned count %d after the unaligned shadows were clobbered", tc.name, ch.unaligned)
		}
	}
}
