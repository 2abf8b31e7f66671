package binscan

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// deadCodeProgram builds the pattern the studied applications exhibit: a
// reachable loop, a pthread_exit terminator, dead fe*/sigaction cleanup
// code after it, and an address-taken handler that only the kernel can
// reach.
//
//	entry:   movi; lea handler; callc sigaction
//	loop:    addsd; addi; bgt loop
//	         callc pthread_exit        <- noreturn
//	dead:    callc feenableexcept; mulsd; hlt
//	handler: divsd; hlt                <- address-taken root
func deadCodeProgram() *isa.Program {
	b := isa.NewBuilder("deadcode")
	loop := b.Label("loop")
	handler := b.Label("handler")
	b.Movi(1, 3)
	b.Lea(2, handler)
	b.CallC("sigaction")
	b.Bind(loop)
	b.FP2(isa.OpADDSD, 1, 1, 1)
	b.Addi(1, 1, -1)
	b.Bgt(1, 0, loop)
	b.CallC("pthread_exit")
	b.CallC("feenableexcept")
	b.FP2(isa.OpMULSD, 2, 2, 2)
	b.Hlt()
	b.Bind(handler)
	b.FP2(isa.OpDIVSD, 3, 3, 3)
	b.Hlt()
	return b.Build()
}

func TestBuildCFGDeadCode(t *testing.T) {
	p := deadCodeProgram()
	cfg := BuildCFG(p)
	st := cfg.Stats()
	if st.Insts != len(p.Insts) {
		t.Fatalf("Insts = %d, want %d", st.Insts, len(p.Insts))
	}
	// Blocks: [entry..sigaction], [loop..bgt], [pthread_exit],
	// [dead feenableexcept..hlt], [handler..hlt].
	if st.Blocks != 5 {
		t.Errorf("Blocks = %d, want 5", st.Blocks)
	}
	if st.Roots != 1 {
		t.Errorf("Roots = %d, want 1 (handler)", st.Roots)
	}
	if st.ReachableBlocks != 4 {
		t.Errorf("ReachableBlocks = %d, want 4 (all but dead)", st.ReachableBlocks)
	}
	// The dead block is instructions 7..9 (feenableexcept, mulsd, hlt).
	for idx, want := range map[int]bool{
		0: true, 3: true, 6: true, 7: false, 8: false, 9: false, 10: true,
	} {
		if got := cfg.InstReachable(idx); got != want {
			t.Errorf("InstReachable(%d) = %v, want %v", idx, got, want)
		}
	}
	if cfg.BlockOf(-1) != -1 || cfg.BlockOf(len(p.Insts)) != -1 {
		t.Error("BlockOf out-of-range should be -1")
	}
}

func TestBuildCFGCallReturns(t *testing.T) {
	// call/ret: the subroutine is reachable via the call edge, the
	// instruction after the call via the fall-through (call-returns)
	// edge; ret itself contributes no edge.
	b := isa.NewBuilder("callret")
	sub := b.Label("sub")
	b.Call(sub)
	b.FP2(isa.OpMULSD, 1, 1, 1) // after call: reachable via fall-through
	b.Hlt()
	b.Bind(sub)
	b.FP2(isa.OpADDSD, 2, 2, 2)
	b.Ret()
	cfg := BuildCFG(b.Build())
	st := cfg.Stats()
	if st.ReachableBlocks != st.Blocks {
		t.Errorf("ReachableBlocks = %d, want all %d", st.ReachableBlocks, st.Blocks)
	}
	// Edges: call->sub, call->fallthrough. hlt and ret terminate.
	if st.Edges != 2 {
		t.Errorf("Edges = %d, want 2", st.Edges)
	}
}

func TestScanProgramSitesAndLibc(t *testing.T) {
	p := deadCodeProgram()
	s := ScanProgram(p)

	if len(s.Sites) != 3 {
		t.Fatalf("Sites = %d, want 3 (addsd, mulsd, divsd)", len(s.Sites))
	}
	byOp := map[isa.Opcode]Site{}
	for _, site := range s.Sites {
		byOp[site.Op] = site
		if got := s.SiteAt(site.Addr); got == nil || got.Index != site.Index {
			t.Errorf("SiteAt(%#x) did not round-trip", site.Addr)
		}
	}
	if !byOp[isa.OpADDSD].Reachable || !byOp[isa.OpADDSD].Emulable {
		t.Error("addsd site should be reachable and emulable")
	}
	if byOp[isa.OpMULSD].Reachable {
		t.Error("mulsd site is in dead code, should be unreachable")
	}
	if !byOp[isa.OpDIVSD].Reachable {
		t.Error("divsd site is address-taken handler code, should be reachable")
	}

	if got := len(s.SiteAddrs(false)); got != 3 {
		t.Errorf("SiteAddrs(false) = %d, want 3", got)
	}
	if got := len(s.SiteAddrs(true)); got != 2 {
		t.Errorf("SiteAddrs(true) = %d, want 2", got)
	}

	present := s.PresentLibc()
	reach := s.ReachableLibc()
	for _, sym := range []string{"sigaction", "pthread_exit", "feenableexcept"} {
		if !present[sym] {
			t.Errorf("PresentLibc missing %s", sym)
		}
	}
	if !reach["sigaction"] || !reach["pthread_exit"] {
		t.Error("sigaction and pthread_exit call sites should be reachable")
	}
	if reach["feenableexcept"] {
		t.Error("feenableexcept is referenced only in dead code")
	}
}

func TestFormAndAddressInventories(t *testing.T) {
	s := ScanProgram(deadCodeProgram())
	all := s.FormInventory(false)
	if len(all) != 3 {
		t.Fatalf("FormInventory(false) = %d forms, want 3", len(all))
	}
	reach := s.FormInventory(true)
	if len(reach) != 2 {
		t.Fatalf("FormInventory(true) = %d forms, want 2 (mulsd dead)", len(reach))
	}
	for _, e := range reach {
		if e.Key == "mulsd" {
			t.Error("dead mulsd site leaked into the reachable inventory")
		}
	}
	addrs := s.AddressInventory(true)
	if len(addrs) != 2 {
		t.Fatalf("AddressInventory(true) = %d, want 2", len(addrs))
	}
	for _, e := range addrs {
		if e.Count != 1 {
			t.Errorf("address entry %s has weight %d, want 1", e.Key, e.Count)
		}
	}
}

func TestRaisesFP(t *testing.T) {
	cases := map[isa.Opcode]bool{
		isa.OpADDSD: true,
		isa.OpMOVSD: false, // moves never raise
		isa.OpMOVI:  false,
		isa.OpJMP:   false,
		isa.OpCALLC: false,
	}
	for op, want := range cases {
		if got := RaisesFP(op); got != want {
			t.Errorf("RaisesFP(%v) = %v, want %v", op, got, want)
		}
	}
}

func TestPatchFeasibility(t *testing.T) {
	s := ScanProgram(deadCodeProgram())
	rep := s.PatchFeasibility(1000, 150, 6000)
	if rep.TotalSites != 3 || rep.ReachableSites != 2 {
		t.Errorf("sites = %d/%d reachable, want 3/2", rep.TotalSites, rep.ReachableSites)
	}
	// All three forms are scalar binary64 arithmetic: emulable.
	if rep.EmulableSites != 3 || rep.EmulableReachable != 2 {
		t.Errorf("emulable = %d/%d reachable, want 3/2", rep.EmulableSites, rep.EmulableReachable)
	}
	if len(rep.UnsupportedForms) != 0 {
		t.Errorf("UnsupportedForms = %v, want none", rep.UnsupportedForms)
	}
	if rep.Feasibility.TotalEvents != 2 {
		t.Errorf("feasibility model saw %d sites, want the 2 reachable", rep.Feasibility.TotalEvents)
	}
}

func TestValidateSyntheticTrace(t *testing.T) {
	p := deadCodeProgram()
	s := ScanProgram(p)

	rec := func(idx int) trace.Record {
		r := trace.Record{Rip: p.AddrOf(idx), Opcode: uint16(p.Insts[idx].Op)}
		copy(r.InstrWord[:], func() []byte { w := p.Encode(idx); return w[:] }())
		return r
	}
	addsd, mulsd := 3, 8

	// Sound trace: repeated hits on the reachable addsd site.
	v := s.Validate([]trace.Record{rec(addsd), rec(addsd), rec(addsd)})
	if !v.Sound() || v.Recall != 1.0 {
		t.Fatalf("sound trace judged unsound: %v", v)
	}
	if v.Events != 3 || v.DynamicSites != 1 || v.MatchedSites != 1 || v.FormMismatches != 0 {
		t.Errorf("sound trace counts wrong: %v", v)
	}
	if v.Precision != 0.5 { // 1 of 2 reachable sites exercised
		t.Errorf("Precision = %v, want 0.5", v.Precision)
	}

	// A trap at an address that is not a site: soundness violation.
	bogus := trace.Record{Rip: p.AddrOf(0), Opcode: uint16(p.Insts[0].Op)}
	copy(bogus.InstrWord[:], func() []byte { w := p.Encode(0); return w[:] }())
	v = s.Validate([]trace.Record{rec(addsd), bogus})
	if v.Sound() || len(v.Missing) != 1 || v.Missing[0] != p.AddrOf(0) {
		t.Errorf("missing site not detected: %v", v)
	}
	if v.Recall >= 1.0 {
		t.Errorf("Recall = %v, want < 1 with a missing site", v.Recall)
	}

	// A trap at a statically unreachable site: reachability violation.
	v = s.Validate([]trace.Record{rec(mulsd)})
	if v.Sound() || len(v.UnreachableHit) != 1 {
		t.Errorf("unreachable hit not detected: %v", v)
	}

	// A corrupted instruction word: form mismatch, but still sound.
	bad := rec(addsd)
	bad.InstrWord[0] ^= 0xFF
	v = s.Validate([]trace.Record{bad})
	if !v.Sound() || v.FormMismatches != 1 {
		t.Errorf("form mismatch not counted: %v", v)
	}
}

func TestEmptyProgram(t *testing.T) {
	p := isa.NewBuilder("empty").Build()
	s := ScanProgram(p)
	if st := s.CFG.Stats(); st.Blocks != 0 || st.Insts != 0 {
		t.Errorf("empty program stats = %+v", st)
	}
	if len(s.Sites) != 0 || len(s.Libc) != 0 {
		t.Error("empty program should have no sites or libc refs")
	}
	v := s.Validate(nil)
	if !v.Sound() || v.Events != 0 {
		t.Errorf("empty validation = %v", v)
	}
}

func TestSiteEmulableMatchesMitigator(t *testing.T) {
	// Emulable marks exactly the forms the Section 6 mitigator emulates:
	// scalar binary64 arithmetic and cvtsi2sdq, not packed or binary32
	// forms and not min/max, which it would refuse at a patched site.
	b := isa.NewBuilder("emulable")
	b.FP2(isa.OpADDSD, isa.X0, isa.X1, isa.X2)
	b.FP2(isa.OpADDPD, isa.X0, isa.X1, isa.X2)
	b.FP2(isa.OpADDSS, isa.X0, isa.X1, isa.X2)
	b.FP2(isa.OpMINSD, isa.X0, isa.X1, isa.X2)
	b.Cvt(isa.OpCVTSI2SDQ, isa.X3, isa.R1)
	b.Hlt()
	s := ScanProgram(b.Build())
	want := map[isa.Opcode]bool{
		isa.OpADDSD: true, isa.OpADDPD: false, isa.OpADDSS: false,
		isa.OpMINSD: false, isa.OpCVTSI2SDQ: true,
	}
	if len(s.Sites) != len(want) {
		t.Fatalf("Sites = %d, want %d", len(s.Sites), len(want))
	}
	for _, site := range s.Sites {
		if site.Emulable != want[site.Op] {
			t.Errorf("%v: Emulable = %v, want %v", site.Op, site.Emulable, want[site.Op])
		}
	}
}
