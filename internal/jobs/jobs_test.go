package jobs_test

import (
	"testing"

	fpspy "repro"
	"repro/internal/isa"
	"repro/internal/jobs"
	"repro/internal/kernel"
	"repro/internal/workload"
)

func TestCloneRoundTrip(t *testing.T) {
	w, err := workload.ByName("laghos")
	if err != nil {
		t.Fatal(err)
	}
	job := jobs.Capture("laghos-run-42", w.Build(workload.SizeSmall),
		map[string]string{"OMP_NUM_THREADS": "4"}, 4<<20)
	blob, err := job.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := jobs.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != job.Name || back.MemBytes != job.MemBytes {
		t.Errorf("metadata lost: %+v", back)
	}
	if len(back.Program.Insts) != len(job.Program.Insts) {
		t.Fatalf("program truncated: %d vs %d", len(back.Program.Insts), len(job.Program.Insts))
	}
	if back.Env["OMP_NUM_THREADS"] != "4" {
		t.Error("environment lost")
	}
	// The decoded clone replays identically to the original program.
	orig, err := job.Replay(fpspy.Config{Mode: fpspy.ModeAggregate})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := back.Replay(fpspy.Config{Mode: fpspy.ModeAggregate})
	if err != nil {
		t.Fatal(err)
	}
	if orig.EventSet() != replay.EventSet() {
		t.Errorf("replay events %v != original %v", replay.EventSet(), orig.EventSet())
	}
	if orig.Steps != replay.Steps {
		t.Errorf("replay steps %d != original %d", replay.Steps, orig.Steps)
	}
}

func TestProductionRunHasNoSpy(t *testing.T) {
	w, err := workload.ByName("nas-ep")
	if err != nil {
		t.Fatal(err)
	}
	job := jobs.Capture("ep", w.Build(workload.SizeSmall), nil, 4<<20)
	res, err := job.RunProduction()
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.Faults != 0 || len(res.Aggregates()) != 0 {
		t.Error("production run was observed")
	}
	if res.ExitCode != 0 {
		t.Errorf("exit %d", res.ExitCode)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := jobs.Decode([]byte("not a clone")); err == nil {
		t.Error("garbage decoded")
	}
}

func TestCloneReplayAggressive(t *testing.T) {
	// The offline analyst uses a configuration production would never
	// tolerate: full individual capture including Inexact.
	w, err := workload.ByName("ext/cholesky")
	if err != nil {
		t.Fatal(err)
	}
	job := jobs.Capture("cholesky", w.Build(workload.SizeSmall), nil, 4<<20)
	blob, _ := job.Encode()
	clone, _ := jobs.Decode(blob)
	res, err := clone.Replay(fpspy.Config{Mode: fpspy.ModeIndividual, Aggressive: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.EventSet()&fpspy.FlagDivideByZero == 0 {
		t.Error("offline replay missed the divide by zero")
	}
	if len(res.MustRecords()) == 0 {
		t.Error("no records from aggressive replay")
	}
}

// TestCloneWithWildBranchSegfaults: Validate does not check branch
// targets, so a submitted clone can branch outside its program. Through
// Decode and RunProduction such a clone must exit by SIGSEGV, not
// panic the host.
func TestCloneWithWildBranchSegfaults(t *testing.T) {
	retTo := func(addr uint64) []isa.Inst {
		return []isa.Inst{
			{Op: isa.OpMOVI, Rd: isa.R4, Imm: int64(addr)},
			{Op: isa.OpADDI, Rd: isa.SP, Rs1: isa.SP, Imm: -8},
			{Op: isa.OpST, Rs1: isa.SP, Rs2: isa.R4},
			{Op: isa.OpRET},
		}
	}
	for name, tail := range map[string][]isa.Inst{
		"jmp-negative":  {{Op: isa.OpJMP, Imm: -1}},
		"beq-beyond":    {{Op: isa.OpBEQ, Rs1: isa.R1, Rs2: isa.R1, Imm: 1 << 20}},
		"ret-unaligned": retTo(isa.DefaultCodeBase + 2),
	} {
		b := isa.NewBuilder(name)
		top := b.Label("top")
		b.Movi(isa.R1, 0)
		b.Movi(isa.R2, 50)
		b.Bind(top)
		b.Addi(isa.R1, isa.R1, 1)
		b.Blt(isa.R1, isa.R2, top)
		for _, inst := range tail {
			b.Raw(inst)
		}
		b.Hlt()
		blob, err := jobs.Capture(name, b.Build(), nil, 1<<20).Encode()
		if err != nil {
			t.Fatal(err)
		}
		clone, err := jobs.Decode(blob)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		res, err := clone.RunProduction()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := 128 + int(kernel.SIGSEGV); res.ExitCode != want {
			t.Errorf("%s: exit code %d, want %d (SIGSEGV)", name, res.ExitCode, want)
		}
	}
}
