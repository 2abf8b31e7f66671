package machine_test

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/workload"
)

// findRegions returns the start of each self-loop in prog whose
// instructions have exactly the opcodes ops, the last a blt back to the
// first.
func findRegions(prog *isa.Program, ops ...isa.Opcode) []int {
	var starts []int
	for i := 0; i+len(ops) <= len(prog.Insts); i++ {
		code := prog.Insts[i : i+len(ops)]
		if slices.EqualFunc(code, ops, func(in isa.Inst, op isa.Opcode) bool { return in.Op == op }) &&
			code[len(ops)-1].Imm == int64(i) {
			starts = append(starts, i)
		}
	}
	return starts
}

// TestRegionShortcuts pins which regions get a shortcut. The corpus's
// padding does: gromacs's busyloop and the calibrated Miniaero's
// bookkeeping loop close as counted self-loops, and all but the last of
// laghos's 35 mulq writes to r6 form one dead span. A loop closed by
// bne, a body carrying a register from pass to pass, a counter stepping
// by 0 or -1 and a body writing the bound do not, nor does a write read
// before it is overwritten; each negative case's twin without the flaw
// does. A region entry stays 24 bytes.
func TestRegionShortcuts(t *testing.T) {
	if machine.MetaBytes != 24 {
		t.Errorf("a region entry is %d bytes, want 24", machine.MetaBytes)
	}
	gromacs, err := workload.ByName("gromacs")
	if err != nil {
		t.Fatal(err)
	}
	miniaero := workload.BuildMiniaeroCalibrated(workload.SizeSmall)
	for _, c := range []struct {
		prog *isa.Program
		ops  []isa.Opcode
	}{
		{gromacs.Build(workload.SizeSmall), []isa.Opcode{isa.OpADDI, isa.OpBLT}},
		{miniaero, []isa.Opcode{isa.OpMULQ, isa.OpADDI, isa.OpBLT}},
	} {
		starts := findRegions(c.prog, c.ops...)
		if len(starts) == 0 {
			t.Errorf("%s: no %v loop", c.prog.Name, c.ops)
		}
		for _, start := range starts {
			if loop, _ := machine.RegionShortcuts(c.prog, start); !loop {
				t.Errorf("%s: the %v loop at %d is not a counted self-loop", c.prog.Name, c.ops, start)
			}
		}
	}

	laghos, err := workload.ByName("laghos")
	if err != nil {
		t.Fatal(err)
	}
	prog := laghos.Build(workload.SizeSmall)
	busy := isa.Inst{Op: isa.OpMULQ, Rd: isa.R6, Rs1: isa.R8, Rs2: isa.R8}
	run := make([]isa.Inst, 35)
	for i := range run {
		run[i] = busy
	}
	found := false
	for s := 0; s+len(run) < len(prog.Insts) && !found; s++ {
		if !slices.Equal(prog.Insts[s:s+len(run)], run) {
			continue
		}
		found = true
		head := s + len(run) // the loop closing the run, found by its blt
		for prog.Insts[head].Op != isa.OpBLT {
			head++
		}
		head = int(prog.Insts[head].Imm)
		if _, dead := machine.RegionShortcuts(prog, head); !maps.Equal(dead, map[int]int{s - head: 34}) {
			t.Errorf("laghos: dead spans %v in the region at %d, want 34 from entry %d", dead, head, s-head)
		}
	}
	if !found {
		t.Errorf("laghos: no run of 35 %v", busy)
	}

	loop := func(name string, step int64, close func(b *isa.Builder, l *isa.Label), body func(b *isa.Builder)) *isa.Program {
		b := isa.NewBuilder(name)
		head := b.Label("head")
		b.Movi(isa.R3, 100)
		b.Bind(head) // instruction 1
		b.Addi(isa.R2, isa.R2, step)
		body(b)
		close(b, head)
		b.Hlt()
		return b.Build()
	}
	blt := func(b *isa.Builder, l *isa.Label) { b.Blt(isa.R2, isa.R3, l) }
	bne := func(b *isa.Builder, l *isa.Label) { b.Bne(isa.R2, isa.R3, l) }
	double := func(b *isa.Builder) { b.Add(isa.R4, isa.R2, isa.R2) }
	for _, c := range []struct {
		prog *isa.Program
		want bool
	}{
		{loop("blt", 1, blt, double), true},
		{loop("bne", 1, bne, double), false},
		{loop("carried", 1, blt, func(b *isa.Builder) { b.Add(isa.R4, isa.R4, isa.R2) }), false},
		{loop("step0", 0, blt, double), false},
		{loop("step-1", -1, blt, double), false},
		{loop("writes-lim", 1, blt, func(b *isa.Builder) { b.Add(isa.R3, isa.R2, isa.R2) }), false},
	} {
		if got, _ := machine.RegionShortcuts(c.prog, 1); got != c.want {
			t.Errorf("%s: counted self-loop %v, want %v", c.prog.Name, got, c.want)
		}
	}

	for _, read := range []bool{false, true} {
		b := isa.NewBuilder("run")
		b.Movi(isa.R5, 11)
		if read {
			b.Add(isa.R6, isa.R7, isa.R5)
		} else {
			b.Add(isa.R6, isa.R7, isa.R7)
		}
		b.Movi(isa.R5, 2)
		b.Hlt()
		want := map[int]int{0: 1}
		if read {
			want = map[int]int{}
		}
		if _, dead := machine.RegionShortcuts(b.Build(), 0); !maps.Equal(dead, want) {
			t.Errorf("read=%v: dead spans %v, want %v", read, dead, want)
		}
	}
}
