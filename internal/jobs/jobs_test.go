package jobs_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"maps"
	"reflect"
	"testing"

	fpspy "repro"
	"repro/internal/isa"
	"repro/internal/jobs"
	"repro/internal/kernel"
	"repro/internal/workload"
)

// TestCloneRoundTrip: a clone's encoding is the documented format
// (Encode matches the tests' own writer byte for byte), does not depend
// on the order its environment was built in, decodes to an equal clone
// that re-encodes to the same bytes, and replays like the original.
func TestCloneRoundTrip(t *testing.T) {
	w, err := workload.ByName("laghos")
	if err != nil {
		t.Fatal(err)
	}
	env := map[string]string{"OMP_NUM_THREADS": "4", "A": "", "Z": "last", "M": "mid"}
	job := jobs.Capture("laghos-run-42", w.Build(workload.SizeSmall), env, 4<<20)
	blob, err := job.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if raw := rawEncode(job); !bytes.Equal(blob, raw) {
		t.Fatalf("Encode does not write the documented format:\n got %x\nwant %x", blob, raw)
	}
	for i := 0; i < 8; i++ { // each fresh map iterates in its own order
		again, _ := jobs.Capture(job.Name, job.Program, maps.Clone(env), job.MemBytes).Encode()
		if !bytes.Equal(again, blob) {
			t.Fatal("the encoding depends on the environment map's order")
		}
	}
	back, err := jobs.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, job) {
		t.Errorf("round trip changed the clone:\n got %+v\nwant %+v", back, job)
	}
	if re, _ := back.Encode(); !bytes.Equal(re, blob) {
		t.Error("the decoded clone re-encodes to other bytes")
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

// TestDecodeRejectsGarbage: inputs in no clone format, or in another
// one, fail with ErrFormat.
func TestDecodeRejectsGarbage(t *testing.T) {
	blob := rawEncode(seedClone(t))
	asJSON, err := json.Marshal(seedClone(t))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"text":          []byte("not a clone"),
		"empty":         nil,
		"magic only":    blob[:4],
		"next version":  append([]byte("FPJ\x02"), blob[4:]...),
		"JSON of a Job": asJSON,
	} {
		if _, err := jobs.Decode(data); !errors.Is(err, jobs.ErrFormat) {
			t.Errorf("%s: Decode = %v, want ErrFormat", name, err)
		}
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

// TestCloneWithWildBranchSegfaults: a clone can branch outside its
// program. Decode rejects a direct branch whose target index is outside
// the program, naming the instruction; a ret's target is known only at
// run time, so that clone decodes. Run without Decode, every one of
// them must exit by SIGSEGV through RunProduction, not panic the host.
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
		job := jobs.Capture(name, b.Build(), nil, 1<<20)
		blob, err := job.Encode()
		if err != nil {
			t.Fatal(err)
		}
		_, err = jobs.Decode(blob)
		var ie *jobs.InstError
		if direct := name != "ret-unaligned"; direct && (!errors.As(err, &ie) || ie.Index != 4) {
			t.Errorf("%s: decode = %v, want an InstError at instruction 4", name, err)
		} else if !direct && err != nil {
			t.Errorf("%s: decode: %v", name, err)
		}
		res, err := job.RunProduction()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := 128 + int(kernel.SIGSEGV); res.ExitCode != want {
			t.Errorf("%s: exit code %d, want %d (SIGSEGV)", name, res.ExitCode, want)
		}
	}
}

// TestValidateRejectsUnexecutableInsts: every instruction field the
// machine trusts is checked at Decode, and the error names the
// instruction. The first four clones are hostileClones; before Validate
// checked instructions, three of them panicked the host and the fourth
// wrapped its branch back into the program.
func TestValidateRejectsUnexecutableInsts(t *testing.T) {
	cases := hostileClones()
	for _, c := range []struct {
		name  string
		insts []isa.Inst
		index int
	}{
		{"jmp-negative", []isa.Inst{{Op: isa.OpNOP}, {Op: isa.OpJMP, Imm: -1}}, 1},
		{"call-past-end", []isa.Inst{{Op: isa.OpCALL, Imm: 2}, {Op: isa.OpHLT}}, 0},
		{"fma-rs3", []isa.Inst{{Op: isa.OpVFMADDSD, Rd: 1, Rs1: 2, Rs2: 3, Rs3: 16}, {Op: isa.OpHLT}}, 0},
		{"kmov-rd", []isa.Inst{{Op: isa.OpKMOVQ, Rd: 16, Rs1: 1}, {Op: isa.OpHLT}}, 0},
	} {
		cases = append(cases, hostileClone{c.name, c.index, &jobs.Job{Name: c.name, Program: &isa.Program{Name: c.name, Base: isa.DefaultCodeBase, Insts: c.insts}}})
	}
	for _, c := range cases {
		_, err := jobs.Decode(rawEncode(c.job))
		var ie *jobs.InstError
		if !errors.As(err, &ie) || ie.Index != c.index || ie.Clone != c.name {
			t.Errorf("%s: Decode = %v, want an InstError for clone %q at instruction %d", c.name, err, c.name, c.index)
		}
	}
	// The boundaries themselves are legal: register 15, a branch to the
	// last instruction and to the first.
	ok := &jobs.Job{Name: "edges", Program: &isa.Program{Name: "edges", Base: isa.DefaultCodeBase, Insts: []isa.Inst{
		{Op: isa.OpMOVI, Rd: 15, Imm: 1},
		{Op: isa.OpBEQ, Rs1: 15, Rs2: 0, Imm: 0},
		{Op: isa.OpVFMADDSD, Rd: 15, Rs1: 15, Rs2: 15, Rs3: 15},
		{Op: isa.OpJMP, Imm: 4},
		{Op: isa.OpHLT},
	}}}
	if _, err := jobs.Decode(rawEncode(ok)); err != nil {
		t.Errorf("Decode(edges) = %v, want ok", err)
	}
}

// TestRegisteredWorkloadsValidate: every registered workload, captured
// at either size with the default memory, is a valid clone.
func TestRegisteredWorkloadsValidate(t *testing.T) {
	for _, w := range workload.All() {
		for _, size := range []workload.Size{workload.SizeSmall, workload.SizeLarge} {
			if err := jobs.Capture(w.Meta.Name, w.Build(size), nil, 0).Validate(); err != nil {
				t.Errorf("%s at size %d: %v", w.Meta.Name, size, err)
			}
		}
	}
}

// fieldSet renders a struct type's fields as "Name Type" lines.
func fieldSet(v any) []string {
	typ := reflect.TypeOf(v)
	fields := make([]string, typ.NumField())
	for i := range fields {
		fields[i] = typ.Field(i).Name + " " + typ.Field(i).Type.String()
	}
	return fields
}

// TestEncodedFieldSets pins the fields the clone encoding writes. gob
// carried a new field silently; the encoding drops it, so a field added
// to Job, Program or Inst must first be added to Encode, Decode and
// rawEncode, and then here.
func TestEncodedFieldSets(t *testing.T) {
	for _, c := range []struct {
		v    any
		want []string
	}{
		{jobs.Job{}, []string{"Name string", "Program *isa.Program", "Env map[string]string", "MemBytes int"}},
		{isa.Program{}, []string{"Name string", "Insts []isa.Inst", "Base uint64", "Data []uint8", "DataBase uint64"}},
		{isa.Inst{}, []string{"Op isa.Opcode", "Rd uint8", "Rs1 uint8", "Rs2 uint8", "Rs3 uint8", "Imm int64", "Sym string"}},
	} {
		if got := fieldSet(c.v); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%T fields = %q, want %q", c.v, got, c.want)
		}
	}
}
