package jobs_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"

	fpspy "repro"
	"repro/internal/isa"
	"repro/internal/jobs"
	"repro/internal/workload"
)

// rawEncode gob-encodes a Job without Capture/Encode validation, to
// forge the hostile clones Decode must reject.
func rawEncode(t testing.TB, j *jobs.Job) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(j); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDecodeRejectsNilProgram(t *testing.T) {
	blob := rawEncode(t, &jobs.Job{Name: "hostile", MemBytes: 1 << 20})
	if _, err := jobs.Decode(blob); !errors.Is(err, jobs.ErrNoProgram) {
		t.Fatalf("Decode(nil program) = %v, want ErrNoProgram", err)
	}
	empty := rawEncode(t, &jobs.Job{Name: "empty", Program: &isa.Program{Name: "empty"}})
	if _, err := jobs.Decode(empty); !errors.Is(err, jobs.ErrNoProgram) {
		t.Fatalf("Decode(empty program) = %v, want ErrNoProgram", err)
	}
}

func TestDecodeRejectsAbsurdMemBytes(t *testing.T) {
	w, err := workload.ByName("nas-ep")
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Build(workload.SizeSmall)
	for _, mem := range []int{-1, jobs.MaxMemBytes + 1} {
		blob := rawEncode(t, &jobs.Job{Name: "hog", Program: prog, MemBytes: mem})
		if _, err := jobs.Decode(blob); !errors.Is(err, jobs.ErrMemBytes) {
			t.Fatalf("Decode(MemBytes=%d) = %v, want ErrMemBytes", mem, err)
		}
	}
	// The boundary itself is legal.
	blob := rawEncode(t, &jobs.Job{Name: "max", Program: prog, MemBytes: jobs.MaxMemBytes})
	if _, err := jobs.Decode(blob); err != nil {
		t.Fatalf("Decode(MemBytes=MaxMemBytes) = %v, want ok", err)
	}
	// So is a memory that ends exactly where a data segment does; one
	// byte less and the segment would not load.
	cg, err := workload.ByName("nas-cg")
	if err != nil {
		t.Fatal(err)
	}
	prog = cg.Build(workload.SizeSmall)
	end := int(prog.DataBase) + len(prog.Data)
	if len(prog.Data) == 0 {
		t.Fatal("nas-cg has no data segment")
	}
	if _, err := jobs.Decode(rawEncode(t, &jobs.Job{Name: "fits", Program: prog, MemBytes: end})); err != nil {
		t.Fatalf("Decode(MemBytes=%d, data segment end) = %v, want ok", end, err)
	}
	blob = rawEncode(t, &jobs.Job{Name: "short", Program: prog, MemBytes: end - 1})
	if _, err := jobs.Decode(blob); !errors.Is(err, jobs.ErrMemBytes) {
		t.Fatalf("Decode(MemBytes=%d, one byte short of the data segment) = %v, want ErrMemBytes", end-1, err)
	}
}

// hostileClone is a clone Decode must reject, with the index of the
// instruction at fault.
type hostileClone struct {
	name  string
	index int
	job   *jobs.Job
}

// hostileClones are the clones whose instructions the machine cannot
// execute as encoded: an unregistered opcode, an integer register 200,
// a vector register 77, and a blt whose target index 2^62+1 wraps in
// Program.AddrOf back to instruction 1. Before Decode rejected them,
// the first three panicked the host in RunProduction and the fourth
// looped back into its program and exited 0.
func hostileClones() []hostileClone {
	clone := func(name string, index int, insts ...isa.Inst) hostileClone {
		prog := &isa.Program{Name: name, Base: isa.DefaultCodeBase, Insts: append(insts, isa.Inst{Op: isa.OpHLT})}
		return hostileClone{name, index, &jobs.Job{Name: name, Program: prog, MemBytes: 1 << 20}}
	}
	return []hostileClone{
		clone("bad-opcode", 1, isa.Inst{Op: isa.OpNOP}, isa.Inst{Op: isa.Opcode(isa.NumOpcodes() + 3)}),
		clone("movi-r200", 0, isa.Inst{Op: isa.OpMOVI, Rd: 200, Imm: 1}),
		clone("addsd-x77", 0, isa.Inst{Op: isa.OpADDSD, Rd: 1, Rs1: 77, Rs2: 2}),
		clone("blt-wraps", 2,
			isa.Inst{Op: isa.OpMOVI, Rd: isa.R3, Imm: 5},
			isa.Inst{Op: isa.OpADDI, Rd: isa.R2, Rs1: isa.R2, Imm: 1},
			isa.Inst{Op: isa.OpBLT, Rs1: isa.R2, Rs2: isa.R3, Imm: 1<<62 + 1}),
	}
}

// FuzzJobRoundTrip fuzzes the clone codec boundary: any bytes Decode
// accepts must describe a valid clone that re-encodes and re-decodes to
// the same value and runs (briefly, without the spy) to an outcome
// rather than a host panic, and everything else must fail with an
// error rather than a panic or a poisoned clone.
func FuzzJobRoundTrip(f *testing.F) {
	w, err := workload.ByName("nas-ep")
	if err != nil {
		f.Fatal(err)
	}
	job := jobs.Capture("seed", w.Build(workload.SizeSmall),
		map[string]string{"OMP_NUM_THREADS": "2"}, 4<<20)
	blob, err := job.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(rawEncode(f, &jobs.Job{Name: "hostile", MemBytes: 1 << 62}))
	f.Add([]byte("not a clone"))
	f.Add([]byte{})
	for _, c := range hostileClones() {
		f.Add(rawEncode(f, c.job))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := jobs.Decode(data)
		if err != nil {
			return
		}
		if verr := j.Validate(); verr != nil {
			t.Fatalf("Decode accepted an invalid clone: %v", verr)
		}
		re, err := j.Encode()
		if err != nil {
			t.Fatalf("re-encode of decoded clone failed: %v", err)
		}
		back, err := jobs.Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		// Gob is not byte-stable (map order), so compare values.
		if back.Name != j.Name || back.MemBytes != j.MemBytes {
			t.Fatalf("round trip changed metadata: %+v vs %+v", back, j)
		}
		if !reflect.DeepEqual(back.Program, j.Program) {
			t.Fatal("round trip changed the program image")
		}
		if !reflect.DeepEqual(back.Env, j.Env) && (len(back.Env) != 0 || len(j.Env) != 0) {
			t.Fatalf("round trip changed env: %v vs %v", back.Env, j.Env)
		}
		// A host panic fails the fuzz target; a guest that does not
		// finish within the step bound is an ordinary error.
		_, _ = fpspy.Run(back.Program, fpspy.Options{NoSpy: true, MaxSteps: 10_000, MemBytes: back.MemBytes, Env: back.Env})
	})
}
