package jobs_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"runtime"
	"sort"
	"testing"

	fpspy "repro"
	"repro/internal/isa"
	"repro/internal/jobs"
	"repro/internal/server"
	"repro/internal/workload"
)

// rawEncode writes j in the clone encoding without going through
// Encode: a second writer of the documented format, which Encode must
// match byte for byte, and which skips every check, so tests can forge
// the clones Decode must reject. env, when given, replaces j.Env and is
// written in the order given; otherwise j.Env is written sorted.
func rawEncode(j *jobs.Job, env ...[2]string) []byte {
	if env == nil {
		keys := make([]string, 0, len(j.Env))
		for k := range j.Env {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			env = append(env, [2]string{k, j.Env[k]})
		}
	}
	p := j.Program
	if p == nil {
		p = &isa.Program{}
	}
	b := []byte("FPJ\x01")
	uv := func(v uint64) { b = binary.AppendUvarint(b, v) }
	str := func(s string) { uv(uint64(len(s))); b = append(b, s...) }
	str(j.Name)
	str(p.Name)
	uv(p.Base)
	uv(p.DataBase)
	uv(uint64(len(p.Insts)))
	for _, in := range p.Insts {
		uv(uint64(in.Op))
		b = append(b, in.Rd, in.Rs1, in.Rs2, in.Rs3)
		b = binary.AppendVarint(b, in.Imm)
		str(in.Sym)
	}
	str(string(p.Data))
	uv(uint64(len(env)))
	for _, kv := range env {
		str(kv[0])
		str(kv[1])
	}
	return binary.AppendVarint(b, int64(j.MemBytes))
}

func TestDecodeRejectsNilProgram(t *testing.T) {
	nilProg := &jobs.Job{Name: "hostile", MemBytes: 1 << 20}
	if _, err := jobs.Decode(rawEncode(nilProg)); !errors.Is(err, jobs.ErrNoProgram) {
		t.Fatalf("Decode(nil program) = %v, want ErrNoProgram", err)
	}
	// Encode writes a nil program as an empty one, which is no program
	// either.
	blob, err := nilProg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jobs.Decode(blob); !errors.Is(err, jobs.ErrNoProgram) {
		t.Fatalf("Decode(Encode(nil program)) = %v, want ErrNoProgram", err)
	}
	empty := rawEncode(&jobs.Job{Name: "empty", Program: &isa.Program{Name: "empty"}})
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
	for _, mem := range []int{-1, jobs.MaxMemBytes + 1, -1 << 63} {
		blob := rawEncode(&jobs.Job{Name: "hog", Program: prog, MemBytes: mem})
		if _, err := jobs.Decode(blob); !errors.Is(err, jobs.ErrMemBytes) {
			t.Fatalf("Decode(MemBytes=%d) = %v, want ErrMemBytes", mem, err)
		}
	}
	// The boundary itself is legal.
	blob := rawEncode(&jobs.Job{Name: "max", Program: prog, MemBytes: jobs.MaxMemBytes})
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
	if _, err := jobs.Decode(rawEncode(&jobs.Job{Name: "fits", Program: prog, MemBytes: end})); err != nil {
		t.Fatalf("Decode(MemBytes=%d, data segment end) = %v, want ok", end, err)
	}
	blob = rawEncode(&jobs.Job{Name: "short", Program: prog, MemBytes: end - 1})
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

// seedClone is the captured clone the codec tests and the fuzzer start
// from.
func seedClone(t testing.TB) *jobs.Job {
	t.Helper()
	w, err := workload.ByName("nas-ep")
	if err != nil {
		t.Fatal(err)
	}
	return jobs.Capture("seed", w.Build(workload.SizeSmall),
		map[string]string{"OMP_NUM_THREADS": "2", "A": "1"}, 4<<20)
}

// malformed forges, from a real clone's encoding, each kind of input
// that is not the encoding of any clone: non-canonical variants of a
// valid clone, counts no input could back, and the codec's previous
// format, a gob of the Job.
func malformed(t testing.TB) map[string][]byte {
	t.Helper()
	j := seedClone(t)
	blob := rawEncode(j)
	body, err := jobs.Body(blob)
	if err != nil {
		t.Fatal(err)
	}
	at := len(blob) - len(body) // Base, the body's first varint
	_, n := binary.Uvarint(body)
	nonMinimal := append([]byte(nil), blob[:at+n]...)
	nonMinimal[at+n-1] |= 0x80
	nonMinimal = append(append(nonMinimal, 0), body[n:]...)

	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	hdr := blob[:at]
	var gobBlob bytes.Buffer
	if err := gob.NewEncoder(&gobBlob).Encode(j); err != nil {
		t.Fatal(err)
	}
	// A one-instruction program, as bytes: Base, DataBase, the count,
	// then one instruction with the given Op, no data, no env and 1 MiB.
	oneInst := func(op uint64) []byte {
		return cat(hdr, uv(isa.DefaultCodeBase), uv(0), uv(1), uv(op), make([]byte, 6), uv(0), uv(0), uv(2<<20))
	}
	if _, err := jobs.Decode(oneInst(uint64(isa.OpHLT))); err != nil {
		t.Fatalf("the one-instruction template does not decode: %v", err)
	}
	return map[string][]byte{
		"unsorted env keys":                rawEncode(j, [2]string{"OMP_NUM_THREADS", "2"}, [2]string{"A", "1"}),
		"duplicate env keys":               rawEncode(j, [2]string{"A", "1"}, [2]string{"A", "1"}),
		"overlong varint":                  cat(hdr, bytes.Repeat([]byte{0xff}, 10), []byte{1}, body[n:]),
		"non-minimal varint":               nonMinimal,
		"trailing byte":                    append(append([]byte(nil), blob...), 0),
		"opcode beyond 16 bits":            oneInst(1<<16 | uint64(isa.OpHLT)),
		"name count beyond the bytes left": cat([]byte("FPJ\x01"), uv(1<<62), []byte("seed")),
		"inst count beyond the bytes left": cat(hdr, uv(0), uv(0), uv(1<<40), make([]byte, 64)),
		"data count beyond the bytes left": cat(hdr, uv(0), uv(0), uv(0), uv(1<<50), make([]byte, 64)),
		"env count beyond the bytes left":  cat(hdr, uv(0), uv(0), uv(0), uv(0), uv(1<<61), make([]byte, 64)),
		"gob blob of the previous codec":   gobBlob.Bytes(),
	}
}

// decodeAlloc decodes data and reports the bytes the process allocated
// meanwhile and the error.
func decodeAlloc(data []byte) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := jobs.Decode(data)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// TestDecodeRejectsNonCanonical: every truncation of a real clone and
// every forged variant fails with ErrFormat, without a panic and
// without an allocation a count in the input asked for but the bytes
// left could not back.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	const large = 1 << 20
	blob := rawEncode(seedClone(t))
	for i := 0; i < len(blob); i++ {
		alloc, err := decodeAlloc(blob[:i])
		if !errors.Is(err, jobs.ErrFormat) || alloc > large {
			t.Fatalf("truncation to %d of %d bytes: Decode = %v after %d bytes allocated, want ErrFormat", i, len(blob), err, alloc)
		}
	}
	for name, data := range malformed(t) {
		alloc, err := decodeAlloc(data)
		if !errors.Is(err, jobs.ErrFormat) || alloc > large {
			t.Errorf("%s: Decode = %v after %d bytes allocated, want ErrFormat", name, err, alloc)
		}
	}
}

// FuzzJobRoundTrip fuzzes the clone codec boundary: any bytes Decode
// accepts must describe a valid clone, re-encode to exactly the same
// bytes (so hashing them is hashing the clone) with the content
// address the daemon takes from them equal to CacheKey of the decoded
// clone, and run (briefly, without the spy) to an outcome rather than
// a host panic. Everything else must fail with an error rather than a
// panic or a poisoned clone.
func FuzzJobRoundTrip(f *testing.F) {
	blob, err := seedClone(f).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(rawEncode(&jobs.Job{Name: "hostile", MemBytes: 1 << 62}))
	f.Add([]byte("not a clone"))
	f.Add([]byte{})
	for _, c := range hostileClones() {
		f.Add(rawEncode(c.job))
	}
	for _, data := range malformed(f) {
		f.Add(data)
	}

	cfg := fpspy.Config{Mode: fpspy.ModeIndividual}
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
		if !bytes.Equal(re, data) {
			t.Fatalf("Decode accepted a second encoding of a clone:\n got %x\nwant %x", data, re)
		}
		if key, err := server.BlobKey(data, cfg); err != nil || key != server.CacheKey(j, cfg) {
			t.Fatalf("BlobKey = %s, %v; CacheKey of the decoded clone = %s", key, err, server.CacheKey(j, cfg))
		}
		// A host panic fails the fuzz target; a guest that does not
		// finish within the step bound is an ordinary error.
		_, _ = fpspy.Run(j.Program, fpspy.Options{NoSpy: true, MaxSteps: 10_000, MemBytes: j.MemBytes, Env: j.Env})
	})
}
