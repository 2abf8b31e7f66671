package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"sort"

	fpspy "repro"
	"repro/internal/isa"
	"repro/internal/jobs"
)

// CacheKey is the content address of a submission: a SHA-256 over a
// canonical rendering of the program image, the launch environment, the
// memory request, and the FPSpy configuration. Submission and program
// names are deliberately excluded — two clients submitting the same
// binary under different job names must collide, which is what makes
// the result cache work across tenants. The gob wire encoding is NOT
// hashed (gob serializes maps in nondeterministic order); the rendering
// here is field-by-field and stable.
func CacheKey(j *jobs.Job, cfg fpspy.Config) string {
	h := sha256.New()
	hashProgram(h, j.Program)

	names := make([]string, 0, len(j.Env))
	for k := range j.Env {
		names = append(names, k)
	}
	sort.Strings(names)
	hashU64(h, uint64(len(names)))
	for _, k := range names {
		hashStr(h, k)
		hashStr(h, j.Env[k])
	}

	hashU64(h, uint64(j.MemBytes))
	hashConfig(h, cfg)
	return hex.EncodeToString(h.Sum(nil))
}

func hashU64(w io.Writer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:]) //nolint:errcheck // hash.Hash never errors
}

func hashStr(w io.Writer, s string) {
	hashU64(w, uint64(len(s)))
	io.WriteString(w, s) //nolint:errcheck // hash.Hash never errors
}

func hashBool(w io.Writer, b bool) {
	var v uint64
	if b {
		v = 1
	}
	hashU64(w, v)
}

// hashProgram renders the executable content: text, load addresses, and
// the initialized data image. Each field is length-delimited so distinct
// programs cannot collide by token concatenation.
func hashProgram(w io.Writer, p *isa.Program) {
	hashU64(w, p.Base)
	hashU64(w, p.DataBase)
	hashU64(w, uint64(len(p.Insts)))
	for i := range p.Insts {
		in := &p.Insts[i]
		hashU64(w, uint64(in.Op))
		hashU64(w, uint64(in.Rd))
		hashU64(w, uint64(in.Rs1))
		hashU64(w, uint64(in.Rs2))
		hashU64(w, uint64(in.Rs3))
		hashU64(w, uint64(in.Imm))
		hashStr(w, in.Sym)
	}
	hashU64(w, uint64(len(p.Data)))
	w.Write(p.Data) //nolint:errcheck // hash.Hash never errors
}

// hashConfig renders every Config field in declaration order. A new
// Config field that affects execution must be added here; the key test
// pins the current field set so the omission is caught.
func hashConfig(w io.Writer, c fpspy.Config) {
	hashU64(w, uint64(c.Mode))
	hashBool(w, c.Disable)
	hashBool(w, c.Aggressive)
	hashU64(w, uint64(c.ExceptList))
	hashU64(w, c.MaxCount)
	hashU64(w, c.SampleEvery)
	hashU64(w, c.SampleOnUS)
	hashU64(w, c.SampleOffUS)
	hashBool(w, c.Poisson)
	hashBool(w, c.VirtualTimer)
	hashBool(w, c.Breakpoints)
	hashU64(w, c.StormFaults)
	hashU64(w, c.StormCycles)
	// ShadowPrec is keyed — it changes the outcome (attribution report),
	// and distinct precisions are distinct results.
	hashU64(w, c.ShadowPrec)
}
