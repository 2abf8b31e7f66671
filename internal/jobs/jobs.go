// Package jobs implements the paper's "cloning in production" use-case
// (Figure 1b): at job launch, the scheduler captures the job and its
// parameters as a *submission clone* — a serializable snapshot that can
// be stored and replayed later, offline, under far more aggressive FPSpy
// configurations than production would tolerate. The user's run itself
// proceeds untouched, with zero overhead.
//
// A clone travels as its one canonical encoding (codec.go): Decode
// accepts nothing else, so equal clones are equal bytes, and fpspyd
// takes a submission's content address by hashing those bytes.
package jobs

import (
	"errors"
	"fmt"

	fpspy "repro"
	"repro/internal/isa"
	"repro/internal/obs"
)

// Typed validation errors for clones arriving from untrusted bytes
// (Decode). Both are wrapped, so callers match with errors.Is; an
// instruction the machine cannot execute is an *InstError.
var (
	// ErrNoProgram reports a clone with no program image (or an empty
	// one): replaying it would crash the kernel spawn path.
	ErrNoProgram = errors.New("jobs: clone has no program image")
	// ErrMemBytes reports a clone whose memory request is negative or
	// absurd — beyond MaxMemBytes — or too small to hold its data
	// segment.
	ErrMemBytes = errors.New("jobs: clone memory request out of range")
)

// InstError reports a clone instruction the machine cannot execute as
// encoded: an unregistered opcode, a register field beyond the 16
// entries of the integer and vector register files, or a jmp,
// conditional branch or call whose target index is outside the
// program. The machine trusts all three, so such a clone would panic
// the host or jump to a wrapped address. Match it with errors.As.
type InstError struct {
	// Clone names the clone and Index the instruction.
	Clone string
	Index int
	// Reason says what is wrong with the instruction.
	Reason string
}

func (e *InstError) Error() string {
	return fmt.Sprintf("jobs: clone %q instruction %d: %s", e.Clone, e.Index, e.Reason)
}

// MaxMemBytes bounds the memory request Decode accepts (4 GiB). The
// simulated machine allocates guest memory eagerly, so an absurd
// MemBytes from a hostile encoding must be rejected before it reaches
// RunProduction or Replay.
const MaxMemBytes = 4 << 30

// Job is a submission clone: everything needed to re-run a submission
// bit-identically — the binary (program image) and the environment the
// scheduler would have launched it with.
type Job struct {
	// Name identifies the submission.
	Name string
	// Program is the application binary image.
	Program *isa.Program
	// Env is the launch environment.
	Env map[string]string
	// MemBytes is the requested memory.
	MemBytes int
}

// Capture builds a submission clone at the moment of launch.
func Capture(name string, prog *isa.Program, env map[string]string, memBytes int) *Job {
	dupEnv := make(map[string]string, len(env))
	for k, v := range env {
		dupEnv[k] = v
	}
	return &Job{Name: name, Program: prog, Env: dupEnv, MemBytes: memBytes}
}

// Validate checks the structural invariants a replayable clone must
// hold. Decode applies it to everything it accepts; Capture output is
// valid by construction when given a real program.
func (j *Job) Validate() error {
	if j.Program == nil || len(j.Program.Insts) == 0 {
		return fmt.Errorf("%w (clone %q)", ErrNoProgram, j.Name)
	}
	if j.MemBytes < 0 || j.MemBytes > MaxMemBytes {
		return fmt.Errorf("%w: %d (clone %q)", ErrMemBytes, j.MemBytes, j.Name)
	}
	mem := uint64(j.MemBytes)
	if mem == 0 {
		mem = fpspy.DefaultMemBytes
	}
	p := j.Program
	if n := uint64(len(p.Data)); n > 0 && (p.DataBase > mem || n > mem-p.DataBase) {
		return fmt.Errorf("%w: %d-byte data segment at %#x does not fit %d bytes (clone %q)",
			ErrMemBytes, n, p.DataBase, mem, j.Name)
	}
	for i := range p.Insts {
		if reason := instFault(&p.Insts[i], len(p.Insts)); reason != "" {
			return &InstError{Clone: j.Name, Index: i, Reason: reason}
		}
	}
	return nil
}

// instFault says why the machine cannot execute inst in a program of n
// instructions, or returns "".
func instFault(inst *isa.Inst, n int) string {
	if int(inst.Op) >= isa.NumOpcodes() {
		return fmt.Sprintf("unregistered opcode %d", inst.Op)
	}
	for _, r := range [...]uint8{inst.Rd, inst.Rs1, inst.Rs2, inst.Rs3} {
		if r >= isa.NumIntRegs || r >= isa.NumVecRegs {
			return fmt.Sprintf("%v: register %d out of range", inst.Op, r)
		}
	}
	if inst.Op.Info().Class == isa.ClassBranch && inst.Op != isa.OpRET && (inst.Imm < 0 || inst.Imm >= int64(n)) {
		return fmt.Sprintf("%v: target %d outside the program's %d instructions", inst.Op, inst.Imm, n)
	}
	return ""
}

// RunProduction executes the job exactly as submitted: no FPSpy, no
// overhead — "from the user's perspective, nothing would have changed".
func (j *Job) RunProduction() (*fpspy.Result, error) {
	return fpspy.Run(j.Program, fpspy.Options{
		NoSpy:    true,
		MemBytes: j.MemBytes,
		Env:      j.Env,
	})
}

// Replay executes the clone offline under an arbitrary FPSpy
// configuration — typically aggressive individual-mode tracing that
// production could never afford.
func (j *Job) Replay(cfg fpspy.Config) (*fpspy.Result, error) {
	return j.ReplayObs(cfg, nil)
}

// ReplayObs is Replay with an observability registry threaded through
// the run — the fpspyd daemon uses it so offline passes feed the same
// /metrics surface as the serving path. A nil registry is Replay.
func (j *Job) ReplayObs(cfg fpspy.Config, m *obs.Metrics) (*fpspy.Result, error) {
	return fpspy.Run(j.Program, fpspy.Options{
		Config:   cfg,
		MemBytes: j.MemBytes,
		Env:      j.Env,
		Obs:      m,
	})
}
