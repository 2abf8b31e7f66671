package absint

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"sync"

	"repro/internal/binscan"
	"repro/internal/isa"
	"repro/internal/mxcsr"
	"repro/internal/softfloat"
	"repro/internal/trace"
)

// state is the abstract machine state at one program point: one Val per
// 64-bit vector lane, one IntVal per integer register, and whether the
// initial memory image (data segment plus zero fill) is still valid for
// loads. valid distinguishes bottom (unreached) from real states.
type state struct {
	valid bool
	mem   bool
	vec   [isa.NumVecRegs][isa.VecWords]Val
	ints  [isa.NumIntRegs]IntVal
}

func havocState() state {
	var st state
	st.valid = true
	for r := range st.vec {
		for l := range st.vec[r] {
			st.vec[r][l] = valTop64()
		}
	}
	for r := range st.ints {
		st.ints[r] = intTop()
	}
	return st
}

// entryState models machine.New plus kernel process setup: vector
// registers are zeroed, integer registers are unknown (the kernel seeds
// the stack pointer and argument registers), and the initial memory
// image is valid unless an address-taken root exists (a signal handler
// or second thread can rewrite memory between any two instructions;
// sigreturn restores registers, not memory).
func entryState(memValid bool) state {
	st := havocState()
	zero := valFromPatterns64([]uint64{0})
	for r := range st.vec {
		for l := range st.vec[r] {
			st.vec[r][l] = zero
		}
	}
	st.mem = memValid
	return st
}

func joinState(a, b state, wide bool) state {
	if !a.valid {
		if wide {
			return widenState(b)
		}
		return b
	}
	if !b.valid {
		if wide {
			return widenState(a)
		}
		return a
	}
	out := state{valid: true, mem: a.mem && b.mem}
	for r := range out.vec {
		for l := range out.vec[r] {
			out.vec[r][l] = joinVal(a.vec[r][l], b.vec[r][l], wide)
		}
	}
	for r := range out.ints {
		out.ints[r] = joinInt(a.ints[r], b.ints[r], wide)
	}
	return out
}

func widenState(a state) state {
	return joinState(a, a, true)
}

func stateEqual(a, b state) bool {
	if a.valid != b.valid || a.mem != b.mem {
		return false
	}
	for r := range a.vec {
		for l := range a.vec[r] {
			if !valEqual(a.vec[r][l], b.vec[r][l]) {
				return false
			}
		}
	}
	for r := range a.ints {
		if !intEqual(a.ints[r], b.ints[r]) {
			return false
		}
	}
	return true
}

// Verdict classifies one exception class at one site.
type Verdict uint8

const (
	// NeverTrap means the class is impossible on every execution.
	NeverTrap Verdict = iota
	// MayTrap means the class is possible on some execution.
	MayTrap
	// MustTrap means the class fires on every execution reaching the site.
	MustTrap
)

func (v Verdict) String() string {
	switch v {
	case NeverTrap:
		return "never"
	case MayTrap:
		return "may"
	default:
		return "must"
	}
}

// SiteVerdict is the static classification of one floating point site.
type SiteVerdict struct {
	// Index is the instruction index, Addr its address.
	Index int
	Addr  uint64
	// Op is the instruction form.
	Op isa.Opcode
	// Reachable marks sites the abstract interpretation can reach (it
	// refines binscan reachability by pruning branches over concrete
	// integer sets; an unreachable site trivially never traps).
	Reachable bool
	// May is the union of conditions possible at the site; Must the
	// intersection of conditions raised on every execution reaching it.
	May, Must softfloat.Flags
	// Prunable marks sites a monitor could skip in individual mode: no
	// condition is ever raised, the form is plain unmasked arithmetic,
	// and the program never rewrites the MXCSR control fields (so native
	// round-to-nearest arithmetic is bit-identical to the softfloat
	// path). The spy does not act on it; fpscan reports it.
	Prunable bool
}

// VerdictFor classifies one exception class (pass a single flag bit).
func (s *SiteVerdict) VerdictFor(class softfloat.Flags) Verdict {
	switch {
	case s.Must&class != 0:
		return MustTrap
	case s.May&class != 0:
		return MayTrap
	default:
		return NeverTrap
	}
}

// Result is the full analysis of one program.
type Result struct {
	// Prog is the analyzed program, CFG its recovered control flow graph.
	Prog *isa.Program
	CFG  *binscan.CFG
	// Sites lists verdicts for every floating point site in address
	// order (the same inventory binscan.ScanProgram discovers).
	Sites []SiteVerdict
	// EnvVaries reports that a reachable ldmxcsr forced the analysis to
	// consider every rounding-mode/FTZ/DAZ combination — which also
	// makes no site prunable, since exact results can differ across
	// rounding modes (x + -x is -0 under round-down) without raising any
	// flag.
	EnvVaries bool

	siteAt map[uint64]int
}

// SiteAt returns the verdict at a code address, or nil when the address
// is not a floating point site.
func (r *Result) SiteAt(addr uint64) *SiteVerdict {
	if i, ok := r.siteAt[addr]; ok {
		return &r.Sites[i]
	}
	return nil
}

// PrunableCount counts sites a monitor could skip.
func (r *Result) PrunableCount() int {
	n := 0
	for i := range r.Sites {
		if r.Sites[i].Prunable {
			n++
		}
	}
	return n
}

// Class pairs an exception class name (the FPE_EXCEPT_LIST spelling)
// with its condition flag, for consumers enumerating per-class verdicts.
type Class struct {
	Name string
	Flag softfloat.Flags
}

// Classes lists the six exception classes in x64 priority order.
var Classes = []Class{
	{"invalid", softfloat.FlagInvalid},
	{"denorm", softfloat.FlagDenormal},
	{"divide", softfloat.FlagDivideByZero},
	{"overflow", softfloat.FlagOverflow},
	{"underflow", softfloat.FlagUnderflow},
	{"inexact", softfloat.FlagInexact},
}

// Violation is one soundness failure: a dynamic trace record raised a
// condition the static analysis proved impossible at that address.
type Violation struct {
	// Addr is the trap address.
	Addr uint64
	// Raised is the observed condition set; Excess the subset the
	// analysis classified never-trap (zero when the site is missing from
	// the inventory entirely).
	Raised, Excess softfloat.Flags
	// Reason describes the failure.
	Reason string
}

func (v Violation) String() string {
	return fmt.Sprintf("rip=%#x raised=%v excess=%v: %s", v.Addr, v.Raised, v.Excess, v.Reason)
}

// CheckSoundness replays dynamic trace records against the static
// verdicts. It returns one violation per distinct (address, excess)
// pair; an empty slice means every observed condition was statically
// classified possible.
func CheckSoundness(r *Result, recs []trace.Record) []Violation {
	var out []Violation
	seen := make(map[uint64]softfloat.Flags)
	for i := range recs {
		rec := &recs[i]
		if rec.Raised == 0 {
			continue
		}
		if done, ok := seen[rec.Rip]; ok && done&rec.Raised == rec.Raised {
			continue
		}
		seen[rec.Rip] |= rec.Raised
		site := r.SiteAt(rec.Rip)
		switch {
		case site == nil:
			out = append(out, Violation{Addr: rec.Rip, Raised: rec.Raised,
				Reason: "trap at address missing from the site inventory"})
		case !site.Reachable:
			out = append(out, Violation{Addr: rec.Rip, Raised: rec.Raised,
				Reason: "trap at site classified unreachable"})
		case rec.Raised&^site.May != 0:
			out = append(out, Violation{Addr: rec.Rip, Raised: rec.Raised,
				Excess: rec.Raised &^ site.May,
				Reason: "condition classified never-trap was raised"})
		}
	}
	return out
}

// analyzer runs the fixpoint.
type analyzer struct {
	prog   *isa.Program
	cfg    *binscan.CFG
	envs   []softfloat.Env
	in     []state
	joins  []int
	work   []int
	queued []bool
}

// allEnvs enumerates every RC/FTZ/DAZ combination a guest ldmxcsr can
// install.
func allEnvs() []softfloat.Env {
	rms := []softfloat.RoundingMode{
		softfloat.RoundNearestEven, softfloat.RoundDown,
		softfloat.RoundUp, softfloat.RoundToZero,
	}
	var out []softfloat.Env
	for _, rm := range rms {
		for _, ftz := range []bool{false, true} {
			for _, daz := range []bool{false, true} {
				out = append(out, softfloat.Env{RM: rm, FTZ: ftz, DAZ: daz})
			}
		}
	}
	return out
}

// envSetFor picks the environment set: the power-on default unless a
// reachable ldmxcsr can install arbitrary control fields. (The spy and
// kernel only touch exception masks and sticky flags, which do not
// change arithmetic; guest ldmxcsr is the only channel to RC/FTZ/DAZ.)
func envSetFor(cfg *binscan.CFG) []softfloat.Env {
	for bi := range cfg.Blocks {
		b := &cfg.Blocks[bi]
		if !b.Reachable {
			continue
		}
		for i := b.Start; i < b.End; i++ {
			if cfg.Prog.Insts[i].Op == isa.OpLDMXCSR {
				return allEnvs()
			}
		}
	}
	return []softfloat.Env{mxcsr.Default.Env()}
}

// Analysis cache: programs are immutable once built, and fpscan, the
// soundness validator, and the benchmarks analyze equivalent programs
// many times. The key is a content hash rather than the *Program pointer
// because workload builders return a fresh (but byte-identical) program
// per pass: the study schedules ~3 passes per workload, and pointer
// keying would re-run the whole analysis for each. Hashing is linear in
// program size and orders of magnitude cheaper than analyzing. The
// cache is bounded by wholesale reset.
var (
	cacheMu sync.Mutex
	cache   = make(map[progKey]*Result)
)

const cacheLimit = 64

// progKey identifies a program by content. Name and lengths ride along
// to make accidental hash collisions across different programs even
// less likely than the 64-bit hash alone.
type progKey struct {
	name  string
	insts int
	data  int
	hash  uint64
}

func keyOf(p *isa.Program) progKey {
	h := fnv.New64a()
	var buf [8 * 3]byte
	for i := range p.Insts {
		in := &p.Insts[i]
		binary.LittleEndian.PutUint64(buf[0:], uint64(in.Op)<<32|
			uint64(in.Rd)<<24|uint64(in.Rs1)<<16|uint64(in.Rs2)<<8|uint64(in.Rs3))
		binary.LittleEndian.PutUint64(buf[8:], uint64(in.Imm))
		binary.LittleEndian.PutUint64(buf[16:], uint64(len(in.Sym)))
		h.Write(buf[:])
		if in.Sym != "" {
			io.WriteString(h, in.Sym)
		}
	}
	binary.LittleEndian.PutUint64(buf[0:], p.Base)
	binary.LittleEndian.PutUint64(buf[8:], p.DataBase)
	h.Write(buf[:16])
	h.Write(p.Data)
	return progKey{name: p.Name, insts: len(p.Insts), data: len(p.Data), hash: h.Sum64()}
}

// Analyze runs the abstract interpretation, memoized by program content.
func Analyze(p *isa.Program) *Result {
	key := keyOf(p)
	cacheMu.Lock()
	if r, ok := cache[key]; ok {
		cacheMu.Unlock()
		return r
	}
	cacheMu.Unlock()
	r := analyzeProgram(p)
	cacheMu.Lock()
	if len(cache) >= cacheLimit {
		cache = make(map[progKey]*Result)
	}
	cache[key] = r
	cacheMu.Unlock()
	return r
}

func analyzeProgram(p *isa.Program) *Result {
	cfg := binscan.BuildCFG(p)
	an := &analyzer{
		prog:   p,
		cfg:    cfg,
		envs:   envSetFor(cfg),
		in:     make([]state, len(cfg.Blocks)),
		joins:  make([]int, len(cfg.Blocks)),
		queued: make([]bool, len(cfg.Blocks)),
	}

	anyRoot := false
	for bi := range cfg.Blocks {
		if cfg.Blocks[bi].AddressTaken {
			anyRoot = true
		}
	}
	if len(cfg.Blocks) > 0 {
		an.flowTo(0, entryState(!anyRoot))
	}
	for bi := range cfg.Blocks {
		if cfg.Blocks[bi].AddressTaken {
			an.flowTo(bi, havocState())
		}
	}

	for len(an.work) > 0 {
		bi := an.work[len(an.work)-1]
		an.work = an.work[:len(an.work)-1]
		an.queued[bi] = false
		an.transferBlock(bi, nil)
	}

	res := &Result{Prog: p, CFG: cfg, EnvVaries: len(an.envs) > 1, siteAt: make(map[uint64]int)}
	verdicts := make(map[int]*SiteVerdict)
	record := func(idx int, may, must softfloat.Flags) {
		v := verdicts[idx]
		if v == nil {
			verdicts[idx] = &SiteVerdict{Index: idx, Reachable: true, May: may, Must: must}
			return
		}
		v.May |= may
		v.Must &= must
	}
	for bi := range cfg.Blocks {
		if an.in[bi].valid {
			an.transferBlock(bi, record)
		}
	}
	for i := range p.Insts {
		if !binscan.RaisesFP(p.Insts[i].Op) {
			continue
		}
		sv := SiteVerdict{Index: i, Addr: p.AddrOf(i), Op: p.Insts[i].Op}
		if v := verdicts[i]; v != nil {
			sv.Reachable = true
			sv.May = v.May
			sv.Must = v.Must
		}
		// Masked forms are excluded: skipping them would also need a
		// native merge-masking path.
		sv.Prunable = sv.May == 0 && !res.EnvVaries &&
			sv.Op.Info().Class == isa.ClassFPArith && !sv.Op.Info().Masked
		res.siteAt[sv.Addr] = len(res.Sites)
		res.Sites = append(res.Sites, sv)
	}
	return res
}

// flowTo joins a state into a block's entry, widening after the join
// budget, and queues the block when its entry changed.
func (an *analyzer) flowTo(bi int, st state) {
	if !st.valid {
		return
	}
	an.joins[bi]++
	wide := an.joins[bi] > widenAfter
	merged := joinState(an.in[bi], st, wide)
	if stateEqual(merged, an.in[bi]) {
		return
	}
	an.in[bi] = merged
	if !an.queued[bi] {
		an.queued[bi] = true
		an.work = append(an.work, bi)
	}
}

// readInt reads an integer register abstraction (R0 is hardwired zero).
func readInt(st *state, r uint8) IntVal {
	if r == 0 {
		return intConst(0)
	}
	return st.ints[r]
}

func writeInt(st *state, r uint8, v IntVal) {
	if r != 0 {
		st.ints[r] = v
	}
}

// transferBlock interprets one block from its fixed entry state. During
// the fixpoint record is nil; the final evaluation pass passes a
// callback that collects per-site flag verdicts.
func (an *analyzer) transferBlock(bi int, record func(idx int, may, must softfloat.Flags)) {
	b := &an.cfg.Blocks[bi]
	st := an.in[bi]
	fixpoint := record == nil
	for i := b.Start; i < b.End; i++ {
		inst := &an.prog.Insts[i]
		info := inst.Op.Info()
		switch info.Class {
		case isa.ClassSys:
			switch inst.Op {
			case isa.OpHLT:
				return // no successor flow
			case isa.OpCALLC:
				if noReturnSym(inst.Sym) {
					return
				}
				// The callee may rewrite every register and all of memory.
				st = havocState()
			}

		case isa.ClassInt:
			an.execIntAbs(&st, inst)

		case isa.ClassBranch:
			switch inst.Op {
			case isa.OpRET:
				return // indirect; covered by the caller's fall-through edge
			case isa.OpJMP:
				if fixpoint {
					an.flowToInst(int(inst.Imm), st)
				}
				return
			case isa.OpCALL:
				// The push overwrites stack memory; the callee runs with the
				// call-site state, but whatever returns to the fall-through
				// (via ret) is unknown.
				st.mem = false
				if fixpoint {
					an.flowToInst(int(inst.Imm), st)
					an.flowToInst(i+1, havocState())
				}
				return
			default:
				canTake, canFall := condOutcomes(inst.Op, readInt(&st, inst.Rs1), readInt(&st, inst.Rs2))
				if fixpoint {
					if canTake {
						an.flowToInst(int(inst.Imm), st)
					}
					if canFall {
						an.flowToInst(i+1, st)
					}
				}
				return
			}

		case isa.ClassMem:
			an.execMemAbs(&st, inst)

		case isa.ClassFPMove:
			an.execMoveAbs(&st, inst)

		case isa.ClassMask:
			// Mask registers are not tracked; kmovrq makes its integer
			// destination unknown, kmovq has no tracked effect.
			if inst.Op == isa.OpKMOVRQ {
				writeInt(&st, inst.Rd, intTop())
			}

		default:
			may, must := an.execFPAbs(&st, inst, info)
			if record != nil {
				record(i, may, must)
			}
		}
	}
	if fixpoint {
		an.flowToInst(b.End, st)
	}
}

func (an *analyzer) flowToInst(idx int, st state) {
	if idx < 0 || idx >= len(an.prog.Insts) {
		return // falls off the text or faults; no successor
	}
	an.flowTo(an.cfg.BlockOf(idx), st)
}

// noReturnSym mirrors binscan's no-return modeling (binscan ends blocks
// at these call sites, so a mid-block callc here is always returning —
// the check is defensive).
func noReturnSym(sym string) bool {
	switch sym {
	case "exit", "pthread_exit", "rt_sigreturn":
		return true
	}
	return false
}

// execIntAbs interprets one integer ALU instruction over value sets.
func (an *analyzer) execIntAbs(st *state, inst *isa.Inst) {
	a := readInt(st, inst.Rs1)
	b := readInt(st, inst.Rs2)
	var v IntVal
	switch inst.Op {
	case isa.OpMOVI:
		v = intConst(uint64(inst.Imm))
	case isa.OpMOV:
		v = a
	case isa.OpADD:
		v = intBin(a, b, func(x, y uint64) uint64 { return x + y })
	case isa.OpADDI:
		v = intBin(a, intConst(uint64(inst.Imm)), func(x, y uint64) uint64 { return x + y })
	case isa.OpSUB:
		v = intBin(a, b, func(x, y uint64) uint64 { return x - y })
	case isa.OpMULQ:
		v = intBin(a, b, func(x, y uint64) uint64 { return uint64(int64(x) * int64(y)) })
	case isa.OpDIVQ, isa.OpREMQ:
		rem := inst.Op == isa.OpREMQ
		v = intBinPartial(a, b, func(x, y uint64) (uint64, bool) {
			if y == 0 {
				return 0, false // faults; that path has no successor state
			}
			if rem {
				return uint64(int64(x) % int64(y)), true
			}
			return uint64(int64(x) / int64(y)), true
		})
	case isa.OpAND:
		v = intBin(a, b, func(x, y uint64) uint64 { return x & y })
	case isa.OpOR:
		v = intBin(a, b, func(x, y uint64) uint64 { return x | y })
	case isa.OpXOR:
		v = intBin(a, b, func(x, y uint64) uint64 { return x ^ y })
	case isa.OpSHLI:
		v = intBin(a, intConst(uint64(inst.Imm)), func(x, y uint64) uint64 { return x << uint(y) })
	case isa.OpSHRI:
		v = intBin(a, intConst(uint64(inst.Imm)), func(x, y uint64) uint64 { return x >> uint(y) })
	default:
		v = intTop()
	}
	writeInt(st, inst.Rd, v)
}

func intBin(a, b IntVal, f func(x, y uint64) uint64) IntVal {
	return intBinPartial(a, b, func(x, y uint64) (uint64, bool) { return f(x, y), true })
}

func intBinPartial(a, b IntVal, f func(x, y uint64) (uint64, bool)) IntVal {
	if a.top || b.top {
		return intTop()
	}
	var out []uint64
	for _, x := range a.set {
		for _, y := range b.set {
			if z, ok := f(x, y); ok {
				out = append(out, z)
			}
		}
	}
	if len(out) == 0 {
		return intTop() // every combination faults; successors are dead anyway
	}
	return intFromSet(out)
}

// condOutcomes evaluates a conditional branch over concrete sets,
// pruning statically impossible edges.
func condOutcomes(op isa.Opcode, a, b IntVal) (canTake, canFall bool) {
	if a.top || b.top {
		return true, true
	}
	for _, x := range a.set {
		for _, y := range b.set {
			sa, sb := int64(x), int64(y)
			var taken bool
			switch op {
			case isa.OpBEQ:
				taken = sa == sb
			case isa.OpBNE:
				taken = sa != sb
			case isa.OpBLT:
				taken = sa < sb
			case isa.OpBGE:
				taken = sa >= sb
			case isa.OpBLE:
				taken = sa <= sb
			case isa.OpBGT:
				taken = sa > sb
			default:
				return true, true
			}
			if taken {
				canTake = true
			} else {
				canFall = true
			}
			if canTake && canFall {
				return true, true
			}
		}
	}
	return canTake, canFall
}

// initialByte reads the initial memory image: the data segment where
// loaded, zero elsewhere. Out-of-bounds loads fault dynamically (no
// successor state), so reading zero for them is vacuously sound.
func (an *analyzer) initialByte(addr uint64) byte {
	p := an.prog
	if addr >= p.DataBase && addr-p.DataBase < uint64(len(p.Data)) {
		return p.Data[addr-p.DataBase]
	}
	return 0
}

func (an *analyzer) initialLoad(addr uint64, n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v |= uint64(an.initialByte(addr+uint64(i))) << (8 * uint(i))
	}
	return v
}

// loadAddrs resolves a load's effective addresses, or nil when unknown
// or when the initial image is no longer valid.
func (an *analyzer) loadAddrs(st *state, inst *isa.Inst) []uint64 {
	if !st.mem {
		return nil
	}
	base := readInt(st, inst.Rs1)
	if base.top {
		return nil
	}
	out := make([]uint64, 0, len(base.set))
	for _, b := range base.set {
		out = append(out, b+uint64(inst.Imm))
	}
	return out
}

// fldsUnknown is the 64-bit view of "movss load of an unknown 32-bit
// pattern": the upper 32 bits are zeroed, so as a binary64 the lane is
// +0 or a positive denormal.
func fldsUnknown() Val {
	return valAbs(bPZero|bPDen, 0, maxU32AsF64)
}

var maxU32AsF64 = f64FromBits(0xFFFFFFFF)

func f64FromBits(p uint64) float64 {
	v := valFromPatterns64([]uint64{p})
	return v.lo
}

// execMemAbs interprets loads and stores against the initial image.
func (an *analyzer) execMemAbs(st *state, inst *isa.Inst) {
	switch inst.Op {
	case isa.OpLD:
		if addrs := an.loadAddrs(st, inst); addrs != nil {
			vs := make([]uint64, len(addrs))
			for i, a := range addrs {
				vs[i] = an.initialLoad(a, 8)
			}
			writeInt(st, inst.Rd, intFromSet(vs))
		} else {
			writeInt(st, inst.Rd, intTop())
		}
	case isa.OpFLD:
		if addrs := an.loadAddrs(st, inst); addrs != nil {
			vs := make([]uint64, len(addrs))
			for i, a := range addrs {
				vs[i] = an.initialLoad(a, 8)
			}
			st.vec[inst.Rd][0] = valFromPatterns64(vs)
		} else {
			st.vec[inst.Rd][0] = valTop64()
		}
	case isa.OpFLDS:
		// movss load semantics: the full 64-bit lane is replaced by the
		// zero-extended 32-bit value.
		if addrs := an.loadAddrs(st, inst); addrs != nil {
			vs := make([]uint64, len(addrs))
			for i, a := range addrs {
				vs[i] = an.initialLoad(a, 4)
			}
			st.vec[inst.Rd][0] = valFromPatterns64(vs)
		} else {
			st.vec[inst.Rd][0] = fldsUnknown()
		}
	case isa.OpFLDV, isa.OpFLDVZ:
		words := 4
		if inst.Op == isa.OpFLDVZ {
			words = isa.VecWords
		}
		addrs := an.loadAddrs(st, inst)
		for l := 0; l < words; l++ {
			if addrs != nil {
				vs := make([]uint64, len(addrs))
				for i, a := range addrs {
					vs[i] = an.initialLoad(a+uint64(l)*8, 8)
				}
				st.vec[inst.Rd][l] = valFromPatterns64(vs)
			} else {
				st.vec[inst.Rd][l] = valTop64()
			}
		}
	case isa.OpST, isa.OpFST, isa.OpFSTS, isa.OpFSTV, isa.OpFSTVZ, isa.OpSTMXCSR:
		// Any store invalidates the initial image (written locations are
		// not tracked).
		st.mem = false
	case isa.OpLDMXCSR:
		// Control-field effects are modeled globally by the environment
		// set (envSetFor); no register state changes.
	}
}

// execMoveAbs interprets the never-raising move forms.
func (an *analyzer) execMoveAbs(st *state, inst *isa.Inst) {
	switch inst.Op {
	case isa.OpMOVSD:
		st.vec[inst.Rd][0] = st.vec[inst.Rs1][0]
	case isa.OpMOVSS:
		an.setLane32(st, inst.Rd, 0, an.lane32(st, inst.Rs1, 0))
	case isa.OpMOVAPD:
		st.vec[inst.Rd] = st.vec[inst.Rs1]
	case isa.OpMOVQX:
		iv := readInt(st, inst.Rs1)
		if iv.top {
			st.vec[inst.Rd][0] = valTop64()
		} else {
			st.vec[inst.Rd][0] = valFromPatterns64(iv.set)
		}
	case isa.OpMOVXQ:
		v := st.vec[inst.Rs1][0]
		if v.concrete() {
			writeInt(st, inst.Rd, intFromSet(v.set))
		} else {
			writeInt(st, inst.Rd, intTop())
		}
	}
}

// evalBin64 evaluates one 64-bit arithmetic lane: exhaustive softfloat
// enumeration when both operands are concrete, abstract rules otherwise.
func (an *analyzer) evalBin64(fp isa.FPOp, a, b Val) outcome {
	if a.concrete() && b.concrete() {
		var f func(x, y uint64, e softfloat.Env) (uint64, softfloat.Flags)
		switch fp {
		case isa.FPAdd:
			f = softfloat.Add64
		case isa.FPSub:
			f = softfloat.Sub64
		case isa.FPMul:
			f = softfloat.Mul64
		case isa.FPDiv:
			f = softfloat.Div64
		case isa.FPMin:
			f = softfloat.Min64
		case isa.FPMax:
			f = softfloat.Max64
		}
		if f != nil {
			return enum2(f, a.set, b.set, an.envs, false)
		}
	}
	switch fp {
	case isa.FPAdd:
		return absAdd(a, b, an.envs, lim64)
	case isa.FPSub:
		return absAdd(a, b.neg(), an.envs, lim64)
	case isa.FPMul:
		return absMul(a, b, an.envs, lim64)
	case isa.FPDiv:
		return absDiv(a, b, an.envs, lim64)
	case isa.FPMin, isa.FPMax:
		return absMinMax(a, b, an.envs)
	}
	return outcome{val: valTop64(), may: allMust}
}

// evalBin32 is the binary32 twin of evalBin64.
func (an *analyzer) evalBin32(fp isa.FPOp, a, b Val) outcome {
	if a.concrete() && b.concrete() {
		var f func(x, y uint32, e softfloat.Env) (uint32, softfloat.Flags)
		switch fp {
		case isa.FPAdd:
			f = softfloat.Add32
		case isa.FPSub:
			f = softfloat.Sub32
		case isa.FPMul:
			f = softfloat.Mul32
		case isa.FPDiv:
			f = softfloat.Div32
		case isa.FPMin:
			f = softfloat.Min32
		case isa.FPMax:
			f = softfloat.Max32
		}
		if f != nil {
			return enum2(wrap32(f), a.set, b.set, an.envs, true)
		}
	}
	switch fp {
	case isa.FPAdd:
		return absAdd(a, b, an.envs, lim32)
	case isa.FPSub:
		return absAdd(a, b.neg(), an.envs, lim32)
	case isa.FPMul:
		return absMul(a, b, an.envs, lim32)
	case isa.FPDiv:
		return absDiv(a, b, an.envs, lim32)
	case isa.FPMin, isa.FPMax:
		return absMinMax(a, b, an.envs)
	}
	return outcome{val: valTop32(), may: allMust}
}

func wrap32(f func(x, y uint32, e softfloat.Env) (uint32, softfloat.Flags)) func(x, y uint64, e softfloat.Env) (uint64, softfloat.Flags) {
	return func(x, y uint64, e softfloat.Env) (uint64, softfloat.Flags) {
		z, fl := f(uint32(x), uint32(y), e)
		return uint64(z), fl
	}
}

func wrap32u(f func(x uint32, e softfloat.Env) (uint32, softfloat.Flags)) func(x uint64, e softfloat.Env) (uint64, softfloat.Flags) {
	return func(x uint64, e softfloat.Env) (uint64, softfloat.Flags) {
		z, fl := f(uint32(x), e)
		return uint64(z), fl
	}
}

func (an *analyzer) evalSqrt64(a Val) outcome {
	if a.concrete() {
		return enum1(softfloat.Sqrt64, a.set, an.envs, false)
	}
	return absSqrt(a, an.envs, lim64)
}

func (an *analyzer) evalSqrt32(a Val) outcome {
	if a.concrete() {
		return enum1(wrap32u(softfloat.Sqrt32), a.set, an.envs, true)
	}
	return absSqrt(a, an.envs, lim32)
}

// mergeLane accumulates one lane's flags into the instruction verdict:
// the instruction's raised set is the union over lanes, so a must on
// any lane is a must for the instruction.
func mergeLane(may, must *softfloat.Flags, o outcome) {
	*may |= o.may
	*must |= o.must
}

// execFPAbs interprets one floating point instruction, returning the
// flag union (may) and guaranteed subset (must) across all executions
// reaching it with the current entry state.
func (an *analyzer) execFPAbs(st *state, inst *isa.Inst, info *isa.OpInfo) (may, must softfloat.Flags) {
	if info.Masked {
		return an.execMaskedAbs(st, inst, info)
	}
	switch info.Class {
	case isa.ClassFPArith:
		if info.Prec == isa.F64 {
			res := make([]Val, info.Lanes)
			for l := 0; l < info.Lanes; l++ {
				var o outcome
				if info.FP == isa.FPSqrt {
					o = an.evalSqrt64(an.lane64(st, inst.Rs1, l))
				} else {
					o = an.evalBin64(info.FP, an.lane64(st, inst.Rs1, l), an.lane64(st, inst.Rs2, l))
				}
				res[l] = o.val
				mergeLane(&may, &must, o)
			}
			for l := 0; l < info.Lanes; l++ {
				an.setLane64(st, inst.Rd, l, res[l])
			}
		} else {
			res := make([]Val, info.Lanes)
			for l := 0; l < info.Lanes; l++ {
				var o outcome
				if info.FP == isa.FPSqrt {
					o = an.evalSqrt32(an.lane32(st, inst.Rs1, l))
				} else {
					o = an.evalBin32(info.FP, an.lane32(st, inst.Rs1, l), an.lane32(st, inst.Rs2, l))
				}
				res[l] = o.val
				mergeLane(&may, &must, o)
			}
			for l := 0; l < info.Lanes; l++ {
				an.setLane32(st, inst.Rd, l, res[l])
			}
		}

	case isa.ClassFMA:
		negProd, negAdd := info.FMA.NegProduct(), info.FMA.NegAddend()
		if info.Prec == isa.F64 {
			res := make([]Val, info.Lanes)
			for l := 0; l < info.Lanes; l++ {
				a := an.lane64(st, inst.Rs1, l)
				b := an.lane64(st, inst.Rs2, l)
				c := an.lane64(st, inst.Rs3, l)
				if negProd {
					a = a.neg()
				}
				if negAdd {
					c = c.neg()
				}
				var o outcome
				if a.concrete() && b.concrete() && c.concrete() {
					o = enum3(softfloat.FMA64, a.set, b.set, c.set, an.envs, false)
				} else {
					o = absFMA(a, b, c, an.envs, lim64)
				}
				res[l] = o.val
				mergeLane(&may, &must, o)
			}
			for l := 0; l < info.Lanes; l++ {
				an.setLane64(st, inst.Rd, l, res[l])
			}
		} else {
			res := make([]Val, info.Lanes)
			for l := 0; l < info.Lanes; l++ {
				a := an.lane32(st, inst.Rs1, l)
				b := an.lane32(st, inst.Rs2, l)
				c := an.lane32(st, inst.Rs3, l)
				if negProd {
					a = a.neg32()
				}
				if negAdd {
					c = c.neg32()
				}
				var o outcome
				if a.concrete() && b.concrete() && c.concrete() {
					o = enum3(func(x, y, z uint64, e softfloat.Env) (uint64, softfloat.Flags) {
						w, fl := softfloat.FMA32(uint32(x), uint32(y), uint32(z), e)
						return uint64(w), fl
					}, a.set, b.set, c.set, an.envs, true)
				} else {
					o = absFMA(a, b, c, an.envs, lim32)
				}
				res[l] = o.val
				mergeLane(&may, &must, o)
			}
			for l := 0; l < info.Lanes; l++ {
				an.setLane32(st, inst.Rd, l, res[l])
			}
		}

	case isa.ClassFPConvert:
		may, must = an.execConvertAbs(st, inst, info)

	case isa.ClassFPCompare:
		may, must = an.execCompareAbs(st, inst, info)

	case isa.ClassFPRound:
		may, must = an.execRoundAbs(st, inst, info)

	case isa.ClassFPDot:
		may, must = an.execDotAbs(st, inst, info)
	}
	return may, must
}

// execMaskedAbs interprets write-masked arithmetic. Mask register
// contents are not tracked, so any lane subset may be active: may is
// the union over all lanes evaluated as if active, must is empty (the
// all-zero mask computes nothing and raises nothing), and every
// destination lane goes to top (an active lane takes the computed
// value, an inactive one merges the old — top covers both).
func (an *analyzer) execMaskedAbs(st *state, inst *isa.Inst, info *isa.OpInfo) (may, must softfloat.Flags) {
	if info.Prec == isa.F64 {
		for l := 0; l < info.Lanes; l++ {
			var o outcome
			if info.FP == isa.FPSqrt {
				o = an.evalSqrt64(an.lane64(st, inst.Rs1, l))
			} else {
				o = an.evalBin64(info.FP, an.lane64(st, inst.Rs1, l), an.lane64(st, inst.Rs2, l))
			}
			may |= o.may
		}
		for l := 0; l < info.Lanes; l++ {
			an.setLane64(st, inst.Rd, l, valTop64())
		}
	} else {
		for l := 0; l < info.Lanes; l++ {
			var o outcome
			if info.FP == isa.FPSqrt {
				o = an.evalSqrt32(an.lane32(st, inst.Rs1, l))
			} else {
				o = an.evalBin32(info.FP, an.lane32(st, inst.Rs1, l), an.lane32(st, inst.Rs2, l))
			}
			may |= o.may
		}
		for l := 0; l < info.Lanes; l++ {
			an.setLane32(st, inst.Rd, l, valTop32())
		}
	}
	return may, 0
}

func (an *analyzer) execConvertAbs(st *state, inst *isa.Inst, info *isa.OpInfo) (may, must softfloat.Flags) {
	// Bounds below which a float-to-int conversion cannot go out of
	// range under any rounding mode: any value of magnitude below the
	// bound rounds to a representable integer. (2^31-1 is exact in
	// binary64; near 2^63 the binary64 ulp is 1024, so the largest safe
	// bound is 2^63-1024.)
	const bound31 = float64(1<<31 - 1)
	const bound63 = 0x1.fffffffffffffp+62 // 2^63 - 1024

	// enumToInt enumerates a float-to-int conversion for its flags; the
	// integer result itself is not tracked (the destination goes top).
	enumToInt := func(f func(x uint64, e softfloat.Env) softfloat.Flags, as []uint64) (softfloat.Flags, softfloat.Flags) {
		var m softfloat.Flags
		mu := allMust
		for _, a := range as {
			for _, e := range an.envs {
				fl := f(a, e)
				m |= fl
				mu &= fl
			}
		}
		return m, mu
	}

	switch info.Cvt {
	case isa.CvtSD2SS:
		a := an.lane64(st, inst.Rs1, 0)
		var o outcome
		if a.concrete() {
			o = enum1(func(x uint64, e softfloat.Env) (uint64, softfloat.Flags) {
				z, fl := softfloat.F64ToF32(x, e)
				return uint64(z), fl
			}, a.set, an.envs, true)
		} else {
			o = absCvtNarrow(a, an.envs)
		}
		an.setLane32(st, inst.Rd, 0, o.val)
		mergeLane(&may, &must, o)

	case isa.CvtSS2SD:
		a := an.lane32(st, inst.Rs1, 0)
		var o outcome
		if a.concrete() {
			o = enum1(func(x uint64, e softfloat.Env) (uint64, softfloat.Flags) {
				return softfloat.F32ToF64(uint32(x), e)
			}, a.set, an.envs, false)
		} else {
			o = absCvtWiden(a, an.envs)
		}
		an.setLane64(st, inst.Rd, 0, o.val)
		mergeLane(&may, &must, o)

	case isa.CvtSI2SD:
		// int32 -> f64 is always exact and flag-free.
		iv := readInt(st, inst.Rs1)
		if !iv.top {
			vs := make([]uint64, len(iv.set))
			for i, r := range iv.set {
				vs[i] = softfloat.I32ToF64(int32(r))
			}
			an.setLane64(st, inst.Rd, 0, valFromPatterns64(vs))
		} else {
			an.setLane64(st, inst.Rd, 0, valAbs(bPZero|bitsNorm, -float64(1<<31), float64(1<<31)))
		}

	case isa.CvtSI2SDQ:
		iv := readInt(st, inst.Rs1)
		if !iv.top {
			o := enum1(func(x uint64, e softfloat.Env) (uint64, softfloat.Flags) {
				return softfloat.I64ToF64(int64(x), e)
			}, iv.set, an.envs, false)
			an.setLane64(st, inst.Rd, 0, o.val)
			mergeLane(&may, &must, o)
		} else {
			an.setLane64(st, inst.Rd, 0, valAbs(bPZero|bitsNorm, -0x1p63, 0x1p63))
			may |= softfloat.FlagInexact // magnitudes beyond 2^53 round
		}

	case isa.CvtSI2SS, isa.CvtSI2SSQ:
		iv := readInt(st, inst.Rs1)
		if !iv.top {
			o := enum1(func(x uint64, e softfloat.Env) (uint64, softfloat.Flags) {
				var z uint32
				var fl softfloat.Flags
				if info.Cvt == isa.CvtSI2SS {
					z, fl = softfloat.I32ToF32(int32(x), e)
				} else {
					z, fl = softfloat.I64ToF32(int64(x), e)
				}
				return uint64(z), fl
			}, iv.set, an.envs, true)
			an.setLane32(st, inst.Rd, 0, o.val)
			mergeLane(&may, &must, o)
		} else {
			an.setLane32(st, inst.Rd, 0, valAbs(bPZero|bitsNorm, -0x1p63, 0x1p63))
			may |= softfloat.FlagInexact
		}

	case isa.CvtSD2SI, isa.CvtTSD2SI, isa.CvtTSD2SIQ:
		a := an.lane64(st, inst.Rs1, 0)
		if a.concrete() {
			m, mu := enumToInt(func(x uint64, e softfloat.Env) softfloat.Flags {
				var fl softfloat.Flags
				switch info.Cvt {
				case isa.CvtSD2SI:
					_, fl = softfloat.F64ToI32(x, e)
				case isa.CvtTSD2SI:
					_, fl = softfloat.F64ToI32Trunc(x, e)
				default:
					_, fl = softfloat.F64ToI64Trunc(x, e)
				}
				return fl
			}, a.set)
			may |= m
			must |= mu
		} else {
			bound := bound31
			if info.Cvt == isa.CvtTSD2SIQ {
				bound = bound63
			}
			may |= absCvtToInt(a, bound, an.envs)
		}
		writeInt(st, inst.Rd, intTop())

	case isa.CvtSS2SI, isa.CvtTSS2SI:
		a := an.lane32(st, inst.Rs1, 0)
		if a.concrete() {
			m, mu := enumToInt(func(x uint64, e softfloat.Env) softfloat.Flags {
				var fl softfloat.Flags
				if info.Cvt == isa.CvtSS2SI {
					_, fl = softfloat.F32ToI32(uint32(x), e)
				} else {
					_, fl = softfloat.F32ToI32Trunc(uint32(x), e)
				}
				return fl
			}, a.set)
			may |= m
			must |= mu
		} else {
			may |= absCvtToInt(a, bound31, an.envs)
		}
		writeInt(st, inst.Rd, intTop())

	case isa.CvtPS2DQ:
		for l := 0; l < info.Lanes; l++ {
			a := an.lane32(st, inst.Rs1, l)
			if a.concrete() {
				o := enum1(func(x uint64, e softfloat.Env) (uint64, softfloat.Flags) {
					z, fl := softfloat.F32ToI32(uint32(x), e)
					return uint64(uint32(z)), fl
				}, a.set, an.envs, true)
				an.setLane32(st, inst.Rd, l, o.val)
				mergeLane(&may, &must, o)
			} else {
				may |= absCvtToInt(a, bound31, an.envs)
				an.setLane32(st, inst.Rd, l, valTop32())
			}
		}
	}
	return may, must
}

// cmpMask64 and cmpMask32 are the possible cmpsd/cmpss results.
func cmpMask64() Val { return valFromPatterns64([]uint64{0, ^uint64(0)}) }
func cmpMask32() Val { return valFromPatterns32([]uint32{0, ^uint32(0)}) }

func (an *analyzer) execCompareAbs(st *state, inst *isa.Inst, info *isa.OpInfo) (may, must softfloat.Flags) {
	switch inst.Op {
	case isa.OpCMPSD:
		a := an.lane64(st, inst.Rs1, 0)
		b := an.lane64(st, inst.Rs2, 0)
		pred := softfloat.CmpPredicate(inst.Imm)
		if a.concrete() && b.concrete() {
			o := enum2(func(x, y uint64, e softfloat.Env) (uint64, softfloat.Flags) {
				return softfloat.Cmp64(x, y, pred, e)
			}, a.set, b.set, an.envs, false)
			an.setLane64(st, inst.Rd, 0, o.val)
			mergeLane(&may, &must, o)
		} else {
			may |= absCompare(a, b, predSignaling(pred), an.envs)
			an.setLane64(st, inst.Rd, 0, cmpMask64())
		}
	case isa.OpCMPSS:
		a := an.lane32(st, inst.Rs1, 0)
		b := an.lane32(st, inst.Rs2, 0)
		pred := softfloat.CmpPredicate(inst.Imm)
		if a.concrete() && b.concrete() {
			o := enum2(func(x, y uint64, e softfloat.Env) (uint64, softfloat.Flags) {
				z, fl := softfloat.Cmp32(uint32(x), uint32(y), pred, e)
				return uint64(z), fl
			}, a.set, b.set, an.envs, true)
			an.setLane32(st, inst.Rd, 0, o.val)
			mergeLane(&may, &must, o)
		} else {
			may |= absCompare(a, b, predSignaling(pred), an.envs)
			an.setLane32(st, inst.Rd, 0, cmpMask32())
		}
	default: // comi/ucomi: result is a small integer in an int register
		var a, b Val
		if info.Prec == isa.F64 {
			a = an.lane64(st, inst.Rs1, 0)
			b = an.lane64(st, inst.Rs2, 0)
		} else {
			a = an.lane32(st, inst.Rs1, 0)
			b = an.lane32(st, inst.Rs2, 0)
		}
		if a.concrete() && b.concrete() {
			mu := allMust
			for _, x := range a.set {
				for _, y := range b.set {
					for _, e := range an.envs {
						var fl softfloat.Flags
						if info.Prec == isa.F64 {
							if info.Signaling {
								_, fl = softfloat.Comi64(x, y, e)
							} else {
								_, fl = softfloat.Ucomi64(x, y, e)
							}
						} else {
							if info.Signaling {
								_, fl = softfloat.Comi32(uint32(x), uint32(y), e)
							} else {
								_, fl = softfloat.Ucomi32(uint32(x), uint32(y), e)
							}
						}
						may |= fl
						mu &= fl
					}
				}
			}
			must |= mu
		} else {
			may |= absCompare(a, b, info.Signaling, an.envs)
		}
		writeInt(st, inst.Rd, intTop())
	}
	return may, must
}

// predSignaling mirrors softfloat's predicate signaling table (LT, LE,
// NLT, NLE raise Invalid on quiet NaNs).
func predSignaling(p softfloat.CmpPredicate) bool {
	switch p {
	case softfloat.CmpLT, softfloat.CmpLE, softfloat.CmpNLT, softfloat.CmpNLE:
		return true
	}
	return false
}

func (an *analyzer) execRoundAbs(st *state, inst *isa.Inst, info *isa.OpInfo) (may, must softfloat.Flags) {
	imm := isa.RoundImm(inst.Imm)
	fixedRM := softfloat.RoundingMode(imm & 3)
	useMXCSR := imm&isa.RoundImmMXCSR != 0
	suppress := imm&isa.RoundImmNoInexact != 0
	rmOf := func(e softfloat.Env) softfloat.RoundingMode {
		if useMXCSR {
			return e.RM
		}
		return fixedRM
	}
	if info.Prec == isa.F64 {
		res := make([]Val, info.Lanes)
		for l := 0; l < info.Lanes; l++ {
			a := an.lane64(st, inst.Rs1, l)
			var o outcome
			if a.concrete() {
				o = enum1(func(x uint64, e softfloat.Env) (uint64, softfloat.Flags) {
					return softfloat.RoundToInt64(x, rmOf(e), suppress, e)
				}, a.set, an.envs, false)
			} else {
				o = absRound(a, suppress, an.envs)
			}
			res[l] = o.val
			mergeLane(&may, &must, o)
		}
		for l := 0; l < info.Lanes; l++ {
			an.setLane64(st, inst.Rd, l, res[l])
		}
		return may, must
	}
	res := make([]Val, info.Lanes)
	for l := 0; l < info.Lanes; l++ {
		a := an.lane32(st, inst.Rs1, l)
		var o outcome
		if a.concrete() {
			o = enum1(func(x uint64, e softfloat.Env) (uint64, softfloat.Flags) {
				z, fl := softfloat.RoundToInt32(uint32(x), rmOf(e), suppress, e)
				return uint64(z), fl
			}, a.set, an.envs, true)
		} else {
			o = absRound(a, suppress, an.envs)
		}
		res[l] = o.val
		mergeLane(&may, &must, o)
	}
	for l := 0; l < info.Lanes; l++ {
		an.setLane32(st, inst.Rd, l, res[l])
	}
	return may, must
}

// execDotAbs mirrors execDot's mul/add tree: within each 128-bit group,
// four products are summed pairwise and the sum broadcast.
func (an *analyzer) execDotAbs(st *state, inst *isa.Inst, info *isa.OpInfo) (may, must softfloat.Flags) {
	groups := info.Lanes / 4
	sums := make([]Val, groups)
	for g := 0; g < groups; g++ {
		var p [4]Val
		for i := 0; i < 4; i++ {
			l := g*4 + i
			o := an.evalBin32(isa.FPMul, an.lane32(st, inst.Rs1, l), an.lane32(st, inst.Rs2, l))
			p[i] = o.val
			mergeLane(&may, &must, o)
		}
		s01 := an.evalBin32(isa.FPAdd, p[0], p[1])
		mergeLane(&may, &must, s01)
		s23 := an.evalBin32(isa.FPAdd, p[2], p[3])
		mergeLane(&may, &must, s23)
		sum := an.evalBin32(isa.FPAdd, s01.val, s23.val)
		mergeLane(&may, &must, sum)
		sums[g] = sum.val
	}
	for g := 0; g < groups; g++ {
		for i := 0; i < 4; i++ {
			an.setLane32(st, inst.Rd, g*4+i, sums[g])
		}
	}
	return may, must
}
