package shadow

// The Section 6 mitigator: the system the FPSpy paper's conclusion says
// is under construction, "a trap-and-emulate approach to integrating
// higher precision" underneath existing, unmodified binaries. Like
// FPSpy it is an LD_PRELOAD object, but when a rounding instruction
// reaches it the instruction is not logged and single-stepped: it is
// *emulated* at p bits by the channel's evaluator (MPFR in the paper),
// the binary64 rounding of the result is written back through the
// signal context, and the instruction pointer advances past it. The
// hardware never executes the rounding operation.
//
// It comes in the two flavors Section 6 weighs. The trap flavor
// (fpmitigate.so) unmasks Inexact and emulates on SIGFPE; forms outside
// its repertoire fall back to FPSpy's mask-and-single-step. The patched
// flavor (fppatch.so) plants permanent breakpoints at rounding sites an
// FPSpy profile found and emulates on SIGILL, one kernel crossing per
// visit; a site holding a form outside the repertoire is unpatched.
//
// Unlike the channel, which only observes, the mitigator writes its
// results into the guest, so its register shadows follow a stricter
// policy: a shadow is used only while its binary64 rounding still
// equals the live register, and values that pass through moves, memory
// or unemulated instructions re-enter at their binary64 value.

import (
	"math"
	"math/big"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/softfloat"
)

// Preload object names of the two mitigator flavors.
const (
	// TrapPreloadName is the trap-and-emulate flavor.
	TrapPreloadName = "fpmitigate.so"
	// PatchedPreloadName is the binary-patching flavor.
	PatchedPreloadName = "fppatch.so"
)

// MitigationStats aggregates what a mitigator did across a run.
type MitigationStats struct {
	// Emulated counts instructions executed by the software FPU.
	Emulated uint64
	// Improved counts emulated instructions whose written-back result
	// differed from what the hardware would have produced — rounding
	// error the mitigation removed.
	Improved uint64
	// Fallbacks counts instructions outside the repertoire: single-
	// stepped by the trap flavor, unpatched by the patched flavor.
	Fallbacks uint64
}

// Emulable reports whether the mitigator emulates an instruction form:
// scalar binary64 add, sub, mul, div, sqrt and fused multiply-add, and
// cvtsi2sdq. Static analysis (internal/binscan) uses this predicate to
// mark which discovered sites the mitigation could patch.
func Emulable(op isa.Opcode) bool {
	info := op.Info()
	switch info.Class {
	case isa.ClassFPArith:
		if info.Prec != isa.F64 || info.Lanes != 1 {
			return false
		}
		switch info.FP {
		case isa.FPAdd, isa.FPSub, isa.FPMul, isa.FPDiv, isa.FPSqrt:
			return true
		}
	case isa.ClassFMA:
		return info.Prec == isa.F64 && info.Lanes == 1
	case isa.ClassFPConvert:
		return info.Cvt == isa.CvtSI2SDQ
	}
	return false
}

// operand is the p-bit value of a finite binary64 register, rounded to
// p bits when p < 53.
func (f format) operand(b uint64) val {
	if !f.fixed {
		return val{big: new(big.Float).SetPrec(f.prec).SetFloat64(math.Float64frombits(b)), set: true}
	}
	x := fixedOf64(b)
	if f.prec < 53 {
		x, _ = x.acc().round(f.prec)
	}
	return val{x: x, set: true}
}

// fromInt64 is the p-bit value of a 64-bit integer, as cvtsi2sdq reads
// it.
func (f format) fromInt64(i int64) val {
	if !f.fixed {
		return val{big: new(big.Float).SetPrec(f.prec).SetInt64(i), set: true}
	}
	a := acc{neg: i < 0}
	if i != 0 {
		m := uint64(i)
		if i < 0 {
			m = -m
		}
		n := bits.LeadingZeros64(m)
		a.w[3], a.exp = m<<uint(n), 63-n
	}
	x, _ := a.round(f.prec)
	return val{x: x, set: true}
}

// result is the mitigator's software FPU: ln's op over ops, rounded
// once to p bits to nearest even with an unbounded exponent, FMA
// included. ok is false when the op has no finite result: x/0, 0/0, or
// the root of a negative. A result the fixed-width path cannot certify
// is computed in big.Float and converts back exactly, as in
// Channel.evalLane.
func (f format) result(ln *lane, ops [3]val) (val, bool) {
	if f.fixed {
		x, finite, ok := evalOp(ln, [3]fixed{ops[0].x, ops[1].x, ops[2].x}, f.wide)
		switch {
		case ok && !finite:
			return val{}, false
		case ok:
			if r, ok := x.round(f.prec); ok {
				return val{x: r, set: true}, true
			}
		}
	}
	var r *big.Float
	var ok bool
	a, b := ops[0].bigVal(), ops[1].bigVal()
	if ln.fma {
		r, ok = evalFMA(ln.v, a, b, ops[2].bigVal(), f.wide)
	} else {
		r, ok = evalArith(ln.fp, a, b, f.wide)
	}
	if !ok || r.IsInf() {
		return val{}, false
	}
	r = new(big.Float).SetPrec(f.prec).Set(r)
	if f.fixed {
		return val{x: fixedOfBig(r), set: true}, true
	}
	return val{big: r, set: true}, true
}

// float64Bits is the binary64 rounding of a set value, as bits.
func (v val) float64Bits() uint64 {
	if v.big != nil {
		return nativeBits64(v.big)
	}
	return math.Float64bits(v.x.acc().float64())
}

// regShadow is the mitigator's shadow of a register's low binary64
// lane: valid only while the register still holds bits, the binary64
// rounding of v.
type regShadow struct {
	v    val
	bits uint64
}

type mitThread struct {
	task     *kernel.Task
	regs     [isa.NumVecRegs]regShadow
	stepping bool // trap flavor: single-step fallback in flight
}

// Mitigator is one process's instance of either flavor.
type Mitigator struct {
	proc *kernel.Process
	fpu  format
	// patched selects the patched flavor, which plants breakpoints at
	// sites; the trap flavor unmasks Inexact instead.
	patched bool
	sites   []uint64
	stats   *MitigationStats
	threads []*mitThread
}

// TrapFactory returns the trap-and-emulate flavor's preload factory;
// register it under TrapPreloadName. prec is the software FPU's
// mantissa precision in bits.
func TrapFactory(prec uint, stats *MitigationStats) kernel.ObjectFactory {
	return mitigatorFactory(prec, false, nil, stats)
}

// PatchedFactory returns the binary-patching flavor's preload factory,
// which patches the given instruction addresses at load time; register
// it under PatchedPreloadName.
func PatchedFactory(prec uint, sites []uint64, stats *MitigationStats) kernel.ObjectFactory {
	return mitigatorFactory(prec, true, sites, stats)
}

func mitigatorFactory(prec uint, patched bool, sites []uint64, stats *MitigationStats) kernel.ObjectFactory {
	return func(p *kernel.Process) *kernel.Object {
		m := &Mitigator{proc: p, fpu: newFormat(prec), patched: patched, sites: sites, stats: stats}
		obj := &kernel.Object{Name: m.preloadName(), Syms: map[string]kernel.Symbol{}}
		obj.Constructor = m.construct
		obj.Syms["pthread_create"] = m.wrapThreadCreate
		obj.Syms["clone"] = m.wrapThreadCreate
		return obj
	}
}

func (m *Mitigator) preloadName() string {
	if m.patched {
		return PatchedPreloadName
	}
	return TrapPreloadName
}

func (m *Mitigator) construct(k *kernel.Kernel, t *kernel.Task) {
	if m.patched {
		k.SetSigAction(m.proc, kernel.SIGILL, &kernel.SigAction{Host: m.onSIGILL})
	} else {
		k.SetSigAction(m.proc, kernel.SIGFPE, &kernel.SigAction{Host: m.onSIGFPE})
		k.SetSigAction(m.proc, kernel.SIGTRAP, &kernel.SigAction{Host: m.onSIGTRAP})
	}
	m.threadInit(t)
}

// threadInit arms one hardware thread: the trap flavor unmasks
// Inexact, the patched flavor plants its breakpoints in the thread's
// view of the text.
func (m *Mitigator) threadInit(t *kernel.Task) {
	m.thread(t)
	if !m.patched {
		t.M.CPU.MXCSR.Unmask(softfloat.FlagInexact)
		return
	}
	for _, addr := range m.sites {
		t.M.SetBreakpoint(addr)
	}
}

func (m *Mitigator) wrapThreadCreate(k *kernel.Kernel, t *kernel.Task) {
	real := m.proc.Linker.ResolveAfter(m.preloadName(), "pthread_create")
	if real == nil {
		return
	}
	real(k, t)
	newTID := int(t.M.CPU.R[isa.R1])
	for _, nt := range m.proc.Tasks {
		if nt.TID == newTID {
			m.threadInit(nt)
		}
	}
}

// thread returns t's state, creating it on first use.
func (m *Mitigator) thread(t *kernel.Task) *mitThread {
	for _, ts := range m.threads {
		if ts.task == t {
			return ts
		}
	}
	ts := &mitThread{task: t}
	m.threads = append(m.threads, ts)
	return ts
}

// emulate executes the instruction at addr in software and steps past
// it. It returns false, leaving the CPU untouched, when the instruction
// is outside the repertoire. A native NaN or Inf operand, or an op with
// no finite result, writes back the IEEE result under the live MXCSR
// instead, raises its sticky flags and drops the destination's shadow;
// should the guest have unmasked one of those exceptions, emulate
// returns false so the hardware raises the trap.
func (m *Mitigator) emulate(t *kernel.Task, cpu *machine.CPU, addr uint64) bool {
	idx := t.M.Prog.IndexOf(addr)
	if idx < 0 || !Emulable(t.M.Prog.Insts[idx].Op) {
		return false
	}
	inst := &t.M.Prog.Insts[idx]
	info := inst.Op.Info()
	ts := m.thread(t)
	hw, flags := hardwareResult(cpu, inst, info)
	out, sh := hw, regShadow{}
	switch v, ok := m.compute(ts, cpu, inst, info); {
	case ok:
		out = v.float64Bits()
		sh = regShadow{v: v, bits: out}
	case cpu.MXCSR.Unmasked(flags) != 0:
		return false
	default:
		cpu.MXCSR.SetFlags(flags)
	}
	cpu.X[inst.Rd][0] = out
	ts.regs[inst.Rd] = sh
	m.stats.Emulated++
	if out != hw {
		m.stats.Improved++
	}
	cpu.RIP += isa.InstBytes
	return true
}

// compute evaluates an emulable instruction at p bits over its
// operands' validated shadows, reading only the operands the form has.
func (m *Mitigator) compute(ts *mitThread, cpu *machine.CPU, inst *isa.Inst, info *isa.OpInfo) (val, bool) {
	if info.Class == isa.ClassFPConvert {
		return m.fpu.fromInt64(int64(cpu.R[inst.Rs1])), true
	}
	ln := lane{fma: info.Class == isa.ClassFMA, fp: info.FP, v: info.FMA}
	regs := [3]uint8{inst.Rs1, inst.Rs2, inst.Rs3}
	n := 2
	switch {
	case ln.fma:
		n = 3
	case info.FP == isa.FPSqrt:
		n = 1
	}
	var ops [3]val
	for i, r := range regs[:n] {
		b := cpu.X[r][0]
		if !finite64(b) {
			return val{}, false
		}
		if s := ts.regs[r]; s.v.set && s.bits == b {
			ops[i] = s.v
			continue
		}
		// A stale shadow is replaced by the register's own value, so it
		// cannot revive should the register later regain its bits.
		ops[i] = m.fpu.operand(b)
		ts.regs[r] = regShadow{v: ops[i], bits: b}
	}
	return m.fpu.result(&ln, ops)
}

// hardwareResult is the result, and the exception flags, the hardware
// FPU would have produced for an emulable instruction under the live
// MXCSR.
func hardwareResult(cpu *machine.CPU, inst *isa.Inst, info *isa.OpInfo) (z uint64, fl softfloat.Flags) {
	env := cpu.MXCSR.Env()
	a, b := cpu.X[inst.Rs1][0], cpu.X[inst.Rs2][0]
	switch info.Class {
	case isa.ClassFPArith:
		switch info.FP {
		case isa.FPAdd:
			return softfloat.Add64(a, b, env)
		case isa.FPSub:
			return softfloat.Sub64(a, b, env)
		case isa.FPMul:
			return softfloat.Mul64(a, b, env)
		case isa.FPDiv:
			return softfloat.Div64(a, b, env)
		case isa.FPSqrt:
			return softfloat.Sqrt64(a, env)
		}
	case isa.ClassFMA:
		c := cpu.X[inst.Rs3][0]
		if info.FMA.NegProduct() {
			a ^= sign64
		}
		if info.FMA.NegAddend() {
			c ^= sign64
		}
		return softfloat.FMA64(a, b, c, env)
	case isa.ClassFPConvert:
		return softfloat.I64ToF64(int64(cpu.R[inst.Rs1]), env)
	}
	return 0, 0
}

// onSIGFPE handles a rounding trap: emulate if possible, otherwise fall
// back to FPSpy's mask-and-single-step so the instruction runs once on
// the hardware.
func (m *Mitigator) onSIGFPE(k *kernel.Kernel, t *kernel.Task, info *kernel.SigInfo, mc *kernel.MContext) {
	ts := m.thread(t)
	if ts.stepping {
		// The fallback step faulted on an exception the guest unmasked.
		// The mitigator holds SIGFPE, so the guest has no handler for
		// it: take the default action, as the unmitigated run would.
		k.ExitProcess(t.Proc, 128+int(kernel.SIGFPE))
		return
	}
	mc.CPU.MXCSR.ClearFlags()
	if m.emulate(t, mc.CPU, info.Addr) {
		return
	}
	m.stats.Fallbacks++
	mc.CPU.MXCSR.Mask(softfloat.FlagInexact)
	mc.CPU.TF = true
	ts.stepping = true
}

func (m *Mitigator) onSIGTRAP(k *kernel.Kernel, t *kernel.Task, info *kernel.SigInfo, mc *kernel.MContext) {
	ts := m.thread(t)
	if !ts.stepping {
		return
	}
	ts.stepping = false
	mc.CPU.MXCSR.ClearFlags()
	mc.CPU.MXCSR.Unmask(softfloat.FlagInexact)
	mc.CPU.TF = false
}

// onSIGILL emulates a patched instruction and steps past it — one
// kernel crossing per visit. A form outside the repertoire is unpatched
// and left to the hardware, like a patch-point blacklist.
func (m *Mitigator) onSIGILL(k *kernel.Kernel, t *kernel.Task, info *kernel.SigInfo, mc *kernel.MContext) {
	if m.emulate(t, mc.CPU, info.Addr) {
		return
	}
	m.stats.Fallbacks++
	t.M.ClearBreakpoint(info.Addr)
}

// ProfileRoundingSites runs prog briefly under full individual-mode
// capture and returns the distinct rounding sites — the profile a
// production patcher would take from FPSpy traces.
func ProfileRoundingSites(prog *isa.Program, memBytes int, maxSteps uint64) ([]uint64, error) {
	k := kernel.New()
	seen := make(map[uint64]bool)
	var sites []uint64
	p, err := k.Spawn(prog, memBytes, nil)
	if err != nil {
		return nil, err
	}
	k.SetSigAction(p, kernel.SIGFPE, &kernel.SigAction{Host: func(k *kernel.Kernel, t *kernel.Task, info *kernel.SigInfo, mc *kernel.MContext) {
		if !seen[info.Addr] {
			seen[info.Addr] = true
			sites = append(sites, info.Addr)
		}
		mc.CPU.MXCSR.ClearFlags()
		mc.CPU.MXCSR.Mask(softfloat.Flags(0x3F))
		mc.CPU.TF = true
	}})
	k.SetSigAction(p, kernel.SIGTRAP, &kernel.SigAction{Host: func(k *kernel.Kernel, t *kernel.Task, info *kernel.SigInfo, mc *kernel.MContext) {
		mc.CPU.MXCSR.ClearFlags()
		mc.CPU.MXCSR.Unmask(softfloat.FlagInexact)
		mc.CPU.TF = false
	}})
	p.Tasks[0].M.CPU.MXCSR.Unmask(softfloat.FlagInexact)
	k.Run(maxSteps)
	return sites, nil
}
