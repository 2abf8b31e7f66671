package workload

// FPRev-style accumulation-order probes (ROADMAP item 3; SNIPPETS.md §3).
//
// A probe is a guest program that runs one reduction kernel over every
// cancellation input of the FPRev sweep and encodes each trial's final
// sum into the monitor trace via two gadget sites, so that the
// accumulation tree the kernel *actually* used can be reconstructed
// from the trace alone (internal/analysis, RecoverProbeTree):
//
//   - Inputs: n values, all 1.0 except a[i] = M and a[j] = -M with
//     M = 2^60, so (n-2)+M == M exactly for every n <= 64 (the 1.0s
//     are absorbed by any partial sum holding a mass, and the masses
//     cancel exactly when they meet).
//   - The final sum f(i,j) = n - |leaves(LCA(i,j))| is a small exact
//     integer. The guest converts it to an integer (CVTTSD2SI, exact,
//     no flags), stores it to the out[] array (the memory channel the
//     unit tests cross-check), executes the *report gadget* — a MULSD
//     of 0.1*0.1, always Inexact — f times, then the *trial separator*
//     — a DIVSD of 1.0/0.0, always DivideByZero — once.
//
// MULSD and DIVSD appear nowhere else in a probe program (the kernels
// use ADDSD / VFMADDSD / VADDPDZ / VADDPDKZ), so an unsampled
// individual-mode trace is self-describing regardless of which engine
// produced it. That makes the probe an adversarial transparency oracle:
// if any engine, schedule, or routing layer perturbed guest FP
// behavior, the reconstructed tree — not merely the final bits — would
// change.
//
// Each kernel's guest code is emitted *from* its model tree (or, for
// the vector kernel, from real z-form vector instructions whose
// reduction provably computes the model tree), so the expected
// fingerprint is ground truth by construction. The broken-reassoc
// kernel deliberately violates this: its guest reduces in reversed
// order while its Expected tree claims the documented serial order —
// the suite's negative control.

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/isa"
	"repro/internal/machine"
)

// SuiteProbe marks the FPRev-style accumulation-order probes.
const SuiteProbe Suite = "probe"

// ProbeKind names a probe reduction kernel.
type ProbeKind string

const (
	// ProbeSerial is the left-to-right serial sum.
	ProbeSerial ProbeKind = "serial"
	// ProbePairwise is recursive pairwise (balanced-halving) summation.
	ProbePairwise ProbeKind = "pairwise"
	// ProbeBlocked sums fixed-width contiguous blocks serially, then
	// folds the block partials serially (OpenMP-static-schedule shape).
	ProbeBlocked ProbeKind = "blocked"
	// ProbeStrided assigns element k to lane k mod B (cyclic schedule),
	// sums each lane serially, then folds the lane partials.
	ProbeStrided ProbeKind = "strided"
	// ProbeFMADot is a dot product against an all-ones vector using a
	// serial VFMADDSD chain.
	ProbeFMADot ProbeKind = "fmadot"
	// ProbeVecMask is a z-form vectorized reduction: 8-lane VADDPDZ
	// over full chunks, a K-masked VADDPDKZ tail, then an in-lane-order
	// horizontal reduce.
	ProbeVecMask ProbeKind = "vecmask"
	// ProbeBrokenReassoc is the negative control: the guest sums in
	// reversed order while Expected claims the serial order.
	ProbeBrokenReassoc ProbeKind = "broken-reassoc"
)

// ProbeKinds lists every kernel kind in suite order.
func ProbeKinds() []ProbeKind {
	return []ProbeKind{
		ProbeSerial, ProbePairwise, ProbeBlocked, ProbeStrided,
		ProbeFMADot, ProbeVecMask, ProbeBrokenReassoc,
	}
}

// ProbeSpec parameterizes one probe program.
type ProbeSpec struct {
	// Kind selects the reduction kernel.
	Kind ProbeKind
	// N is the input count, 2..64 (the absorption bound of M = 2^60).
	N int
	// Param is the block width (blocked) or stride (strided); ignored
	// otherwise. Zero selects a kind-specific default.
	Param int
	// Companion adds a second pthread spinning integer work, giving the
	// kernel scheduler a task to shuffle/jitter against the probe.
	Companion bool
}

// Probe is a built probe program plus its ground truth.
type Probe struct {
	// Spec is the generating spec (Param resolved).
	Spec ProbeSpec
	// Prog is the guest program.
	Prog *isa.Program
	// Expected is the documented accumulation tree — what the kernel
	// claims to compute. Conformance compares recovered fingerprints
	// against Expected.Fingerprint().
	Expected *analysis.AccumTree
	// Emitted is the tree the guest actually evaluates. It differs
	// from Expected only for ProbeBrokenReassoc.
	Emitted *analysis.AccumTree
	// Trials is the sweep length n(n-1)/2.
	Trials int
	// OutAddr is the guest address of the out[] array of per-trial
	// f-values (binary64), the memory-channel cross-check.
	OutAddr uint64
	// ReportAddr and SepAddr are the code addresses of the two gadget
	// sites (single MULSD and DIVSD sites, shared by all trials).
	ReportAddr, SepAddr uint64
}

// probeMass is M: large enough that (n-2)+M == M for n <= 64
// (ulp(2^60) = 256 > 62), small enough that nothing overflows.
const probeMass = float64(1 << 60)

// probeMaxN is the largest sweep the absorption bound supports.
const probeMaxN = 64

// foldSerial left-folds the given leaves: ((l0 l1) l2) ...
func foldSerial(leaves []int) *analysis.AccumTree {
	t := analysis.AccumLeaf(leaves[0])
	for _, l := range leaves[1:] {
		t = analysis.AccumJoin(t, analysis.AccumLeaf(l))
	}
	return t
}

// foldPairwise builds the balanced halving tree over [lo, hi).
func foldPairwise(lo, hi int) *analysis.AccumTree {
	if hi-lo == 1 {
		return analysis.AccumLeaf(lo)
	}
	mid := lo + (hi-lo+1)/2
	return analysis.AccumJoin(foldPairwise(lo, mid), foldPairwise(mid, hi))
}

// laneIndices returns the element indices of lane l under a cyclic
// stride-B schedule over n elements.
func laneIndices(n, b, l int) []int {
	var idx []int
	for k := l; k < n; k += b {
		idx = append(idx, k)
	}
	return idx
}

// foldLanes serially folds the serial per-lane partials of a cyclic
// schedule, skipping empty lanes — the shared model of the strided and
// vectorized kernels.
func foldLanes(n, b int) *analysis.AccumTree {
	var parts []*analysis.AccumTree
	for l := 0; l < b; l++ {
		if idx := laneIndices(n, b, l); len(idx) > 0 {
			parts = append(parts, foldSerial(idx))
		}
	}
	t := parts[0]
	for _, p := range parts[1:] {
		t = analysis.AccumJoin(t, p)
	}
	return t
}

// foldBlocked serially folds the serial partials of fixed-width
// contiguous blocks.
func foldBlocked(n, b int) *analysis.AccumTree {
	var parts []*analysis.AccumTree
	for lo := 0; lo < n; lo += b {
		hi := lo + b
		if hi > n {
			hi = n
		}
		idx := make([]int, 0, hi-lo)
		for k := lo; k < hi; k++ {
			idx = append(idx, k)
		}
		parts = append(parts, foldSerial(idx))
	}
	t := parts[0]
	for _, p := range parts[1:] {
		t = analysis.AccumJoin(t, p)
	}
	return t
}

// resolveParam fills in the kind-specific default width.
func resolveParam(spec ProbeSpec) int {
	if spec.Param > 0 {
		return spec.Param
	}
	switch spec.Kind {
	case ProbeBlocked:
		return 4
	case ProbeStrided:
		return 4
	case ProbeVecMask:
		return 8 // fixed: the z-form lane count
	}
	return 0
}

// ProbeModel returns the documented (Expected) accumulation tree for a
// spec.
func ProbeModel(spec ProbeSpec) (*analysis.AccumTree, error) {
	if spec.N < 2 || spec.N > probeMaxN {
		return nil, fmt.Errorf("probe: n=%d outside [2,%d]", spec.N, probeMaxN)
	}
	all := make([]int, spec.N)
	for i := range all {
		all[i] = i
	}
	switch spec.Kind {
	case ProbeSerial, ProbeFMADot, ProbeBrokenReassoc:
		return foldSerial(all), nil
	case ProbePairwise:
		return foldPairwise(0, spec.N), nil
	case ProbeBlocked:
		return foldBlocked(spec.N, resolveParam(spec)), nil
	case ProbeStrided:
		return foldLanes(spec.N, resolveParam(spec)), nil
	case ProbeVecMask:
		return foldLanes(spec.N, 8), nil
	}
	return nil, fmt.Errorf("probe: unknown kind %q", spec.Kind)
}

// emittedModel returns the tree the guest is actually built to compute.
func emittedModel(spec ProbeSpec) (*analysis.AccumTree, error) {
	if spec.Kind == ProbeBrokenReassoc {
		rev := make([]int, spec.N)
		for i := range rev {
			rev[i] = spec.N - 1 - i
		}
		return foldSerial(rev), nil
	}
	return ProbeModel(spec)
}

// treeNeed is the Sethi-Ullman register need of a (binary) tree.
func treeNeed(t *analysis.AccumTree) int {
	if t.IsLeaf() {
		return 1
	}
	if len(t.Kids) != 2 {
		panic("probe: scalar emission requires a binary tree")
	}
	l, r := treeNeed(t.Kids[0]), treeNeed(t.Kids[1])
	if l == r {
		return l + 1
	}
	if l > r {
		return l
	}
	return r
}

// emitScalarTree emits a Sethi-Ullman evaluation of the tree into
// X(reg), loading leaves from the array based at R9. Registers
// X(reg)..X(reg+need-1) are clobbered; the add order follows the tree
// exactly, so the guest's association *is* the tree.
func emitScalarTree(b *isa.Builder, t *analysis.AccumTree, reg int) {
	if t.IsLeaf() {
		b.Fld(reg, isa.R9, int64(8*t.Leaf))
		return
	}
	k0, k1 := t.Kids[0], t.Kids[1]
	// Evaluate the needier child first so the whole tree fits in
	// need(t) registers (commuting the evaluation order is invisible:
	// IEEE addition is bit-commutative and leaf loads raise nothing).
	if treeNeed(k1) > treeNeed(k0) {
		k0, k1 = k1, k0
	}
	emitScalarTree(b, k0, reg)
	emitScalarTree(b, k1, reg+1)
	b.FP2(isa.OpADDSD, reg, reg, reg+1)
}

// Fixed register/vector-register conventions of probe programs.
const (
	probeXOne     = 10 // X10 = 1.0 (FMA multiplier, separator dividend)
	probeXTenth   = 11 // X11 = 0.1 (report gadget operand)
	probeXZero    = 12 // X12 = 0.0 (separator divisor)
	probeXScratch = 13 // X13 = gadget destination
	probeXAcc     = 8  // X8 = vector accumulator
	probeXChunk   = 9  // X9 = vector chunk
)

// BuildProbe assembles the probe program for a spec, returning it with
// its ground-truth trees and gadget addresses.
func BuildProbe(spec ProbeSpec) (*Probe, error) {
	expected, err := ProbeModel(spec)
	if err != nil {
		return nil, err
	}
	emitted, err := emittedModel(spec)
	if err != nil {
		return nil, err
	}
	if need := treeNeed(emitted); spec.Kind != ProbeVecMask && need > 8 {
		return nil, fmt.Errorf("probe: %s n=%d needs %d scalar registers (have 8)", spec.Kind, spec.N, need)
	}
	spec.Param = resolveParam(spec)

	name := fmt.Sprintf("probe-%s", spec.Kind)
	b := isa.NewBuilder(name)

	// Per-trial input arrays. The vector kernel reads full 8-lane
	// chunks, so its arrays are padded to a lane-count multiple with
	// zeros (+0.0 adds are exact and invisible).
	n := spec.N
	pairs := analysis.ProbePairs(n)
	stride := n
	if spec.Kind == ProbeVecMask {
		stride = (n + 7) / 8 * 8
	}
	trialAddrs := make([]uint64, len(pairs))
	for t, pr := range pairs {
		vals := make([]float64, stride)
		for k := 0; k < n; k++ {
			vals[k] = 1.0
		}
		vals[pr[0]] = probeMass
		vals[pr[1]] = -probeMass
		trialAddrs[t] = b.Float64s(vals...)
	}
	outAddr := b.Zeros(len(pairs) * 8)
	var vecZero, vecScratch uint64
	if spec.Kind == ProbeVecMask {
		vecZero = b.Zeros(64)    // never written: the 512-bit zero accumulator image
		vecScratch = b.Zeros(64) // horizontal-reduce spill slot
	}

	kernel := b.Label("kernel")
	report := b.Label("report")
	worker := b.Label("worker")

	// --- main ---
	if spec.Companion {
		b.Lea(isa.R1, worker)
		b.Movi(isa.R2, 0)
		b.CallC("pthread_create")
	}
	fconst(b, probeXOne, 1.0)
	fconst(b, probeXTenth, 0.1)
	fconst(b, probeXZero, 0.0)
	b.Movi(isa.R12, int64(outAddr))
	for t := range pairs {
		b.Movi(isa.R9, int64(trialAddrs[t]))
		b.Call(kernel)                    // X0 = kernel(a)
		b.Fst(isa.R12, int64(8*t), 0)     // out[t] = f (memory channel)
		b.Cvt(isa.OpCVTTSD2SI, isa.R8, 0) // exact: raises nothing
		b.Call(report)                    // f reports + separator
	}
	b.Hlt()

	// --- kernel: X0 = reduce(mem[R9..]) ---
	b.Bind(kernel)
	switch spec.Kind {
	case ProbeFMADot:
		// acc = 0; acc = a[k]*1.0 + acc. The first FMA (a[0]*1.0 +
		// 0.0) and every product are exact; the chain's adds absorb
		// exactly as the serial sum does.
		b.Movi(isa.R7, 0)
		b.Movqx(0, isa.R7)
		for k := 0; k < n; k++ {
			b.Fld(1, isa.R9, int64(8*k))
			b.FMA(isa.OpVFMADDSD, 0, 1, probeXOne, 0)
		}
	case ProbeVecMask:
		// acc[0:8] = 0; full chunks via VADDPDZ, tail via K-masked
		// VADDPDKZ (masked-off lanes keep acc and raise nothing), then
		// a horizontal reduce in lane order. Lane l accumulates
		// elements l, l+8, ... — the cyclic stride-8 model tree.
		b.Movi(isa.R7, int64(vecZero))
		b.Fldvz(probeXAcc, isa.R7, 0)
		full, tail := n/8, n%8
		for c := 0; c < full; c++ {
			b.Fldvz(probeXChunk, isa.R9, int64(64*c))
			b.FP2(isa.OpVADDPDZ, probeXAcc, probeXAcc, probeXChunk)
		}
		if tail > 0 {
			b.Fldvz(probeXChunk, isa.R9, int64(64*full))
			b.Movi(isa.R7, int64(1<<tail)-1)
			b.Kmovq(1, isa.R7)
			b.FP2Masked(isa.OpVADDPDKZ, probeXAcc, probeXAcc, probeXChunk, 1)
		}
		b.Movi(isa.R7, int64(vecScratch))
		b.Fstvz(isa.R7, 0, probeXAcc)
		lanes := 8
		if n < 8 {
			lanes = n
		}
		b.Fld(0, isa.R7, 0)
		for l := 1; l < lanes; l++ {
			b.Fld(1, isa.R7, int64(8*l))
			b.FP2(isa.OpADDSD, 0, 0, 1)
		}
	default:
		emitScalarTree(b, emitted, 0)
	}
	b.Ret()

	// --- report: execute R8 report gadgets, then one separator ---
	b.Bind(report)
	b.Movi(isa.R10, 0)
	rtop := b.Label("rtop")
	rdone := b.Label("rdone")
	b.Bind(rtop)
	b.Bge(isa.R10, isa.R8, rdone)
	reportIdx := b.Len()
	b.FP2(isa.OpMULSD, probeXScratch, probeXTenth, probeXTenth) // 0.1*0.1: always Inexact
	b.Addi(isa.R10, isa.R10, 1)
	b.Jmp(rtop)
	b.Bind(rdone)
	sepIdx := b.Len()
	b.FP2(isa.OpDIVSD, probeXScratch, probeXOne, probeXZero) // 1.0/0.0: always DivideByZero
	b.Ret()

	// --- companion: integer-only spin, then exit ---
	if spec.Companion {
		b.Bind(worker)
		busyloop(b, isa.R4, isa.R5, 30000)
		b.Movi(isa.R1, 0)
		b.CallC("pthread_exit")
	} else {
		// Keep the label universe identical across variants.
		b.Bind(worker)
		b.Hlt()
	}

	prog := b.Build()
	return &Probe{
		Spec:       spec,
		Prog:       prog,
		Expected:   expected,
		Emitted:    emitted,
		Trials:     len(pairs),
		OutAddr:    outAddr,
		ReportAddr: prog.AddrOf(reportIdx),
		SepAddr:    prog.AddrOf(sepIdx),
	}, nil
}

// ProbeOut decodes the memory-channel f-matrix from a finished guest's
// memory: the out[] array of per-trial final sums.
func ProbeOut(mem *machine.Memory, outAddr uint64, trials int) ([]float64, error) {
	out := make([]float64, trials)
	for t := range out {
		bits, ok := mem.Load64(outAddr + uint64(8*t))
		if !ok {
			return nil, fmt.Errorf("probe: out array [%#x,%#x) outside %d-byte memory",
				outAddr, outAddr+uint64(trials)*8, mem.Size())
		}
		out[t] = math.Float64frombits(bits)
	}
	return out, nil
}

// DefaultProbeSpec is the registry/problem-size mapping for a kind.
func DefaultProbeSpec(kind ProbeKind, size Size) ProbeSpec {
	small := map[ProbeKind]ProbeSpec{
		ProbeSerial:        {Kind: ProbeSerial, N: 6},
		ProbePairwise:      {Kind: ProbePairwise, N: 8},
		ProbeBlocked:       {Kind: ProbeBlocked, N: 6, Param: 2},
		ProbeStrided:       {Kind: ProbeStrided, N: 6, Param: 3},
		ProbeFMADot:        {Kind: ProbeFMADot, N: 6},
		ProbeVecMask:       {Kind: ProbeVecMask, N: 10},
		ProbeBrokenReassoc: {Kind: ProbeBrokenReassoc, N: 4},
	}
	large := map[ProbeKind]ProbeSpec{
		ProbeSerial:        {Kind: ProbeSerial, N: 10},
		ProbePairwise:      {Kind: ProbePairwise, N: 16},
		ProbeBlocked:       {Kind: ProbeBlocked, N: 12, Param: 3},
		ProbeStrided:       {Kind: ProbeStrided, N: 12, Param: 4},
		ProbeFMADot:        {Kind: ProbeFMADot, N: 10},
		ProbeVecMask:       {Kind: ProbeVecMask, N: 12},
		ProbeBrokenReassoc: {Kind: ProbeBrokenReassoc, N: 6},
	}
	if size == SizeSmall {
		return small[kind]
	}
	return large[kind]
}

// mustBuildProbe is the registry adapter: specs from DefaultProbeSpec
// are valid by construction.
func mustBuildProbe(kind ProbeKind, size Size) *isa.Program {
	p, err := BuildProbe(DefaultProbeSpec(kind, size))
	if err != nil {
		panic(err)
	}
	return p.Prog
}

func probeMeta(kind ProbeKind, problem string) Meta {
	return Meta{
		Name:        fmt.Sprintf("probe-%s", kind),
		Suite:       SuiteProbe,
		Languages:   "generated",
		Problem:     problem,
		Concurrency: "serial",
	}
}

// Probes returns the probe suite.
func Probes() []*Workload { return BySuite(SuiteProbe) }

var (
	_ = register(&Workload{
		Meta:  probeMeta(ProbeSerial, "FPRev sweep of a left-to-right serial sum"),
		Build: func(size Size) *isa.Program { return mustBuildProbe(ProbeSerial, size) },
	})
	_ = register(&Workload{
		Meta:  probeMeta(ProbePairwise, "FPRev sweep of recursive pairwise summation"),
		Build: func(size Size) *isa.Program { return mustBuildProbe(ProbePairwise, size) },
	})
	_ = register(&Workload{
		Meta:  probeMeta(ProbeBlocked, "FPRev sweep of a blocked (static-schedule) sum"),
		Build: func(size Size) *isa.Program { return mustBuildProbe(ProbeBlocked, size) },
	})
	_ = register(&Workload{
		Meta:  probeMeta(ProbeStrided, "FPRev sweep of a cyclic strided sum"),
		Build: func(size Size) *isa.Program { return mustBuildProbe(ProbeStrided, size) },
	})
	_ = register(&Workload{
		Meta:  probeMeta(ProbeFMADot, "FPRev sweep of an FMA dot product against ones"),
		Build: func(size Size) *isa.Program { return mustBuildProbe(ProbeFMADot, size) },
	})
	_ = register(&Workload{
		Meta:  probeMeta(ProbeVecMask, "FPRev sweep of a K-masked z-form vector reduction"),
		Build: func(size Size) *isa.Program { return mustBuildProbe(ProbeVecMask, size) },
	})
	_ = register(&Workload{
		Meta:  probeMeta(ProbeBrokenReassoc, "negative control: reversed reduction vs serial claim"),
		Build: func(size Size) *isa.Program { return mustBuildProbe(ProbeBrokenReassoc, size) },
	})
)
