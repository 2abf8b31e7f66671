// Package shadow is the repository's one precision-escalation core: a
// high-precision evaluator and its two users. The first is the
// shadow-precision value channel behind the root-cause attribution
// study (the paper's Section 6/7 mitigation direction): every retired
// floating point instruction carries its native (softfloat) result
// alongside a result computed at a configurable higher precision, and
// the divergence between the two is attributed to the instruction site
// that introduced it, Herbgrind-style.
//
// Number formats. Precisions up to 113 bits evaluate in a fixed-width
// binary float (a 128-bit significand on two uint64s, fixed.go) whose
// values the channel holds by value, so a shadowed lane allocates
// nothing; every result is bit-identical to the math/big.Float
// evaluation at W = max(3p+8, 256) bits, which remains the path for
// wider precisions, for the rare lane the fixed-width code cannot
// certify (counted in Stats.Fallbacks), and the test oracle.
//
// The channel is a pure observer. It registers as the machine's
// ShadowSink and reads architectural state before execution (PreStep)
// and after retirement (Retired), but never writes registers, memory,
// MXCSR, or control flow — so a run with the channel attached is
// bit-identical to one without it, by construction. What it produces is
// accounting: per-site local error (what this instruction's own
// rounding introduced, measured by recomputing the op from the *native*
// inputs at high precision and comparing with the native output),
// propagated error (divergence inherited through the shadow operands,
// total minus local), and an integer-ULP divergence lattice for the
// native-vs-shadow comparison.
//
// Error metrics. The softfloat FPU is correctly rounded, so the integer
// ULP distance between a native result and the correctly-rounded
// high-precision result of the same inputs is identically zero — it can
// never rank sites. Local error is therefore *fractional*: |exact −
// native| / ulp(native), in [0, 0.5] for a correctly rounded op and
// exactly 0 for an exact one. Summed over a site's dynamic executions
// this is the total rounding the site injected, which is what the
// RootCauseReport ranks. The integer ULP distance (Dist64/Dist32) is
// used where whole-result divergence is the question: the max-ULP
// per-site statistic, the observability histogram, and Stats.MaxUlps.
//
// Environment policy. Shadow arithmetic is round-to-nearest-even with
// an unbounded exponent (except at prec 53/24, where results are
// rounded through float64/float32 and reproduce the native formats
// bit-exactly, subnormals and overflow included). Instructions
// executing under a non-default environment — directed rounding, FTZ,
// or DAZ — are not shadow-executed; their destinations reset to the
// native value and the site is skipped. Likewise NaN or Inf operands
// and results: the shadow number systems have no NaN, so non-finite
// lanes invalidate their destination shadow and count as NonFinite
// rather than accumulate.
//
// The second user is the Section 6 mitigator (mitigator.go), which
// writes the evaluator's results back into the guest instead of
// observing.
package shadow

import "repro/internal/isa"

// Supported reports whether the channel shadow-executes an instruction
// form: all binary64 arithmetic and FMA forms (scalar, packed, AVX512
// z-forms including the K-masked variants — masked-off lanes never
// shadow-execute), plus scalar binary32 arithmetic and FMA. Packed
// binary32, conversion, compare, round, and dot forms reset their
// destinations to the native value instead. The mitigator's narrower
// repertoire is Emulable.
func Supported(op isa.Opcode) bool {
	info := op.Info()
	switch info.Class {
	case isa.ClassFPArith, isa.ClassFMA:
		return info.Prec == isa.F64 || info.Lanes == 1
	}
	return false
}

// SampleClass classifies one shadow-executed lane comparison.
type SampleClass uint8

const (
	// SampleExact: the native op was exact (no local rounding) and the
	// shadow result rounds to the native bits.
	SampleExact SampleClass = iota
	// SampleRounded: the native op rounded (nonzero local error) but
	// the shadow result still rounds to the native bits — no
	// accumulated drift yet.
	SampleRounded
	// SampleDiverged: the shadow result rounds to different native-format
	// bits than the hardware produced (accumulated drift ≥ 1 ULP).
	SampleDiverged
	// SampleNonFinite: a NaN/Inf operand or result (or an op with no
	// finite shadow semantics, like 0/0); the lane is not accumulated
	// and its destination shadow resets to native.
	SampleNonFinite
)

// String names a sample class for logs and reports.
func (c SampleClass) String() string {
	switch c {
	case SampleExact:
		return "exact"
	case SampleRounded:
		return "rounded"
	case SampleDiverged:
		return "diverged"
	case SampleNonFinite:
		return "nonfinite"
	}
	return "unknown"
}
