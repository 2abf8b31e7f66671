package softfloat

// CmpResult is the outcome of a floating point comparison.
type CmpResult int8

const (
	// CmpLess means a < b.
	CmpLess CmpResult = -1
	// CmpEqual means a == b (including -0 == +0).
	CmpEqual CmpResult = 0
	// CmpGreater means a > b.
	CmpGreater CmpResult = 1
	// CmpUnordered means at least one operand is a NaN.
	CmpUnordered CmpResult = 2
)

// String renders the comparison outcome.
func (c CmpResult) String() string {
	switch c {
	case CmpLess:
		return "lt"
	case CmpEqual:
		return "eq"
	case CmpGreater:
		return "gt"
	default:
		return "unord"
	}
}

// order64 compares two non-NaN binary64 patterns.
func order64(a, b uint64) CmpResult {
	if IsZero64(a) && IsZero64(b) {
		return CmpEqual
	}
	if a == b {
		return CmpEqual
	}
	aSign, bSign := sign64(a), sign64(b)
	if aSign != bSign {
		if aSign {
			return CmpLess
		}
		return CmpGreater
	}
	// Same sign: magnitude order on the bit pattern, inverted for
	// negatives.
	less := a < b
	if aSign {
		less = !less
	}
	if less {
		return CmpLess
	}
	return CmpGreater
}

// order32 compares two non-NaN binary32 patterns.
func order32(a, b uint32) CmpResult {
	if IsZero32(a) && IsZero32(b) {
		return CmpEqual
	}
	if a == b {
		return CmpEqual
	}
	aSign, bSign := sign32(a), sign32(b)
	if aSign != bSign {
		if aSign {
			return CmpLess
		}
		return CmpGreater
	}
	less := a < b
	if aSign {
		less = !less
	}
	if less {
		return CmpLess
	}
	return CmpGreater
}

// compare64 orders a and b as ucomisd does, or as comisd does when
// signaling: a NaN operand makes them unordered and raises Invalid if it
// is signaling or the compare is.
func compare64(a, b uint64, signaling bool, env Env) (CmpResult, Flags) {
	var fl Flags
	ops := class64(a) | class64(b)
	r := CmpUnordered
	if ops&nanOperand == 0 {
		r = order64(daz64(a, env), daz64(b, env))
	} else if signaling || IsSNaN64(a) || IsSNaN64(b) {
		fl |= FlagInvalid
	}
	return r, denormal(fl, ops, env)
}

// compare32 is compare64 for binary32.
func compare32(a, b uint32, signaling bool, env Env) (CmpResult, Flags) {
	var fl Flags
	ops := class32(a) | class32(b)
	r := CmpUnordered
	if ops&nanOperand == 0 {
		r = order32(daz32(a, env), daz32(b, env))
	} else if signaling || IsSNaN32(a) || IsSNaN32(b) {
		fl |= FlagInvalid
	}
	return r, denormal(fl, ops, env)
}

// Ucomi64 implements ucomisd: an unordered compare that raises Invalid
// only for signaling NaN operands.
func Ucomi64(a, b uint64, env Env) (CmpResult, Flags) {
	return compare64(a, b, false, env)
}

// Comi64 implements comisd: an ordered compare that raises Invalid for
// any NaN operand.
func Comi64(a, b uint64, env Env) (CmpResult, Flags) {
	return compare64(a, b, true, env)
}

// Ucomi32 implements ucomiss.
func Ucomi32(a, b uint32, env Env) (CmpResult, Flags) {
	return compare32(a, b, false, env)
}

// Comi32 implements comiss.
func Comi32(a, b uint32, env Env) (CmpResult, Flags) {
	return compare32(a, b, true, env)
}

// Min64 implements minsd: if either operand is a NaN or both are zeros,
// the second operand is returned. Invalid is raised for NaN operands
// (compare-style semantics).
func Min64(a, b uint64, env Env) (uint64, Flags) {
	r, fl := compare64(a, b, true, env)
	if r == CmpLess {
		return daz64(a, env), fl
	}
	return daz64(b, env), fl
}

// Max64 implements maxsd with the same operand-forwarding rules as Min64.
func Max64(a, b uint64, env Env) (uint64, Flags) {
	r, fl := compare64(a, b, true, env)
	if r == CmpGreater {
		return daz64(a, env), fl
	}
	return daz64(b, env), fl
}

// Min32 implements minss.
func Min32(a, b uint32, env Env) (uint32, Flags) {
	r, fl := compare32(a, b, true, env)
	if r == CmpLess {
		return daz32(a, env), fl
	}
	return daz32(b, env), fl
}

// Max32 implements maxss.
func Max32(a, b uint32, env Env) (uint32, Flags) {
	r, fl := compare32(a, b, true, env)
	if r == CmpGreater {
		return daz32(a, env), fl
	}
	return daz32(b, env), fl
}

// CmpPredicate selects the comparison a cmpsd/cmpps instruction performs,
// with the SSE imm8 encoding.
type CmpPredicate uint8

const (
	// CmpEQ tests a == b (quiet: Invalid only on SNaN).
	CmpEQ CmpPredicate = 0
	// CmpLT tests a < b (signaling: Invalid on any NaN).
	CmpLT CmpPredicate = 1
	// CmpLE tests a <= b (signaling).
	CmpLE CmpPredicate = 2
	// CmpUnord tests for unordered operands (quiet).
	CmpUnord CmpPredicate = 3
	// CmpNEQ tests a != b or unordered (quiet).
	CmpNEQ CmpPredicate = 4
	// CmpNLT tests !(a < b) (signaling).
	CmpNLT CmpPredicate = 5
	// CmpNLE tests !(a <= b) (signaling).
	CmpNLE CmpPredicate = 6
	// CmpOrd tests for ordered operands (quiet).
	CmpOrd CmpPredicate = 7
)

// signaling reports whether the predicate raises Invalid on quiet NaNs.
func (p CmpPredicate) signaling() bool {
	switch p {
	case CmpLT, CmpLE, CmpNLT, CmpNLE:
		return true
	}
	return false
}

// evalPredicate maps a comparison outcome through the predicate.
func (p CmpPredicate) eval(r CmpResult) bool {
	unord := r == CmpUnordered
	switch p {
	case CmpEQ:
		return r == CmpEqual
	case CmpLT:
		return r == CmpLess
	case CmpLE:
		return r == CmpLess || r == CmpEqual
	case CmpUnord:
		return unord
	case CmpNEQ:
		return r != CmpEqual
	case CmpNLT:
		return unord || r == CmpEqual || r == CmpGreater
	case CmpNLE:
		return unord || r == CmpGreater
	case CmpOrd:
		return !unord
	}
	return false
}

// Cmp64 implements cmpsd: it evaluates the predicate and returns an
// all-ones or all-zeros mask.
func Cmp64(a, b uint64, p CmpPredicate, env Env) (uint64, Flags) {
	r, fl := compare64(a, b, p.signaling(), env)
	if p.eval(r) {
		return ^uint64(0), fl
	}
	return 0, fl
}

// Cmp32 implements cmpss.
func Cmp32(a, b uint32, p CmpPredicate, env Env) (uint32, Flags) {
	r, fl := compare32(a, b, p.signaling(), env)
	if p.eval(r) {
		return ^uint32(0), fl
	}
	return 0, fl
}
