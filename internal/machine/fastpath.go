package machine

// RunStraight retires up to max instructions on the fast path. It
// returns the number of cleanly retired instructions n <= max and, when
// non-nil, the event raised by one additional step beyond those n (so
// the total number of instruction executions is n when ev is nil and
// n+1 otherwise — the caller accounts the eventful step separately,
// exactly as it would a lone Step).
//
// With TF set every instruction traps, so there is no straight run to
// retire; RunStraight executes exactly one stepped instruction and
// returns its event, which credits the same virtual-timer progress the
// precise path would (a TF retire always produces an event, a trap at
// minimum). Nothing inside a straight run can set TF, arm a breakpoint,
// or deliver a signal — those happen only in kernel event handling,
// which by construction is outside this loop — so checking once at
// entry is sound. Everything else that needs precise handling (unmasked
// FP exceptions, faults, halts, breakpoints armed before entry, libc
// calls) surfaces as the returned event, with semantics bit-identical
// to single-stepping: sticky flags update before an FP fault, a
// faulting instruction does not retire, and RIP is left exactly where
// Step would leave it.
//
// RunStraight dispatches cached superblock regions (see superblock.go).
// While a shadow sink is attached it steps one instruction at a time
// instead, so every retire gets its PreStep/Retired pair.
func (m *Machine) RunStraight(max uint64) (uint64, Event) {
	if m.CPU.TF {
		return 0, m.Step()
	}
	if m.Shadow != nil {
		// The superblock engine retires whole regions at once, so it
		// cannot drive a per-instruction sink; Step is the precise
		// reference the superblock engine is checked against.
		var n uint64
		for n < max {
			if ev := m.Step(); ev != nil {
				return n, ev
			}
			n++
		}
		return n, nil
	}
	return m.runSuperblock(max)
}
