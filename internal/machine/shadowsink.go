package machine

import "repro/internal/isa"

// ShadowSink observes the instructions that can change shadow state,
// for the shadow-precision value channel (internal/shadow implements
// it). Step and superblock regions alike notify it of exactly the
// instructions whose class observed accepts: PreStep once the
// instruction is resolved, while every source operand still holds its
// pre-execution value, and Retired exactly when that instruction
// retires (faulting or trapping instructions never reach Retired — the
// sink must treat an unretired PreStep as stale). A region flushes
// CPU.RIP and Machine.Retired once, not per instruction, so a sink
// takes the address from PreStep and reads neither field.
//
// A sink must never mutate machine state; the contract is pure
// observation, which is what makes shadow-on runs bit-identical to
// shadow-off runs.
type ShadowSink interface {
	PreStep(addr uint64, inst *isa.Inst, info *isa.OpInfo)
	Retired()
}

// observed reports whether a shadow sink is notified of class c: the
// floating point classes, and all of ClassMem, since an integer st
// clobbers the memory shadows it overwrites.
func observed(c isa.OpClass) bool {
	switch c {
	case isa.ClassInt, isa.ClassBranch, isa.ClassMask, isa.ClassSys:
		return false
	}
	return true
}
