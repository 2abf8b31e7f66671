// Package mxcsr models the x64 %mxcsr floating point control/status
// register: the six sticky exception flags, the six exception masks, the
// rounding control field, and the FTZ and DAZ bits. This register is the
// heart of the FPSpy reproduction — aggregate mode reads its sticky flags,
// and individual mode unmasks exceptions through it.
package mxcsr

import "repro/internal/softfloat"

// Reg is the 32-bit %mxcsr register value. The layout matches hardware:
//
//	bit  0: IE   invalid operation flag
//	bit  1: DE   denormal flag
//	bit  2: ZE   divide-by-zero flag
//	bit  3: OE   overflow flag
//	bit  4: UE   underflow flag
//	bit  5: PE   precision (inexact) flag
//	bit  6: DAZ  denormals are zero
//	bit  7: IM   invalid operation mask
//	bit  8: DM   denormal mask
//	bit  9: ZM   divide-by-zero mask
//	bit 10: OM   overflow mask
//	bit 11: UM   underflow mask
//	bit 12: PM   precision mask
//	bits 13-14: RC rounding control
//	bit 15: FTZ  flush to zero
type Reg uint32

const (
	// FlagShift is the bit position of the sticky flag field.
	FlagShift = 0
	// DAZBit is the denormals-are-zero control bit.
	DAZBit Reg = 1 << 6
	// MaskShift is the bit position of the exception mask field.
	MaskShift = 7
	// RCShift is the bit position of the rounding control field.
	RCShift = 13
	// FTZBit is the flush-to-zero control bit.
	FTZBit Reg = 1 << 15

	// FlagBits covers the six sticky exception flags.
	FlagBits Reg = 0x3F
	// MaskBits covers the six exception masks.
	MaskBits Reg = 0x3F << MaskShift

	// Default is the power-on value: all exceptions masked, flags clear,
	// round to nearest, FTZ and DAZ off.
	Default Reg = 0x1F80
)

// Flags returns the sticky exception flags.
func (r Reg) Flags() softfloat.Flags {
	return softfloat.Flags(r & FlagBits)
}

// SetFlags ORs exception flags into the sticky flag field.
func (r *Reg) SetFlags(f softfloat.Flags) {
	*r |= Reg(f) & FlagBits
}

// ClearFlags clears all six sticky flags.
func (r *Reg) ClearFlags() {
	*r &^= FlagBits
}

// Masks returns the exception mask field, aligned to flag bit positions:
// a set bit means the corresponding exception is masked (suppressed).
func (r Reg) Masks() softfloat.Flags {
	return softfloat.Flags((r & MaskBits) >> MaskShift)
}

// SetMasks replaces the exception mask field, with masks given in flag
// bit positions.
func (r *Reg) SetMasks(m softfloat.Flags) {
	*r = (*r &^ MaskBits) | (Reg(m)<<MaskShift)&MaskBits
}

// Unmask clears the masks for the given exceptions so they will raise
// faults, leaving other masks untouched.
func (r *Reg) Unmask(f softfloat.Flags) {
	*r &^= (Reg(f) << MaskShift) & MaskBits
}

// Mask sets the masks for the given exceptions so they are suppressed.
func (r *Reg) Mask(f softfloat.Flags) {
	*r |= (Reg(f) << MaskShift) & MaskBits
}

// Unmasked returns the subset of raised that would cause a fault under
// the current masks.
func (r Reg) Unmasked(raised softfloat.Flags) softfloat.Flags {
	return raised &^ r.Masks()
}

// RC returns the rounding control field.
func (r Reg) RC() softfloat.RoundingMode {
	return softfloat.RoundingMode((r >> RCShift) & 3)
}

// SetRC sets the rounding control field.
func (r *Reg) SetRC(m softfloat.RoundingMode) {
	*r = (*r &^ (3 << RCShift)) | Reg(m&3)<<RCShift
}

// FTZ reports whether flush-to-zero is enabled.
func (r Reg) FTZ() bool { return r&FTZBit != 0 }

// SetFTZ sets or clears flush-to-zero.
func (r *Reg) SetFTZ(on bool) {
	if on {
		*r |= FTZBit
	} else {
		*r &^= FTZBit
	}
}

// DAZ reports whether denormals-are-zero is enabled.
func (r Reg) DAZ() bool { return r&DAZBit != 0 }

// SetDAZ sets or clears denormals-are-zero.
func (r *Reg) SetDAZ(on bool) {
	if on {
		*r |= DAZBit
	} else {
		*r &^= DAZBit
	}
}

// Env derives the softfloat evaluation environment from the control bits.
func (r Reg) Env() softfloat.Env {
	return softfloat.Env{RM: r.RC(), FTZ: r.FTZ(), DAZ: r.DAZ()}
}

// Priority returns the highest-priority exception among raised, following
// the x64 priority encoding: Invalid and Denormal (pre-computation) first,
// then DivideByZero, then Overflow, Underflow, and Precision. That is the
// flags' bit order, so it is the lowest of the six flag bits set.
func Priority(raised softfloat.Flags) softfloat.Flags {
	f := raised & softfloat.Flags(FlagBits)
	return f & -f
}
