package mxcsr

import (
	"testing"
	"testing/quick"

	"repro/internal/softfloat"
)

func TestDefaultState(t *testing.T) {
	r := Default
	if r.Flags() != 0 {
		t.Error("default has flags set")
	}
	if r.Masks() != 0x3F {
		t.Errorf("default masks = %#x", uint32(r.Masks()))
	}
	if r.RC() != softfloat.RoundNearestEven {
		t.Errorf("default RC = %v", r.RC())
	}
	if r.FTZ() || r.DAZ() {
		t.Error("default FTZ/DAZ set")
	}
}

func TestStickyFlags(t *testing.T) {
	var r Reg = Default
	r.SetFlags(softfloat.FlagInexact)
	r.SetFlags(softfloat.FlagInvalid)
	if r.Flags() != softfloat.FlagInexact|softfloat.FlagInvalid {
		t.Errorf("flags = %v", r.Flags())
	}
	// Setting again does not clear.
	r.SetFlags(softfloat.FlagInexact)
	if r.Flags()&softfloat.FlagInvalid == 0 {
		t.Error("sticky flag lost")
	}
	r.ClearFlags()
	if r.Flags() != 0 {
		t.Error("clear failed")
	}
}

func TestMaskingAndUnmasked(t *testing.T) {
	var r Reg = Default
	r.Unmask(softfloat.FlagDivideByZero | softfloat.FlagInvalid)
	if got := r.Unmasked(softfloat.FlagDivideByZero | softfloat.FlagInexact); got != softfloat.FlagDivideByZero {
		t.Errorf("unmasked = %v", got)
	}
	r.Mask(softfloat.FlagDivideByZero)
	if got := r.Unmasked(softfloat.FlagDivideByZero); got != 0 {
		t.Errorf("remask failed: %v", got)
	}
	if got := r.Unmasked(softfloat.FlagInvalid); got != softfloat.FlagInvalid {
		t.Errorf("invalid lost its unmask: %v", got)
	}
}

func TestRoundingControlField(t *testing.T) {
	var r Reg = Default
	for _, m := range []softfloat.RoundingMode{
		softfloat.RoundNearestEven, softfloat.RoundDown,
		softfloat.RoundUp, softfloat.RoundToZero,
	} {
		r.SetRC(m)
		if r.RC() != m {
			t.Errorf("RC = %v after SetRC(%v)", r.RC(), m)
		}
		// RC changes must not disturb masks or flags.
		if r.Masks() != 0x3F {
			t.Errorf("masks perturbed: %#x", uint32(r.Masks()))
		}
	}
}

func TestFTZDAZBits(t *testing.T) {
	var r Reg = Default
	r.SetFTZ(true)
	r.SetDAZ(true)
	env := r.Env()
	if !env.FTZ || !env.DAZ {
		t.Errorf("env = %+v", env)
	}
	r.SetFTZ(false)
	if r.Env().FTZ {
		t.Error("FTZ clear failed")
	}
	if !r.DAZ() {
		t.Error("DAZ lost")
	}
}

func TestFieldIndependenceQuick(t *testing.T) {
	// Property: writing any one field never disturbs the others.
	f := func(raw uint32, flags, masks uint8, rc uint8) bool {
		r := Reg(raw)
		before := r
		r.SetRC(softfloat.RoundingMode(rc % 4))
		if r&^(3<<RCShift) != before&^(3<<RCShift) {
			return false
		}
		r = before
		r.SetFlags(softfloat.Flags(flags) & 0x3F)
		if r&^FlagBits != before&^FlagBits {
			return false
		}
		r = before
		r.SetMasks(softfloat.Flags(masks) & 0x3F)
		return r&^MaskBits == before&^MaskBits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

// priorityOrdered is x64's priority encoding as an ordered search, the
// reference Priority's lowest-set-bit form must match.
func priorityOrdered(raised softfloat.Flags) softfloat.Flags {
	order := [...]softfloat.Flags{
		softfloat.FlagInvalid,
		softfloat.FlagDenormal,
		softfloat.FlagDivideByZero,
		softfloat.FlagOverflow,
		softfloat.FlagUnderflow,
		softfloat.FlagInexact,
	}
	for _, f := range order {
		if raised&f != 0 {
			return f
		}
	}
	return 0
}

func TestPriorityEncoding(t *testing.T) {
	cases := []struct {
		raised, want softfloat.Flags
	}{
		{softfloat.FlagInvalid | softfloat.FlagInexact, softfloat.FlagInvalid},
		{softfloat.FlagDenormal | softfloat.FlagUnderflow, softfloat.FlagDenormal},
		{softfloat.FlagDivideByZero | softfloat.FlagInexact, softfloat.FlagDivideByZero},
		{softfloat.FlagOverflow | softfloat.FlagInexact, softfloat.FlagOverflow},
		{softfloat.FlagUnderflow | softfloat.FlagInexact, softfloat.FlagUnderflow},
		{softfloat.FlagInexact, softfloat.FlagInexact},
		{0, 0},
		// Bits above the six flags are not exceptions.
		{0x40, 0},
		{0x40 | softfloat.FlagInexact, softfloat.FlagInexact},
		{0xFFFFFFC0 | softfloat.FlagOverflow | softfloat.FlagInexact, softfloat.FlagOverflow},
	}
	for _, c := range cases {
		if got := Priority(c.raised); got != c.want {
			t.Errorf("Priority(%v) = %v, want %v", c.raised, got, c.want)
		}
	}
	// Every set of the six flags, alone and with bits above them.
	for set := softfloat.Flags(0); set <= 0x3F; set++ {
		for _, high := range []softfloat.Flags{0, 0x40, 0x1F80, 0xFFFFFFC0} {
			if got, want := Priority(set|high), priorityOrdered(set|high); got != want {
				t.Errorf("Priority(%#x) = %v, want %v", set|high, got, want)
			}
		}
	}
}
