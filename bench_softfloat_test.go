package fpspy_test

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/softfloat"
)

// BenchmarkSoftFloatLanes compares per-lane scalar dispatch (what the
// machine's packed path did before lane batching: one exported-function
// call and flag merge per lane) against the lane-sliced kernels, per
// lane width. The win is call and loop overhead amortized across the
// vector — the per-lane rounding work is identical by construction
// (conformance_test pins the lane kernels to the scalar ops bit for
// bit).
func BenchmarkSoftFloatLanes(b *testing.B) {
	env := softfloat.Env{RM: softfloat.RoundNearestEven}

	a64 := make([]uint64, isa.VecWords)
	c64 := make([]uint64, isa.VecWords)
	d64 := make([]uint64, isa.VecWords)
	for i := range a64 {
		a64[i] = math.Float64bits(0.1 + float64(i)*0.3)
		c64[i] = math.Float64bits(0.2 + float64(i)*0.7)
	}
	b.Run("width64/scalar", func(b *testing.B) {
		var fl softfloat.Flags
		for i := 0; i < b.N; i++ {
			for l := range d64 {
				z, f := softfloat.Add64(a64[l], c64[l], env)
				d64[l] = z
				fl |= f
			}
		}
		_ = fl
	})
	b.Run("width64/lanes", func(b *testing.B) {
		var fl softfloat.Flags
		for i := 0; i < b.N; i++ {
			fl |= softfloat.AddLanes64(d64, a64, c64, env)
		}
		_ = fl
	})

	lanes32 := 2 * isa.VecWords
	a32 := make([]uint32, lanes32)
	c32 := make([]uint32, lanes32)
	d32 := make([]uint32, lanes32)
	for i := range a32 {
		a32[i] = math.Float32bits(0.1 + float32(i)*0.3)
		c32[i] = math.Float32bits(0.2 + float32(i)*0.7)
	}
	b.Run("width32/scalar", func(b *testing.B) {
		var fl softfloat.Flags
		for i := 0; i < b.N; i++ {
			for l := range d32 {
				z, f := softfloat.Add32(a32[l], c32[l], env)
				d32[l] = z
				fl |= f
			}
		}
		_ = fl
	})
	b.Run("width32/lanes", func(b *testing.B) {
		var fl softfloat.Flags
		for i := 0; i < b.N; i++ {
			fl |= softfloat.AddLanes32(d32, a32, c32, env)
		}
		_ = fl
	})
}
