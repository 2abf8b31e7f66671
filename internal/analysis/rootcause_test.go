package analysis

import (
	"math"
	"math/rand"
	"testing"
)

// TestBuildRootCauseOrderIndependent feeds the same attribution rows in
// shuffled orders: the float total and the 99% coverage count measured
// against it must come out bit-identical, so a cached report does not
// depend on which peer computed it.
func TestBuildRootCauseOrderIndependent(t *testing.T) {
	var rows []RootCauseSite
	for i := 0; i < 64; i++ {
		// Magnitudes spread over 12 decades make the sum order-sensitive.
		ulps := math.Pow(10, float64(i%13)-6) * (1 + float64(i)/7)
		rows = append(rows, RootCauseSite{Addr: 0x400000 + uint64(i)*8, Count: 1, LocalUlps: ulps})
	}
	want := BuildRootCause(113, rows)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]RootCauseSite(nil), rows...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := BuildRootCause(113, shuffled)
		if math.Float64bits(got.TotalLocalUlps) != math.Float64bits(want.TotalLocalUlps) {
			t.Fatalf("trial %d: total %v, want %v", trial, got.TotalLocalUlps, want.TotalLocalUlps)
		}
		if got.Sites99 != want.Sites99 {
			t.Fatalf("trial %d: Sites99 %d, want %d", trial, got.Sites99, want.Sites99)
		}
	}
}
