// Rounding mitigation: the paper's Section 6 prospect, made concrete.
// First, FPSpy traces establish the locality of rounding instructions
// (few sites, few forms); then the shadow-precision channel re-executes
// a guest kernel at higher precision and measures the rounding error
// the hardware accumulates; finally the trap-and-emulate mitigator runs
// the same kernel against that software FPU (in place of MPFR) and
// reports how much accuracy it recovers.
package main

import (
	"fmt"
	"math"

	fpspy "repro"
	"repro/internal/analysis"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/shadow"
	"repro/internal/workload"
)

// buildNaiveSum sums 0.1 a hundred thousand times — the classic
// error-accumulation kernel.
func buildNaiveSum(n int64) *fpspy.Program {
	b := fpspy.NewProgram("naive-sum")
	b.Movi(isa.R6, int64(math.Float64bits(0.1)))
	b.Movqx(isa.X1, isa.R6)
	b.Movqx(isa.X0, isa.R0)
	b.Movi(isa.R8, 0)
	b.Movi(isa.R9, n)
	top := b.Label("top")
	b.Bind(top)
	b.FP2(isa.OpADDSD, isa.X0, isa.X0, isa.X1)
	b.Addi(isa.R8, isa.R8, 1)
	b.Blt(isa.R8, isa.R9, top)
	b.Movi(isa.R10, 128)
	b.Fst(isa.R10, 0, isa.X0)
	b.Hlt()
	return b.Build()
}

func main() {
	// Step 1 — FPSpy locality analysis on a real application's rounding.
	w, err := workload.ByName("moose")
	if err != nil {
		panic(err)
	}
	res, err := fpspy.Run(w.Build(workload.SizeSmall), fpspy.Options{
		Config: fpspy.Config{
			Mode:       fpspy.ModeIndividual,
			SampleOnUS: 5, SampleOffUS: 100, Poisson: true, VirtualTimer: true,
		},
	})
	if err != nil {
		panic(err)
	}
	recs := res.MustRecords()
	byAddr := analysis.RankByAddress(recs)
	byForm := analysis.RankByForm(recs)
	rep := analysis.Feasibility(byAddr, byForm, 50_000, 150, 4_000)
	fmt.Printf("moose rounding locality: %d sites (%d cover 99%%), %d forms (%d cover 99%%)\n",
		rep.Sites, rep.Sites99, rep.Forms, rep.Forms99)
	fmt.Printf("mitigation cost: %.0f cycles/event patched vs %.0f trapped — patch wins: %v\n\n",
		rep.PatchCyclesPerEvent, rep.TrapCyclesPerEvent, rep.PatchWins)

	// Step 2 — shadow execution at increasing precision.
	const n = 100_000
	exact := float64(n) * 0.1
	for _, prec := range []uint{53, 113, 256} {
		m := machine.New(buildNaiveSum(n), 4096)
		ch := shadow.Attach(m, prec, nil)
		if _, ev := m.RunStraight(10_000_000); ev == nil {
			panic("did not halt")
		}
		st := ch.Stats()
		hw := math.Float64frombits(m.CPU.X[isa.X0][0])
		fmt.Printf("precision %3d bits: hardware err %.3e, hw-vs-shadow divergence %d ulps (%d ops emulated)\n",
			prec, math.Abs(hw-exact)/exact, st.MaxUlps, st.Ops)
	}
	fmt.Println("\nhigher shadow precision exposes exactly the rounding error the")
	fmt.Println("hardware accumulates; at 53 bits the shadow reproduces it bit-for-bit.")

	// Step 3 — the full system: fpmitigate.so in LD_PRELOAD underneath
	// an unmodified binary. Rounding instructions trap, get emulated at
	// 256-bit precision, and the improved results are written back
	// through the signal context.
	fmt.Println()
	plain, err := fpspy.Run(buildNaiveSum(n), fpspy.Options{NoSpy: true})
	if err != nil {
		panic(err)
	}
	mitigated, stats, err := fpspy.RunMitigated(buildNaiveSum(n), 256, fpspy.Options{})
	if err != nil {
		panic(err)
	}
	read := func(r *fpspy.Result) float64 {
		v, _ := r.Proc.Mem.Load64(128)
		return math.Float64frombits(v)
	}
	fmt.Printf("trap-and-emulate under LD_PRELOAD (naive %d-term sum of 0.1):\n", n)
	fmt.Printf("  plain hardware result: %.15f (err %.3e)\n", read(plain), math.Abs(read(plain)-exact))
	fmt.Printf("  mitigated result:      %.15f (err %.3e)\n", read(mitigated), math.Abs(read(mitigated)-exact))
	fmt.Printf("  %d instructions emulated, %d results improved, %d fallbacks\n",
		stats.Emulated, stats.Improved, stats.Fallbacks)
}
