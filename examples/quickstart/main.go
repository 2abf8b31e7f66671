// Quickstart: build a tiny guest program with the public API, run it
// under FPSpy in individual mode, and print every captured floating
// point event.
package main

import (
	"fmt"
	"math"

	fpspy "repro"
	"repro/internal/isa"
)

func main() {
	// A five-line numerical program: compute 1/3 (rounds), divide by
	// zero, and take sqrt(-1) (invalid).
	b := fpspy.NewProgram("quickstart")
	b.Movi(isa.R1, int64(math.Float64bits(1)))
	b.Movqx(isa.X0, isa.R1)
	b.Movi(isa.R1, int64(math.Float64bits(3)))
	b.Movqx(isa.X1, isa.R1)
	b.FP2(isa.OpDIVSD, isa.X2, isa.X0, isa.X1) // 1/3: Inexact
	b.Movqx(isa.X3, isa.R0)                    // +0
	b.FP2(isa.OpDIVSD, isa.X4, isa.X0, isa.X3) // 1/0: DivideByZero
	b.Movi(isa.R1, int64(math.Float64bits(-1)))
	b.Movqx(isa.X5, isa.R1)
	b.FP1(isa.OpSQRTSD, isa.X6, isa.X5) // sqrt(-1): Invalid
	b.Hlt()

	res, err := fpspy.Run(b.Build(), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual},
	})
	if err != nil {
		panic(err)
	}

	fmt.Println("FPSpy captured:")
	for _, rec := range res.Store.AllRecords() {
		fmt.Printf("  %-8s at %#x raised %v (delivered %v)\n",
			fpspy.Mnemonic(&rec), rec.Rip, rec.Raised, rec.Event)
	}
	fmt.Printf("event set: %v\n", res.EventSet())
}
