// Lab study: the paper's "spying in the lab" use-case (Figure 1c). The
// analyst re-runs a problematic job under aggressive individual-mode
// tracing with full detail, then drills into the trace: which
// instructions cause the events, their temporal pattern, and the
// locality statistics that motivate a mitigation system.
package main

import (
	"fmt"

	fpspy "repro"
	"repro/internal/analysis"
	"repro/internal/study"
	"repro/internal/workload"
)

func main() {
	// The production spy red-flagged ENZO for NaNs; reproduce in the lab
	// with full instruction-level capture (no sampling, all events but
	// Inexact — the Figure 11 configuration).
	w, err := workload.ByName("enzo")
	if err != nil {
		panic(err)
	}
	res, err := fpspy.Run(w.Build(workload.SizeLarge), fpspy.Options{
		Config: fpspy.Config{
			Mode:       fpspy.ModeIndividual,
			Aggressive: true,
			ExceptList: fpspy.AllEvents &^ fpspy.FlagInexact,
		},
	})
	if err != nil {
		panic(err)
	}
	recs := res.Store.AllRecords()
	fmt.Printf("captured %d non-rounding events from enzo\n\n", len(recs))

	// Which instructions?
	fmt.Println("faulting sites:")
	for _, e := range analysis.RankByAddress(recs) {
		fmt.Printf("  %-12s %6d events\n", e.Key, e.Count)
	}

	// What kinds?
	fmt.Println("\nforms:")
	for _, e := range analysis.RankByForm(recs) {
		fmt.Printf("  %-12s %6d events\n", e.Key, e.Count)
	}

	// When? (the paper's Figure 12: NaN rate rises with AMR refinement)
	invalids := analysis.FilterEvent(recs, fpspy.FlagInvalid)
	fmt.Println("\nInvalid (NaN) rate over time:")
	for _, p := range analysis.RateSeries(invalids, 100e-6, study.ClockHz) {
		bar := ""
		for i := 0; i < int(p.EventsPerSec/20000); i++ {
			bar += "#"
		}
		fmt.Printf("  %7.2fms %9.0f/s %s\n", p.TimeSec*1e3, p.EventsPerSec, bar)
	}
}
