// Cloning in production: the paper's Figure 1(b) use-case. At job
// launch the scheduler captures a *submission clone* — program plus
// parameters — and runs the user's job untouched (no overhead at all).
// The serialized clones go to the analyst, who replays them offline
// under aggressive instruction-level FPSpy tracing.
package main

import (
	"fmt"

	fpspy "repro"
	"repro/internal/jobs"
	"repro/internal/workload"
)

func main() {
	queue := []string{"enzo", "ext/lu_cb", "blackscholes"}

	// --- Production side: capture clones, run jobs untouched. ---
	var archive [][]byte
	fmt.Println("production launch log:")
	for _, name := range queue {
		w, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		job := jobs.Capture(name, w.Build(workload.SizeSmall), nil, 4<<20)
		blob, err := job.Encode()
		if err != nil {
			panic(err)
		}
		archive = append(archive, blob)
		res, err := job.RunProduction()
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %-14s exit %d, %8d instructions, clone archived (%d bytes)\n",
			name, res.ExitCode, res.Steps, len(blob))
	}

	// --- Analyst side, later: replay clones with aggressive tracing. ---
	fmt.Println("\noffline analysis of archived clones:")
	for _, blob := range archive {
		clone, err := jobs.Decode(blob)
		if err != nil {
			panic(err)
		}
		res, err := clone.Replay(fpspy.Config{
			Mode:       fpspy.ModeIndividual,
			Aggressive: true,
			ExceptList: fpspy.AllEvents &^ fpspy.FlagInexact,
		})
		if err != nil {
			panic(err)
		}
		recs := res.Store.AllRecords()
		fmt.Printf("  %-14s %d problematic events", clone.Name, len(recs))
		if len(recs) > 0 {
			fmt.Printf(" (first: %s at %#x raised %v)",
				fpspy.Mnemonic(&recs[0]), recs[0].Rip, recs[0].Raised)
		}
		fmt.Println()
	}
}
