package main

import (
	"fmt"
	"os"

	fpspy "repro"
	"repro/internal/softfloat"
	"repro/internal/workload"
)

// reportRootCause runs the named workload with the shadow-precision
// channel attached and renders the ranked per-site attribution: which
// instruction sites introduce the rounding error, how much of it is
// local versus inherited, and how concentrated the error mass is (the
// paper's 99%-coverage locality statistic over ULPs instead of event
// counts). A second, individual-mode pass cross-checks the attribution
// against the dynamic trace — every site charged with local error must
// have raised Inexact dynamically — and a mitigated leg at mitPrec
// renders the unmitigated-vs-mitigated comparison. Returns false (and
// reports why) when the consistency check fails.
func reportRootCause(name, sizeName string, prec uint64, mitPrec uint, top int) bool {
	w, err := workload.ByName(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpanalyze:", err)
		os.Exit(1)
	}
	size, err := workload.ParseSize(sizeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpanalyze:", err)
		os.Exit(2)
	}

	run, err := fpspy.Run(w.Build(size), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeAggregate, ShadowPrec: prec},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpanalyze:", err)
		os.Exit(1)
	}
	rep := run.RootCause(prec)
	if rep == nil {
		fmt.Printf("\nroot cause (%s, %s): no shadow-executed FP sites\n", name, sizeName)
		return true
	}

	fmt.Printf("\nroot cause (%s, %s) @ %d-bit shadow: %d sites, %d ops, %.6g ulps introduced, 99%% of error in top %d, max divergence %d ulps\n",
		name, sizeName, rep.Prec, len(rep.Sites), rep.TotalOps,
		rep.TotalLocalUlps, rep.Sites99, rep.MaxUlps)
	fmt.Printf("  %4s  %-12s %-8s %10s %10s  %12s %12s %8s\n",
		"rank", "addr", "op", "count", "diverged", "local-ulps", "prop-ulps", "max-ulps")
	for i := range rep.Sites {
		s := &rep.Sites[i]
		if top > 0 && i >= top {
			fmt.Printf("  ... %d more sites\n", len(rep.Sites)-i)
			break
		}
		fmt.Printf("  %4d  %#-12x %-8s %10d %10d  %12.4g %12.4g %8d\n",
			i+1, s.Addr, s.Op, s.Count, s.Diverged, s.LocalUlps, s.PropUlps, s.MaxUlps)
	}

	// Trace consistency: a site that introduces local error rounded, so
	// it must appear in an unsampled individual-mode trace with Inexact
	// raised. (The converse does not hold — unsupported forms and dirty
	// rounding environments trace without being shadow-attributed.)
	ok := true
	tr, err := fpspy.Run(w.Build(size), fpspy.Options{
		Config: fpspy.Config{Mode: fpspy.ModeIndividual, ExceptList: fpspy.AllEvents},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpanalyze:", err)
		os.Exit(1)
	}
	recs := tr.Store.AllRecords()
	inexact := map[uint64]bool{}
	for i := range recs {
		if recs[i].Raised&softfloat.FlagInexact != 0 {
			inexact[recs[i].Rip] = true
		}
	}
	checked := 0
	for i := range rep.Sites {
		s := &rep.Sites[i]
		if s.LocalUlps <= 0 {
			continue
		}
		checked++
		if !inexact[s.Addr] {
			fmt.Fprintf(os.Stderr, "fpanalyze: ROOTCAUSE INCONSISTENT WITH TRACE: site %#x (%s) charged %.4g local ulps but never raised Inexact dynamically\n",
				s.Addr, s.Op, s.LocalUlps)
			ok = false
		}
	}
	if ok {
		fmt.Printf("  consistency: all %d error-introducing sites raised Inexact in the dynamic trace (%d records)\n",
			checked, len(recs))
	}

	if mitPrec > 0 {
		_, stats, err := fpspy.RunMitigated(w.Build(size), mitPrec, fpspy.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpanalyze:", err)
			os.Exit(1)
		}
		fmt.Printf("\n  unmitigated vs mitigated (adaptive precision p=%d):\n", mitPrec)
		fmt.Printf("    %-24s %14s %14s\n", "", "unmitigated", "mitigated")
		fmt.Printf("    %-24s %14.6g %14s\n", "introduced error (ulps)", rep.TotalLocalUlps, "(shadowed out)")
		fmt.Printf("    %-24s %14d %14d\n", "rounding ops", rep.TotalOps, stats.Emulated)
		fmt.Printf("    %-24s %14s %14d\n", "results improved", "-", stats.Improved)
	}
	return ok
}
