// Command fpanalyze runs the paper's trace analyses over binary trace
// files: rank-popularity by instruction form and by address (with
// 99%-coverage statistics), and event-rate time series. With -log it also
// reports FPSpy's robustness monitor log: degradations, typed abort
// reasons, and how hard the application fought for FPSpy's signals.
//
// Usage:
//
//	fpanalyze [-forms] [-addrs] [-rate BIN_US] [-log FILE.fplog]
//	          [-absint WORKLOAD [-size small|large]] [-accumtree]
//	          [-rootcause WORKLOAD [-rcprec 113] [-rcmitprec 113] [-rctop 20]]
//	          [<file.fpemon>...]
//
// With -rootcause the named workload runs in-process under the
// shadow-precision channel (FPE_SHADOW): every FP instruction is
// recomputed at -rcprec mantissa bits, sites are ranked by the rounding
// error they introduce, the attribution is cross-checked against an
// individual-mode dynamic trace (an inconsistency fails the run), and
// the adaptive-precision mitigated leg at -rcmitprec renders the
// unmitigated-vs-mitigated comparison.
//
// With -absint the per-address rank table is cross-referenced against
// the abstract interpreter's static verdicts for the named workload (the
// static counterpart of the paper's Figure 19), and any dynamically
// raised condition at a statically never-trap site fails the run.
//
// With -accumtree the trace is treated as an FPRev-style probe run
// (fpstudy -probetraces): the per-trial exception counts are decoded
// from the self-describing report gadget and the guest's accumulation
// tree is reconstructed, printed in canonical form alongside its
// fingerprint. Traces that do not carry a valid probe protocol fail
// the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/study"
	"repro/internal/trace"
)

func main() {
	forms := flag.Bool("forms", true, "rank instruction forms")
	addrs := flag.Bool("addrs", true, "rank instruction addresses")
	rateBin := flag.Float64("rate", 0, "emit an events/s time series with this bin size in microseconds")
	logPath := flag.String("log", "", "also report a robustness monitor log (.fplog)")
	absintW := flag.String("absint", "", "cross-reference the address ranks against static verdicts for this workload")
	absintSize := flag.String("size", "large", "problem size for -absint: small or large")
	accumTree := flag.Bool("accumtree", false, "reconstruct an FPRev-style probe's accumulation tree from the trace")
	rootCauseW := flag.String("rootcause", "", "run this workload under the shadow-precision channel and rank sites by introduced rounding error")
	rcPrec := flag.Uint64("rcprec", study.DefaultShadowPrec, "shadow precision in mantissa bits (with -rootcause)")
	rcMitPrec := flag.Uint("rcmitprec", study.DefaultShadowPrec, "adaptive-mitigation precision for the comparison figure (with -rootcause; 0 skips)")
	rcTop := flag.Int("rctop", 20, "sites to print (with -rootcause; 0 = all)")
	pprofAddr := flag.String("pprof", "", "serve pprof on this address while analyzing")
	flag.Parse()
	if *pprofAddr != "" {
		srv, err := obs.Serve(*pprofAddr, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpanalyze:", err)
			os.Exit(1)
		}
		defer srv.Close()
	}
	if *rootCauseW != "" && flag.NArg() == 0 {
		if *logPath != "" {
			reportMonitorLog(*logPath)
		}
		if !reportRootCause(*rootCauseW, *absintSize, *rcPrec, *rcMitPrec, *rcTop) {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() == 0 && *logPath == "" {
		fmt.Fprintln(os.Stderr, "usage: fpanalyze [-forms] [-addrs] [-rate BIN_US] [-log FILE.fplog] [-rootcause WORKLOAD] [<file.fpemon>...]")
		os.Exit(2)
	}

	if *logPath != "" {
		reportMonitorLog(*logPath)
		if flag.NArg() == 0 {
			return
		}
		fmt.Println()
	}

	var recs []trace.Record
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpanalyze:", err)
			os.Exit(1)
		}
		rs, err := trace.Decode(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fpanalyze: %s: %v\n", path, err)
			os.Exit(1)
		}
		recs = append(recs, rs...)
	}
	first, last := analysis.Span(recs)
	fmt.Printf("%d records over %d threads spanning %.3fms\n",
		len(recs), len(analysis.ByThread(recs)),
		float64(last-first)/study.ClockHz*1e3)

	fmt.Println("\nevents by class:")
	for _, ec := range analysis.CountByEvent(recs) {
		fmt.Printf("  %-6v %d\n", ec.Event, ec.Count)
	}

	if *forms {
		ranks := analysis.RankByForm(recs)
		fmt.Printf("\ninstruction forms: %d total, %d cover 99%% of events\n",
			len(ranks), analysis.CoverageCount(ranks, 0.99))
		for _, e := range ranks {
			fmt.Printf("  %-12s %d\n", e.Key, e.Count)
		}
	}
	if *addrs {
		ranks := analysis.RankByAddress(recs)
		fmt.Printf("\ninstruction addresses: %d sites, %d cover 99%% of events\n",
			len(ranks), analysis.CoverageCount(ranks, 0.99))
		limit := 20
		if len(ranks) < limit {
			limit = len(ranks)
		}
		for _, e := range ranks[:limit] {
			fmt.Printf("  %-12s %d\n", e.Key, e.Count)
		}
		if len(ranks) > limit {
			fmt.Printf("  ... %d more\n", len(ranks)-limit)
		}
	}
	if *rateBin > 0 {
		pts := analysis.RateSeries(recs, *rateBin*1e-6, study.ClockHz)
		fmt.Printf("\nevent rate (%gus bins):\n", *rateBin)
		for _, p := range pts {
			fmt.Printf("  %10.2fus %12.0f events/s\n", p.TimeSec*1e6, p.EventsPerSec)
		}
	}
	if *absintW != "" {
		if !reportAbsint(*absintW, *absintSize, recs) {
			os.Exit(1)
		}
	}
	if *accumTree {
		if !reportAccumTree(recs) {
			os.Exit(1)
		}
	}
	if *rootCauseW != "" {
		if !reportRootCause(*rootCauseW, *absintSize, *rcPrec, *rcMitPrec, *rcTop) {
			os.Exit(1)
		}
	}
}

// reportAccumTree reconstructs the accumulation tree an FPRev-style
// probe trace encodes and prints its canonical form and fingerprint.
func reportAccumTree(recs []trace.Record) bool {
	fs, err := analysis.ProbeTrialCounts(recs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpanalyze:", err)
		return false
	}
	tree, err := analysis.RecoverProbeTree(recs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpanalyze:", err)
		return false
	}
	fmt.Printf("\naccumulation tree: n=%d leaves over %d trials\n", tree.LeafCount(), len(fs))
	fmt.Printf("  canonical:   %s\n", tree.Canonical())
	fmt.Printf("  fingerprint: %s\n", tree.Fingerprint())
	return true
}

// reportMonitorLog summarizes a robustness monitor log: every
// degradation with its typed reason, plus signal-fight totals.
func reportMonitorLog(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpanalyze:", err)
		os.Exit(1)
	}
	evs, err := trace.ParseMonitorLog(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpanalyze: %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("monitor log: %d events\n", len(evs))
	fights := map[string]uint64{}
	for _, e := range evs {
		switch e.Kind {
		case trace.EventAbort:
			fmt.Printf("  pid %d: aborted (%s -> %s) at t=%d: reason=%s\n",
				e.PID, e.From, e.To, e.Time, e.Reason)
		case trace.EventDemote:
			fmt.Printf("  pid %d: demoted (%s -> %s) at t=%d: reason=%s\n",
				e.PID, e.From, e.To, e.Time, e.Reason)
		case trace.EventReassert:
			fmt.Printf("  pid %d tid %d: re-asserted masks at t=%d (%s)\n",
				e.PID, e.TID, e.Time, e.Reason)
		case trace.EventSignalFight:
			fights[e.Signal]++
		}
	}
	sigs := make([]string, 0, len(fights))
	for sig := range fights {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		fmt.Printf("  app fought for %s %d times (absorbed)\n", sig, fights[sig])
	}
}
