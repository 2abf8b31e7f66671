// Command fpscan statically analyzes guest workload binaries with
// internal/binscan: CFG recovery and reachability, the floating point
// site inventory by instruction form, interposed-libc references split
// into present vs reachable, and the Section 6 patch-feasibility
// summary. With -validate it additionally runs the workload under FPSpy
// in individual mode and replays the captured trace against the scan,
// reporting the precision/recall of the static prediction (recall must
// be 1.0 — every dynamic trap address is a statically discovered site).
//
// Usage:
//
//	fpscan [-size small|large] [-validate] [-top N] <workload>...
//	fpscan -all
package main

import (
	"flag"
	"fmt"
	"os"

	fpspy "repro"
	"repro/internal/analysis"
	"repro/internal/binscan"
	"repro/internal/binscan/absint"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Default cycle costs for the feasibility model: patching a site costs
// ~1000 cycles once, software emulation ~150 cycles per event, and
// trap-and-emulate ~6000 cycles per event (two kernel crossings).
const (
	patchCycles = 1000
	emulCycles  = 150
	trapCycles  = 6000
)

func main() {
	all := flag.Bool("all", false, "scan every registered workload")
	sizeFlag := flag.String("size", "large", "problem size: small or large")
	validate := flag.Bool("validate", false, "run under FPSpy and validate the scan against the dynamic trace")
	absintFlag := flag.Bool("absint", false, "classify every site never/may/must-trap per exception class with the abstract interpreter")
	jsonOut := flag.Bool("json", false, "emit the scan as JSON instead of text")
	top := flag.Int("top", 10, "how many inventory entries to print per table")
	pprofAddr := flag.String("pprof", "", "serve pprof on this address while scanning")
	flag.Parse()
	if *pprofAddr != "" {
		srv, err := obs.Serve(*pprofAddr, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpscan:", err)
			os.Exit(1)
		}
		defer srv.Close()
	}

	size, err := workload.ParseSize(*sizeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpscan:", err)
		os.Exit(2)
	}

	var targets []*workload.Workload
	if *all {
		targets = workload.All()
	} else {
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "usage: fpscan [-size small|large] [-validate] [-top N] <workload>... | -all")
			os.Exit(2)
		}
		for _, name := range flag.Args() {
			w, err := workload.ByName(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fpscan:", err)
				os.Exit(1)
			}
			targets = append(targets, w)
		}
	}

	failed := false
	var scans []*jsonScan
	for _, w := range targets {
		js, ok := scanOne(w, size, *sizeFlag, *validate, *absintFlag, *jsonOut, *top)
		if !ok {
			failed = true
		}
		scans = append(scans, js)
	}
	if *jsonOut {
		if err := emitJSON(scans); err != nil {
			fmt.Fprintln(os.Stderr, "fpscan:", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func scanOne(w *workload.Workload, size workload.Size, sizeName string, validate, doAbsint, jsonMode bool, top int) (*jsonScan, bool) {
	prog := w.Build(size)
	scan := binscan.ScanProgram(prog)
	js := buildJSONScan(w.Meta.Name, sizeName, scan)
	var absRes *absint.Result
	if doAbsint {
		absRes = absint.Analyze(prog)
		js.Absint = buildJSONAbsint(absRes)
	}
	ok := scanText(w, prog, scan, js, absRes, validate, jsonMode, top)
	return js, ok
}

func scanText(w *workload.Workload, prog *isa.Program, scan *binscan.Scan, js *jsonScan, absRes *absint.Result, validate, jsonMode bool, top int) bool {
	st := scan.CFG.Stats()
	if jsonMode {
		return scanRest(w, prog, scan, js, absRes, validate, jsonMode)
	}

	fmt.Printf("=== %s ===\n", w.Meta.Name)
	fmt.Printf("cfg: %d instructions, %d blocks, %d edges, %d indirect roots\n",
		st.Insts, st.Blocks, st.Edges, st.Roots)
	fmt.Printf("reachability: %d/%d blocks, %d/%d instructions (%.1f%%)\n",
		st.ReachableBlocks, st.Blocks, st.ReachableInsts, st.Insts,
		100*float64(st.ReachableInsts)/float64(max(st.Insts, 1)))

	forms := scan.FormInventory(false)
	reach := scan.FormInventory(true)
	reachCount := map[string]uint64{}
	for _, e := range reach {
		reachCount[e.Key] = e.Count
	}
	fmt.Printf("\nfp sites by form: %d sites across %d forms (%d forms cover 99%% of sites)\n",
		analysis.TotalEvents(forms), len(forms), analysis.CoverageCount(forms, 0.99))
	limit := min(top, len(forms))
	for _, e := range forms[:limit] {
		fmt.Printf("  %-12s %5d sites  (%d reachable)\n", e.Key, e.Count, reachCount[e.Key])
	}
	if len(forms) > limit {
		fmt.Printf("  ... %d more forms\n", len(forms)-limit)
	}

	if len(scan.Libc) > 0 {
		fmt.Println("\nlibc references (present -> reachable):")
		for _, ref := range scan.Libc {
			state := "reachable"
			if !ref.Reachable() {
				state = "dead code only"
			}
			fmt.Printf("  %-16s %d site(s), %d reachable  [%s]\n",
				ref.Sym, ref.Sites, ref.ReachableSites, state)
		}
	} else {
		fmt.Println("\nlibc references: none")
	}

	rep := scan.PatchFeasibility(patchCycles, emulCycles, trapCycles)
	fmt.Printf("\npatch feasibility: %d sites (%d reachable), %d emulable by the mitigation prototype (%d reachable)\n",
		rep.TotalSites, rep.ReachableSites, rep.EmulableSites, rep.EmulableReachable)
	if len(rep.UnsupportedForms) > 0 {
		fmt.Printf("  unsupported forms (fall back to mask-and-step): %v\n", rep.UnsupportedForms)
	}
	if rep.Feasibility.TotalEvents > 0 {
		verdict := "trap-and-emulate wins"
		if rep.Feasibility.PatchWins {
			verdict = "patching wins"
		}
		fmt.Printf("  static model: patch %.0f cyc/event vs trap %.0f cyc/event -> %s\n",
			rep.Feasibility.PatchCyclesPerEvent, rep.Feasibility.TrapCyclesPerEvent, verdict)
	}

	return scanRest(w, prog, scan, js, absRes, validate, jsonMode)
}

// scanRest handles the absint verdict report and the dynamic validation
// pass, filling the JSON document and (in text mode) printing them.
func scanRest(w *workload.Workload, prog *isa.Program, scan *binscan.Scan, js *jsonScan, absRes *absint.Result, validate, jsonMode bool) bool {
	ok := true
	if absRes != nil && !jsonMode {
		ja := js.Absint
		fmt.Printf("\nabsint verdicts: %d never / %d may / %d must / %d unreachable, %d prunable",
			ja.ByVerdict["never"], ja.ByVerdict["may"], ja.ByVerdict["must"],
			ja.ByVerdict["unreachable"], ja.Prunable)
		if ja.EnvVaries {
			fmt.Print("  [env varies: pruning off]")
		}
		fmt.Println()
		shown := 0
		for i := range absRes.Sites {
			s := &absRes.Sites[i]
			if !s.Reachable || s.May == 0 {
				continue
			}
			if shown < 10 {
				fmt.Printf("  %#x %-12s may=%-15s must=%s\n", s.Addr, s.Op, s.May, s.Must)
			}
			shown++
		}
		if shown > 10 {
			fmt.Printf("  ... %d more may-trap sites\n", shown-10)
		}
	}

	if validate {
		res, err := fpspy.Run(prog, fpspy.Options{Config: fpspy.Config{
			Mode:       fpspy.ModeIndividual,
			ExceptList: fpspy.AllEvents,
		}})
		if err != nil {
			fmt.Fprintf(os.Stderr, "fpscan: %s: %v\n", w.Meta.Name, err)
			return false
		}
		recs := res.Store.AllRecords()
		v := scan.Validate(recs)
		js.Validation = buildJSONValidation(v, absRes, recs)
		if !jsonMode {
			fmt.Printf("\nstatic-vs-dynamic validation: %v\n", v)
			cov := analysis.StaticCoverageOf(recs, scan.SiteAddrs(true))
			fmt.Printf("coverage: %d/%d reachable sites exercised (%.1f%%), event coverage %.3f\n",
				cov.CoveredSites, cov.StaticSites, 100*cov.SiteCoverage, cov.EventCoverage)
		}
		if !v.Sound() {
			fmt.Fprintf(os.Stderr, "fpscan: %s: SOUNDNESS VIOLATION: missing=%#x unreachable-hit=%#x\n",
				w.Meta.Name, v.Missing, v.UnreachableHit)
			ok = false
		}
		for _, viol := range js.Validation.AbsintViolations {
			fmt.Fprintf(os.Stderr, "fpscan: %s: ABSINT SOUNDNESS VIOLATION: %s\n", w.Meta.Name, viol)
			ok = false
		}
	}
	if !jsonMode {
		fmt.Println()
	}
	return ok
}
