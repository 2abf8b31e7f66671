package main

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/binscan/absint"
	"repro/internal/softfloat"
	"repro/internal/trace"
	"repro/internal/workload"
)

// reportAbsint cross-references the dynamic per-address rank table
// against the abstract interpreter's static verdicts for the named
// workload — the static counterpart of the paper's Figure 19: which of
// the statically possible sites the run actually exercised, and whether
// any observed condition contradicts a never-trap verdict. It returns
// false on a soundness violation.
func reportAbsint(name, sizeName string, recs []trace.Record) bool {
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
	prog := w.Build(size)
	res := absint.Analyze(prog)

	// Dynamic view: events and raised-condition union per address.
	events := map[uint64]uint64{}
	raised := map[uint64]softfloat.Flags{}
	for i := range recs {
		events[recs[i].Rip]++
		raised[recs[i].Rip] |= recs[i].Raised
	}

	reachable, exercised, never := 0, 0, 0
	for i := range res.Sites {
		s := &res.Sites[i]
		if !s.Reachable {
			continue
		}
		reachable++
		if s.May == 0 {
			never++
		}
		if events[s.Addr] > 0 {
			exercised++
		}
	}
	fmt.Printf("\nstatic verdicts vs dynamic trace (%s, %s):\n", name, sizeName)
	fmt.Printf("  %d reachable sites: %d proven never-trap, %d exercised dynamically (%.1f%% of the %d may/must sites)\n",
		reachable, never, exercised,
		100*float64(exercised)/float64(max(reachable-never, 1)), reachable-never)
	if res.EnvVaries {
		fmt.Println("  note: program rewrites MXCSR; verdicts cover all rounding environments")
	}

	addrs := make([]uint64, 0, len(events))
	for a := range events {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool {
		if events[addrs[i]] != events[addrs[j]] {
			return events[addrs[i]] > events[addrs[j]]
		}
		return addrs[i] < addrs[j]
	})
	limit := 20
	if len(addrs) < limit {
		limit = len(addrs)
	}
	fmt.Println("  rank  addr         form         events     dynamic    static-may      static-must")
	for _, a := range addrs[:limit] {
		site := res.SiteAt(a)
		if site == nil {
			fmt.Printf("  !!    %#-12x %-12s %-10d %-10s NOT A STATIC SITE\n", a, "?", events[a], raised[a])
			continue
		}
		fmt.Printf("  %5d %#-12x %-12s %-10d %-10s may=%-14s must=%s\n",
			events[a], a, site.Op, events[a], raised[a], site.May, site.Must)
	}
	if len(addrs) > limit {
		fmt.Printf("  ... %d more dynamic sites\n", len(addrs)-limit)
	}

	ok := true
	for _, v := range absint.CheckSoundness(res, recs) {
		fmt.Fprintf(os.Stderr, "fpanalyze: ABSINT SOUNDNESS VIOLATION: %s\n", v)
		ok = false
	}
	if ok {
		fmt.Printf("  soundness: every dynamically raised condition is statically may-possible (%d records checked)\n", len(recs))
	}
	return ok
}
