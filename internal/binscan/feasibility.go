package binscan

import (
	"sort"

	"repro/internal/analysis"
)

// PatchReport is the Section 6 patch-feasibility pass computed from the
// static site inventory: how many rounding sites exist, how many the
// mitigator could emulate, and what the amortization model says about
// patching them versus trap-and-emulating.
type PatchReport struct {
	// TotalSites and ReachableSites count the floating point sites.
	TotalSites, ReachableSites int
	// EmulableSites counts sites whose form the Section 6 mitigator
	// emulates (Site.Emulable); EmulableReachable restricts to reachable
	// ones.
	EmulableSites, EmulableReachable int
	// UnsupportedForms lists forms present in reachable code that the
	// mitigator cannot emulate (they would fall back to mask-and-step).
	UnsupportedForms []string
	// Feasibility is the Section 6 amortization model evaluated over the
	// static site counts (each site weighted equally — the conservative
	// assumption available before any dynamic profile exists).
	Feasibility analysis.FeasibilityReport
}

// PatchFeasibility evaluates binary-patching feasibility from static
// information alone: every reachable site is assumed to fire, each with
// equal weight. patchCycles is the one-time per-site patching cost,
// emulCycles the per-event software emulation cost, and trapCycles the
// per-event cost of the trap-and-emulate alternative (two kernel
// crossings). With a dynamic profile, analysis.Feasibility can be called
// directly on measured rank tables instead.
func (s *Scan) PatchFeasibility(patchCycles, emulCycles, trapCycles float64) PatchReport {
	rep := PatchReport{TotalSites: len(s.Sites)}
	unsupported := make(map[string]bool)
	for i := range s.Sites {
		site := &s.Sites[i]
		if site.Emulable {
			rep.EmulableSites++
		}
		if !site.Reachable {
			continue
		}
		rep.ReachableSites++
		if site.Emulable {
			rep.EmulableReachable++
		} else {
			unsupported[site.Op.String()] = true
		}
	}
	rep.UnsupportedForms = make([]string, 0, len(unsupported))
	for f := range unsupported {
		rep.UnsupportedForms = append(rep.UnsupportedForms, f)
	}
	sort.Strings(rep.UnsupportedForms)
	rep.Feasibility = analysis.Feasibility(
		s.AddressInventory(true), s.FormInventory(true),
		patchCycles, emulCycles, trapCycles)
	return rep
}
