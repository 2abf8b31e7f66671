package analysis

// FeasibilityReport is the amortization analysis of Section 6: whether
// the locality of rounding sites makes a mitigation system practical.
type FeasibilityReport struct {
	// Sites is the number of distinct rounding instruction addresses.
	Sites int
	// Forms is the number of distinct instruction forms.
	Forms int
	// Sites99 and Forms99 cover 99% of events.
	Sites99, Forms99 int
	// TotalEvents is the rounding event count.
	TotalEvents uint64
	// PatchCyclesPerEvent is the projected per-event cost with binary
	// patching of the top sites amortized over the events they receive.
	PatchCyclesPerEvent float64
	// TrapCyclesPerEvent is the per-event cost of trap-and-emulate.
	TrapCyclesPerEvent float64
	// PatchWins reports whether patching beats trapping.
	PatchWins bool
}

// Feasibility evaluates the mitigation cost model over rank-popularity
// distributions: patching costs patchCycles once per site plus
// emulCycles per event; trap-and-emulate costs trapCycles per event.
func Feasibility(byAddr, byForm []RankEntry, patchCycles, emulCycles, trapCycles float64) FeasibilityReport {
	total := TotalEvents(byAddr)
	rep := FeasibilityReport{
		Sites:       len(byAddr),
		Forms:       len(byForm),
		Sites99:     CoverageCount(byAddr, 0.99),
		Forms99:     CoverageCount(byForm, 0.99),
		TotalEvents: total,
	}
	if total == 0 {
		return rep
	}
	rep.PatchCyclesPerEvent = (patchCycles*float64(rep.Sites) + emulCycles*float64(total)) / float64(total)
	rep.TrapCyclesPerEvent = trapCycles
	rep.PatchWins = rep.PatchCyclesPerEvent < rep.TrapCyclesPerEvent
	return rep
}
