// Package analysis implements the trace analyses of the FPSpy paper's
// evaluation: rank-popularity distributions over instruction forms
// (Figure 17) and instruction addresses (Figure 19), the cross-code form
// histogram with its GROMACS-only tail (Figure 18), event-rate time
// series (Figures 12 and 13), inexact counts and rates (Figure 15), and
// cumulative event curves (Figure 16).
package analysis

import (
	"sort"

	"repro/internal/isa"
	"repro/internal/softfloat"
	"repro/internal/trace"
)

// RankEntry is one entry of a rank-popularity distribution.
type RankEntry struct {
	// Key is the instruction form mnemonic or the formatted address.
	Key string
	// Count is the number of captured events attributed to the key.
	Count uint64
}

// rank builds a descending rank-popularity list from a counting map.
func rank(counts map[string]uint64) []RankEntry {
	out := make([]RankEntry, 0, len(counts))
	for k, c := range counts {
		out = append(out, RankEntry{Key: k, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// RankByForm counts captured events by instruction form, most popular
// first (the paper's Figure 17). It counts over every slice given, as
// if they were one.
func RankByForm(sets ...[]trace.Record) []RankEntry {
	counts := make(map[string]uint64)
	for _, recs := range sets {
		for i := range recs {
			counts[isa.Opcode(recs[i].Opcode).String()]++
		}
	}
	return rank(counts)
}

// RankByAddress counts captured events by faulting instruction address
// (the paper's Figure 19), over every slice given.
func RankByAddress(sets ...[]trace.Record) []RankEntry {
	counts := make(map[uint64]uint64)
	for _, recs := range sets {
		for i := range recs {
			counts[recs[i].Rip]++
		}
	}
	out := make([]RankEntry, 0, len(counts))
	for a, c := range counts {
		out = append(out, RankEntry{Key: FormatAddr(a), Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// FormatAddr renders an instruction address as the analyses and rank
// tables print it (0x-prefixed lowercase hex).
func FormatAddr(v uint64) string {
	const digits = "0123456789abcdef"
	buf := [18]byte{'0', 'x'}
	n := 2
	started := false
	for shift := 60; shift >= 0; shift -= 4 {
		d := (v >> uint(shift)) & 0xF
		if d != 0 || started || shift == 0 {
			buf[n] = digits[d]
			n++
			started = true
		}
	}
	return string(buf[:n])
}

// CoverageCount returns how many top-ranked entries are needed to cover
// the given fraction of all events — the "<5 forms cover >99%" statistic.
func CoverageCount(entries []RankEntry, fraction float64) int {
	var total uint64
	for _, e := range entries {
		total += e.Count
	}
	if total == 0 {
		return 0
	}
	target := uint64(fraction * float64(total))
	var cum uint64
	for i, e := range entries {
		cum += e.Count
		if cum >= target {
			return i + 1
		}
	}
	return len(entries)
}

// FilterEvent keeps records whose delivered event matches the flag.
func FilterEvent(recs []trace.Record, flag softfloat.Flags) []trace.Record {
	var out []trace.Record
	for i := range recs {
		if recs[i].Event == flag {
			out = append(out, recs[i])
		}
	}
	return out
}

// RatePoint is one bin of an event-rate time series.
type RatePoint struct {
	// TimeSec is the bin's start time in seconds.
	TimeSec float64
	// EventsPerSec is the bin's event rate.
	EventsPerSec float64
}

// RateSeries bins records by timestamp into bins of binSeconds at the
// given clock rate, producing events/second over time (Figures 12, 13).
func RateSeries(recs []trace.Record, binSeconds float64, hz float64) []RatePoint {
	if len(recs) == 0 {
		return nil
	}
	binCycles := binSeconds * hz
	var maxT uint64
	for i := range recs {
		if recs[i].Time > maxT {
			maxT = recs[i].Time
		}
	}
	nbins := int(float64(maxT)/binCycles) + 1
	bins := make([]uint64, nbins)
	for i := range recs {
		bins[int(float64(recs[i].Time)/binCycles)]++
	}
	out := make([]RatePoint, nbins)
	for i, c := range bins {
		out[i] = RatePoint{
			TimeSec:      float64(i) * binSeconds,
			EventsPerSec: float64(c) / binSeconds,
		}
	}
	return out
}

// CumulativeAt counts, in place, the records delivering flag at or
// before sec seconds at clock rate hz: one point of a cumulative event
// curve (Figure 16).
func CumulativeAt(recs []trace.Record, flag softfloat.Flags, hz, sec float64) int {
	n := 0
	for i := range recs {
		if recs[i].Event == flag && float64(recs[i].Time)/hz <= sec {
			n++
		}
	}
	return n
}

// FormUsage summarizes, across a set of codes, which instruction forms
// each uses (Figure 18).
type FormUsage struct {
	// CodesByForm maps each form to the codes whose traces contain it.
	CodesByForm map[string][]string
	// UniqueTo maps each code to the forms only it uses.
	UniqueTo map[string][]string
}

// FormsAcrossCodes builds the Figure 18 histogram input from per-code
// record sets, each code's records in one or more slices.
func FormsAcrossCodes(byCode map[string][][]trace.Record) FormUsage {
	usage := FormUsage{
		CodesByForm: make(map[string][]string),
		UniqueTo:    make(map[string][]string),
	}
	codeForms := make(map[string]map[string]bool)
	names := make([]string, 0, len(byCode))
	for name := range byCode {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		forms := make(map[string]bool)
		for _, recs := range byCode[name] {
			for i := range recs {
				forms[isa.Opcode(recs[i].Opcode).String()] = true
			}
		}
		codeForms[name] = forms
		for f := range forms {
			usage.CodesByForm[f] = append(usage.CodesByForm[f], name)
		}
	}
	for f, codes := range usage.CodesByForm {
		sort.Strings(codes)
		if len(codes) == 1 {
			code := codes[0]
			usage.UniqueTo[code] = append(usage.UniqueTo[code], f)
		}
	}
	for _, forms := range usage.UniqueTo {
		sort.Strings(forms)
	}
	return usage
}

// TotalEvents sums the counts of a rank distribution.
func TotalEvents(entries []RankEntry) uint64 {
	var total uint64
	for _, e := range entries {
		total += e.Count
	}
	return total
}

// EventCount pairs a delivered-event class with its record count.
type EventCount struct {
	// Event is the priority-encoded delivered exception.
	Event softfloat.Flags
	// Count is the number of records delivering it.
	Count uint64
}

// CountByEvent tallies records by delivered event, in MXCSR priority
// order (the breakdown fpanalyze and the summaries print).
func CountByEvent(recs []trace.Record) []EventCount {
	counts := map[softfloat.Flags]uint64{}
	for i := range recs {
		counts[recs[i].Event]++
	}
	order := []softfloat.Flags{
		softfloat.FlagInvalid, softfloat.FlagDenormal,
		softfloat.FlagDivideByZero, softfloat.FlagOverflow,
		softfloat.FlagUnderflow, softfloat.FlagInexact,
	}
	var out []EventCount
	for _, f := range order {
		if counts[f] > 0 {
			out = append(out, EventCount{Event: f, Count: counts[f]})
		}
	}
	return out
}

// ByThread splits records by originating thread id.
func ByThread(recs []trace.Record) map[uint32][]trace.Record {
	out := map[uint32][]trace.Record{}
	for i := range recs {
		out[recs[i].TID] = append(out[recs[i].TID], recs[i])
	}
	return out
}

// StaticCoverage compares a statically discovered site inventory with a
// dynamic trace: how much of the static prediction the run exercised,
// and whether any dynamic event escaped the static analysis. It is the
// quantitative form of the paper's Section 6 argument — static sites are
// few, dynamic events concentrate on fewer still.
type StaticCoverage struct {
	// StaticSites is the size of the static inventory.
	StaticSites int
	// DynamicSites is the number of distinct trap addresses in the trace.
	DynamicSites int
	// CoveredSites counts static sites the trace exercised.
	CoveredSites int
	// UnknownSites counts dynamic addresses absent from the inventory
	// (nonzero means the static analysis is unsound).
	UnknownSites int
	// SiteCoverage is CoveredSites / StaticSites.
	SiteCoverage float64
	// EventCoverage is the fraction of trace events that occurred at a
	// statically discovered site (1.0 when the analysis is sound).
	EventCoverage float64
}

// StaticCoverageOf computes coverage of a static site set (addresses,
// e.g. from internal/binscan's Scan.SiteAddrs) by a dynamic trace.
func StaticCoverageOf(recs []trace.Record, sites map[uint64]bool) StaticCoverage {
	cov := StaticCoverage{StaticSites: len(sites)}
	seen := make(map[uint64]bool)
	known := 0
	for i := range recs {
		addr := recs[i].Rip
		if sites[addr] {
			known++
		}
		if seen[addr] {
			continue
		}
		seen[addr] = true
		cov.DynamicSites++
		if sites[addr] {
			cov.CoveredSites++
		} else {
			cov.UnknownSites++
		}
	}
	if cov.StaticSites > 0 {
		cov.SiteCoverage = float64(cov.CoveredSites) / float64(cov.StaticSites)
	}
	if len(recs) > 0 {
		cov.EventCoverage = float64(known) / float64(len(recs))
	}
	return cov
}

// Span returns the first and last event timestamps (cycles).
func Span(recs []trace.Record) (first, last uint64) {
	if len(recs) == 0 {
		return 0, 0
	}
	first, last = recs[0].Time, recs[0].Time
	for i := range recs {
		if recs[i].Time < first {
			first = recs[i].Time
		}
		if recs[i].Time > last {
			last = recs[i].Time
		}
	}
	return first, last
}
