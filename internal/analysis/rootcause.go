// Root-cause attribution: ranking floating point instruction sites by
// the rounding error they introduce, from the per-site accounting the
// shadow-precision channel (internal/shadow) accumulates. This is the
// Herbgrind-shaped complement of the paper's rank-popularity analysis:
// instead of ranking sites by how many *events* they raise, sites are
// ranked by how much *error* they inject, and the same 99%-coverage
// locality statistic tells whether mitigation effort concentrates.
package analysis

import "sort"

// RootCauseSite is one attributed instruction site. LocalUlps is the
// error the site's own rounding introduced — the sum over its dynamic
// executions of |exact − native| / ulp(native), where exact recomputes
// the op from the native inputs at high precision (≤ 0.5 per correctly
// rounded execution, exactly 0 for exact ones). PropUlps is divergence
// the site merely inherited through drifted shadow operands (total
// minus local, clamped at 0 per sample). The split is sound because
// both terms are measured against the same native output: subtracting
// the locally introduced part from the whole-divergence leaves only
// what the operands carried in.
type RootCauseSite struct {
	// Addr is the instruction address.
	Addr uint64 `json:"addr"`
	// Op is the instruction form name (e.g. "addsd").
	Op string `json:"op"`
	// Count is the number of shadow-executed lane operations.
	Count uint64 `json:"count"`
	// Diverged counts executions whose shadow rounded to different
	// native-format bits than the hardware produced.
	Diverged uint64 `json:"diverged,omitempty"`
	// NonFinite counts executions skipped under the NaN/Inf policy.
	NonFinite uint64 `json:"nonFinite,omitempty"`
	// LocalUlps is the accumulated local error in fractional ULPs.
	LocalUlps float64 `json:"localUlps"`
	// LocalRel is the accumulated local relative error.
	LocalRel float64 `json:"localRel"`
	// PropUlps is the accumulated propagated (inherited) error.
	PropUlps float64 `json:"propUlps"`
	// TotalUlps is the accumulated native-vs-shadow divergence.
	TotalUlps float64 `json:"totalUlps"`
	// MaxUlps is the largest integer ULP divergence observed.
	MaxUlps uint64 `json:"maxUlps"`
}

// MergeRootCauseSite folds b into a (same site, e.g. from two threads).
// It is commutative (sums and maxes only), but float sums are not
// associative: folding three or more rows of one site can round
// differently in another order, so callers fold in a fixed order.
func MergeRootCauseSite(a, b RootCauseSite) RootCauseSite {
	a.Count += b.Count
	a.Diverged += b.Diverged
	a.NonFinite += b.NonFinite
	a.LocalUlps += b.LocalUlps
	a.LocalRel += b.LocalRel
	a.PropUlps += b.PropUlps
	a.TotalUlps += b.TotalUlps
	if b.MaxUlps > a.MaxUlps {
		a.MaxUlps = b.MaxUlps
	}
	if a.Op == "" {
		a.Op = b.Op
	}
	return a
}

// RootCauseReport ranks attributed sites by contributed (local) error.
type RootCauseReport struct {
	// Prec is the shadow precision the attribution ran at.
	Prec uint64 `json:"prec"`
	// Sites is ranked by LocalUlps descending (ties by address).
	Sites []RootCauseSite `json:"sites"`
	// TotalOps is the number of shadow-executed lane operations.
	TotalOps uint64 `json:"totalOps"`
	// TotalLocalUlps is the error injected across all sites.
	TotalLocalUlps float64 `json:"totalLocalUlps"`
	// MaxUlps is the largest integer ULP divergence anywhere.
	MaxUlps uint64 `json:"maxUlps"`
	// Sites99 is the number of top-ranked sites covering 99% of
	// TotalLocalUlps — the locality statistic the paper's Section 6
	// feasibility argument rests on, over error mass instead of event
	// counts.
	Sites99 int `json:"sites99"`
}

// BuildRootCause assembles the ranked report from attribution rows
// (merging duplicates, so rows from multiple threads can be
// concatenated first).
func BuildRootCause(prec uint64, sites []RootCauseSite) *RootCauseReport {
	byAddr := make(map[uint64]RootCauseSite, len(sites))
	for _, s := range sites {
		byAddr[s.Addr] = MergeRootCauseSite(byAddr[s.Addr], RootCauseSite{
			Op: s.Op, Count: s.Count, Diverged: s.Diverged, NonFinite: s.NonFinite,
			LocalUlps: s.LocalUlps, LocalRel: s.LocalRel, PropUlps: s.PropUlps,
			TotalUlps: s.TotalUlps, MaxUlps: s.MaxUlps,
		})
	}
	rep := &RootCauseReport{Prec: prec, Sites: make([]RootCauseSite, 0, len(byAddr))}
	for addr, s := range byAddr {
		s.Addr = addr
		rep.Sites = append(rep.Sites, s)
		rep.TotalOps += s.Count
		if s.MaxUlps > rep.MaxUlps {
			rep.MaxUlps = s.MaxUlps
		}
	}
	sort.Slice(rep.Sites, func(i, j int) bool {
		a, b := rep.Sites[i], rep.Sites[j]
		if a.LocalUlps != b.LocalUlps {
			return a.LocalUlps > b.LocalUlps
		}
		return a.Addr < b.Addr
	})
	// Sum in ranked order, not map order: the float total (and the 99%
	// boundary measured against it) must not depend on iteration order.
	for _, s := range rep.Sites {
		rep.TotalLocalUlps += s.LocalUlps
	}
	rep.Sites99 = rootCauseCoverage(rep.Sites, rep.TotalLocalUlps, 0.99)
	return rep
}

// TopSite returns the highest-ranked site, ok=false for an empty report.
func (r *RootCauseReport) TopSite() (RootCauseSite, bool) {
	if len(r.Sites) == 0 {
		return RootCauseSite{}, false
	}
	return r.Sites[0], true
}

// rootCauseCoverage counts the ranked prefix covering frac of the total
// error mass (CoverageCount over float weights). A zero-error report
// needs zero sites.
func rootCauseCoverage(sites []RootCauseSite, total float64, frac float64) int {
	if total <= 0 {
		return 0
	}
	var sum float64
	for i, s := range sites {
		sum += s.LocalUlps
		if sum >= frac*total {
			return i + 1
		}
	}
	return len(sites)
}
