package study

// The shadow-precision root-cause study (the -shadow pass family of
// fpstudy): run workloads with the shadow channel attached, rank their
// FP sites by introduced rounding error, and pair each unmitigated
// accuracy measurement with an adaptive-precision mitigated leg at the
// same workload — the Section 6 feasibility argument restated over
// error mass instead of event counts. Shadowing is pure observation:
// with ShadowPrec zero these passes are bit-identical to the seed
// study's, which the chaos differential suite enforces.

import (
	"encoding/json"
	"fmt"
	"io"

	fpspy "repro"
	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/workload"
)

// DefaultShadowPrec is the shadow precision used when none is named — by
// a shadow cell, a /v1/shadowjobs submission, and fpstudy's and
// fpanalyze's precision flags: binary128's 113-bit mantissa, enough to
// separate local from propagated error for any binary64 guest while
// staying cheap to evaluate.
const DefaultShadowPrec = 113

// ShadowConfig is the spy configuration a shadow cell runs under:
// aggregate mode (the cheapest spy; shadowing needs no trap protocol)
// with the channel attached at the given precision.
func ShadowConfig(prec uint64) fpspy.Config {
	return fpspy.Config{Mode: fpspy.ModeAggregate, ShadowPrec: prec}
}

// ShadowCell is one cell of the shadow study: a workload shadowed at
// Prec, optionally paired with an adaptive-precision mitigated leg.
type ShadowCell struct {
	// Workload names the registry entry to run.
	Workload string
	// Prec is the shadow precision in mantissa bits (0 = default).
	Prec uint64
	// MitPrec, when nonzero, also runs the workload under the Section 6
	// adaptive-precision mitigator at this software-FPU precision.
	MitPrec uint
	// Size is the problem size (the zero value is SizeSmall).
	Size workload.Size
}

// ShadowCellResult is one cell's outcome: the ranked-attribution
// summary of the unmitigated run, plus the mitigated leg's counters.
type ShadowCellResult struct {
	Workload string `json:"workload"`
	Prec     uint64 `json:"prec"`
	// Steps is the unmitigated run's execution count
	// (fpspy.Result.Steps): its retired instructions plus the
	// executions that trapped without retiring.
	Steps uint64 `json:"steps"`
	// Sites/Sites99/Ops/LocalUlps/MaxUlps summarize the attribution
	// report (see analysis.RootCauseReport).
	Sites     int     `json:"sites"`
	Sites99   int     `json:"sites99"`
	Ops       uint64  `json:"ops"`
	LocalUlps float64 `json:"localUlps"`
	MaxUlps   uint64  `json:"maxUlps"`
	// Top* identify the highest-ranked site.
	TopAddr      uint64  `json:"topAddr,omitempty"`
	TopOp        string  `json:"topOp,omitempty"`
	TopLocalUlps float64 `json:"topLocalUlps,omitempty"`
	// TopSites is the ranked attribution, for report consumers that
	// need more than the headline (fpanalyze -rootcause caps its own
	// rendering; the matrix keeps every site).
	TopSites []analysis.RootCauseSite `json:"topSites,omitempty"`
	// Mit* report the mitigated leg (zero when MitPrec was 0): how many
	// instructions the software FPU emulated and how many of those
	// write-backs differed from the hardware result — rounding error
	// the mitigation removed.
	MitPrec     uint64 `json:"mitPrec,omitempty"`
	MitEmulated uint64 `json:"mitEmulated,omitempty"`
	MitImproved uint64 `json:"mitImproved,omitempty"`
	Err         string `json:"err,omitempty"`
}

// runLeg runs one leg of a cell hermetically (its own kernel and
// machine), reporting to om (nil for none). The shadowed leg fills the
// attribution summary; the mitigated leg fills only the Mit* fields,
// left zero when MitPrec is 0.
func runLeg(cell ShadowCell, mitigated bool, om *obs.Metrics) ShadowCellResult {
	prec := cell.Prec
	if prec == 0 {
		prec = DefaultShadowPrec
	}
	size := cell.Size
	res := ShadowCellResult{Workload: cell.Workload, Prec: prec}
	w, err := workload.ByName(cell.Workload)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	if mitigated {
		if cell.MitPrec == 0 {
			return res
		}
		_, stats, err := fpspy.RunMitigated(w.Build(size), cell.MitPrec, fpspy.Options{Obs: om})
		if err != nil {
			res.Err = fmt.Sprintf("mitigated leg: %v", err)
			return res
		}
		res.MitPrec = uint64(cell.MitPrec)
		res.MitEmulated = stats.Emulated
		res.MitImproved = stats.Improved
		return res
	}
	run, err := fpspy.Run(w.Build(size), fpspy.Options{Config: ShadowConfig(prec), Obs: om})
	if err != nil {
		res.Err = fmt.Sprintf("%s: %v", cell.Workload, err)
		return res
	}
	res.Steps = run.Steps
	if rep := run.RootCause(prec); rep != nil {
		res.Sites = len(rep.Sites)
		res.Sites99 = rep.Sites99
		res.Ops = rep.TotalOps
		res.LocalUlps = rep.TotalLocalUlps
		res.MaxUlps = rep.MaxUlps
		res.TopSites = rep.Sites
		if top, ok := rep.TopSite(); ok {
			res.TopAddr = top.Addr
			res.TopOp = top.Op
			res.TopLocalUlps = top.LocalUlps
		}
	}
	return res
}

// DefaultShadowCells builds the study over the given workload names
// (all corpus apps when empty) at one shadow precision, with the
// mitigated leg at mitPrec (0 skips it).
func DefaultShadowCells(names []string, prec uint64, mitPrec uint, size workload.Size) []ShadowCell {
	if len(names) == 0 {
		for _, w := range workload.Apps() {
			names = append(names, w.Meta.Name)
		}
	}
	cells := make([]ShadowCell, 0, len(names))
	for _, n := range names {
		cells = append(cells, ShadowCell{Workload: n, Prec: prec, MitPrec: mitPrec, Size: size})
	}
	return cells
}

// ShadowReport is the shadow study outcome.
type ShadowReport struct {
	Cells []ShadowCellResult `json:"cells"`
	// Failures counts cells that errored.
	Failures int `json:"failures"`
}

// ShadowMatrix runs each cell's shadowed and mitigated legs as two
// tasks on the study's worker pool, started in input order, so the
// matrix waits on its longest leg rather than its longest cell. The
// legs merge at their cell's input index, so the report is
// deterministic at any worker count: a failed shadowed leg leaves the
// Mit* fields zero, and a failed mitigated leg keeps the shadowed
// leg's fields and sets Err.
func (s *Study) ShadowMatrix(cells []ShadowCell) *ShadowReport {
	legs := make([]ShadowCellResult, 2*len(cells))
	s.execInOrder(len(legs), func(i int) { legs[i] = runLeg(cells[i/2], i%2 == 1, s.Obs) })
	r := &ShadowReport{Cells: make([]ShadowCellResult, 0, len(cells))}
	for i := 0; i < len(legs); i += 2 {
		c, mit := legs[i], legs[i+1]
		if c.Err == "" {
			c.MitPrec, c.MitEmulated, c.MitImproved, c.Err = mit.MitPrec, mit.MitEmulated, mit.MitImproved, mit.Err
		}
		if c.Err != "" {
			r.Failures++
		}
		r.Cells = append(r.Cells, c)
	}
	return r
}

// Table renders the study as one row per workload.
func (r *ShadowReport) Table() *Table {
	t := &Table{
		ID:    "shadow",
		Title: "Shadow-precision root-cause study",
		Header: []string{"workload", "prec", "sites", "99%-sites", "ops",
			"local-ulps", "max-ulps", "top site", "mitigated"},
	}
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Err != "" {
			t.Rows = append(t.Rows, []string{c.Workload, fmt.Sprintf("%d", c.Prec),
				"-", "-", "-", "-", "-", "-", "ERROR: " + c.Err})
			continue
		}
		top := "-"
		if c.TopOp != "" {
			top = fmt.Sprintf("%#x %s %.4g", c.TopAddr, c.TopOp, c.TopLocalUlps)
		}
		mit := "-"
		if c.MitPrec > 0 {
			mit = fmt.Sprintf("p%d: %d/%d improved", c.MitPrec, c.MitImproved, c.MitEmulated)
		}
		t.Rows = append(t.Rows, []string{
			c.Workload, fmt.Sprintf("%d", c.Prec),
			fmt.Sprintf("%d", c.Sites), fmt.Sprintf("%d", c.Sites99),
			fmt.Sprintf("%d", c.Ops), fmt.Sprintf("%.6g", c.LocalUlps),
			fmt.Sprintf("%d", c.MaxUlps), top, mit,
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d cells, %d failures; error in fractional ULPs of the native output", len(r.Cells), r.Failures))
	return t
}

// WriteJSON emits the report.
func (r *ShadowReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
