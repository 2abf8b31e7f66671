package study

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// paperClaim is one finding the paper draws from a figure or table:
// cells that must hold a value, and a check of the rest. study.golden
// pins every byte of the study but cannot say which bytes carry a
// finding, so `-update` alone would pin a study that lost one;
// TestGoldenStudyOutput checks every claim first.
type paperClaim struct {
	table, says string
	cells       [][3]string // row, column, value
	check       func(c *claimCheck)
}

var paperClaims = []paperClaim{
	{table: "Figure 8", says: "WRF references fesetenv", cells: [][3]string{{"wrf", "fesetenv", "T"}}},
	{table: "Figure 9", says: "ENZO's NaNs and LAGHOS's divisions by zero show; WRF shows nothing once FPSpy steps aside",
		cells: [][3]string{{"enzo", "Invalid", "T"}, {"laghos", "DivideByZero", "T"}, {"wrf", "Inexact", "f"}}},
	{table: "Figure 11", says: "filtered tracing captures Miniaero's overflow", cells: [][3]string{{"miniaero", "Overflow", "T"}}},
	{table: "Figure 12", says: "ENZO's NaN rate rises over the run", check: func(c *claimCheck) {
		if rows := c.rows(); len(rows) > 0 {
			if first, later := c.num(rows[0], "Events/s"), c.num(rows[3*len(rows)/4], "Events/s"); later <= first {
				c.errorf("rate %v -> %v", first, later)
			}
		}
	}},
	{table: "Figure 13", says: "LAGHOS's divisions by zero come in bursts: there are zero bins and busy bins", check: func(c *claimCheck) {
		rows, busy := c.rows(), 0
		for _, r := range rows {
			if c.num(r, "Events/s") > 0 {
				busy++
			}
		}
		if busy == 0 || busy == len(rows) {
			c.errorf("%d of %d bins busy", busy, len(rows))
		}
	}},
	{table: "Figure 14", says: "sampling keeps the persistent classes, misses the one-shot denormal windows, and shows WRF's rounding",
		cells: [][3]string{{"enzo", "Invalid", "T"}, {"laghos", "DivideByZero", "T"}, {"miniaero", "Denorm", "f"}, {"gromacs", "Denorm", "f"}, {"wrf", "Inexact", "T"}}},
	{table: "Figure 15", says: "MOOSE and Miniaero lead ENZO in Inexact rate; GROMACS and LAMMPS trail LAGHOS", check: func(c *claimCheck) {
		rate := map[string]float64{}
		for _, app := range []string{"gromacs", "lammps", "laghos", "moose", "miniaero", "enzo"} {
			rate[app] = c.num(c.row(app), "Inexact events/s")
		}
		if rate["gromacs"] >= rate["laghos"] || rate["lammps"] >= rate["laghos"] ||
			rate["moose"] <= rate["enzo"] || rate["miniaero"] <= rate["enzo"] {
			c.errorf("rates %v", rate)
		}
	}},
	{table: "Figure 16", says: "every cumulative curve grows", check: func(c *claimCheck) {
		for _, r := range c.rows() {
			if q1, end := c.num(r, "25% time"), c.num(r, "end"); end < q1 || end == 0 {
				c.errorf("%s: %v .. %v", r[0], q1, end)
			}
		}
	}},
	{table: "Figure 17", says: "every code uses fewer than 45 forms, at most 20 of which cover 99%", check: func(c *claimCheck) {
		for _, r := range c.rows() {
			if forms, cover := c.num(r, "Forms"), c.num(r, "Forms for 99%"); forms >= 45 || cover > 20 {
				c.errorf("%s: %v forms, %v for 99%%", r[0], forms, cover)
			}
		}
	}},
	{table: "Figure 18", says: "GROMACS alone uses 25 forms, its AVX vocabulary among them", check: func(c *claimCheck) {
		n := c.note("GROMACS-only forms (25):")
		for _, f := range []string{"vdpps", "vfmaddps", "vucomiss", "vcvttss2si", "cvtsi2sdq", "vsqrtsd"} {
			if !slices.Contains(strings.Fields(n), f) {
				c.errorf("%s not GROMACS-only", f)
			}
		}
	}},
	{table: "Figure 19", says: "every code has fewer than 5000 sites, at most 100 of which cover 99%", check: func(c *claimCheck) {
		for _, r := range c.rows() {
			if sites, cover := c.num(r, "Sites"), c.num(r, "Sites for 99%"); sites >= 5000 || cover > 100 {
				c.errorf("%s: %v sites, %v for 99%%", r[0], sites, cover)
			}
		}
	}},
	{table: "Section 6", says: "locality makes patching win for every application", check: func(c *claimCheck) {
		for _, r := range c.rows() {
			if w := c.at(r, "Patch wins"); w != "true" {
				c.errorf("%s: patch wins = %q", r[0], w)
			}
		}
	}},
}

// claimCheck reads one table for a claim. Whatever a claim reads must
// be there: a missing table, row, column or note, or a cell that is not
// a number where one is wanted, fails the claim. Each read also records
// how to take away what it read, in drops.
type claimCheck struct {
	t     *Table
	errs  []string
	drops map[string]func(*Table)
}

func (pc paperClaim) run(tables []*Table) *claimCheck {
	c := &claimCheck{t: &Table{}, drops: map[string]func(*Table){"table": func(t *Table) { t.ID = "" }}}
	if i := slices.IndexFunc(tables, func(t *Table) bool { return t.ID == pc.table }); i >= 0 {
		c.t = tables[i]
	} else {
		c.errorf("no table")
	}
	for _, w := range pc.cells {
		if got := c.at(c.row(w[0]), w[1]); got != w[2] {
			c.errorf("%s/%s = %q, want %q", w[0], w[1], got, w[2])
		}
	}
	if pc.check != nil {
		pc.check(c)
	}
	return c
}

func (c *claimCheck) errorf(format string, args ...any) {
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
}

// rows returns every row, failing the claim when there is none.
func (c *claimCheck) rows() [][]string {
	c.drops["rows"] = func(t *Table) { t.Rows = nil }
	if len(c.t.Rows) == 0 {
		c.errorf("no rows")
	}
	return c.t.Rows
}

// row returns the row labelled label, or nil.
func (c *claimCheck) row(label string) []string {
	is := func(r []string) bool { return r[0] == label }
	c.drops["row "+label] = func(t *Table) { t.Rows = slices.DeleteFunc(t.Rows, is) }
	if i := slices.IndexFunc(c.t.Rows, is); i >= 0 {
		return c.t.Rows[i]
	}
	c.errorf("no row %q", label)
	return nil
}

// at returns r's cell in the first column headed col.
func (c *claimCheck) at(r []string, col string) string {
	c.drops["column "+col] = func(t *Table) {
		if i := slices.Index(t.Header, col); i >= 0 {
			t.Header[i] = ""
		}
	}
	i := slices.Index(c.t.Header, col)
	if i < 0 {
		c.errorf("no column %q", col)
	} else if i < len(r) {
		return r[i]
	}
	return ""
}

func (c *claimCheck) num(r []string, col string) float64 {
	v, err := strconv.ParseFloat(c.at(r, col), 64)
	if err != nil {
		c.errorf("%s: %v", col, err)
	}
	return v
}

// note returns the note that starts with prefix.
func (c *claimCheck) note(prefix string) string {
	c.drops["notes"] = func(t *Table) { t.Notes = nil }
	if i := slices.IndexFunc(c.t.Notes, func(n string) bool { return strings.HasPrefix(n, prefix) }); i >= 0 {
		return c.t.Notes[i]
	}
	c.errorf("no note %q", prefix)
	return ""
}

// checkPaperClaims fails t for every claim tables break, and for every
// claim that still holds in a copy of tables from which one thing it
// read (its table, a row, every row, a column or the notes) is taken.
func checkPaperClaims(t *testing.T, tables []*Table) {
	for _, pc := range paperClaims {
		t.Run(pc.table, func(t *testing.T) {
			c := pc.run(tables)
			if len(c.errs) > 0 {
				t.Fatalf("%s: %s", pc.says, strings.Join(c.errs, "; "))
			}
			for what, drop := range c.drops {
				cut := slices.Clone(tables)
				i := slices.IndexFunc(cut, func(t *Table) bool { return t.ID == pc.table })
				cp := *cut[i]
				cp.Header, cp.Rows, cp.Notes = slices.Clone(cp.Header), slices.Clone(cp.Rows), slices.Clone(cp.Notes)
				drop(&cp)
				cut[i] = &cp
				if len(pc.run(cut).errs) == 0 {
					t.Errorf("%q holds without its %s", pc.says, what)
				}
			}
		})
	}
}
