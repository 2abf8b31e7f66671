// Package study drives the paper's Section 4 methodology end-to-end over
// the workload suite and renders every table and figure of the
// evaluation (Figures 6 through 19, plus the Section 6 feasibility
// analysis). It is shared by cmd/fpstudy, fpspyd and the benchmark in
// bench/.
package study

import (
	"fmt"
	"strings"
)

// Table is a rendered result: a titled grid with optional notes.
type Table struct {
	// ID is the paper artifact this reproduces, e.g. "Figure 9".
	ID string
	// Title describes the content.
	Title string
	// Header names the columns.
	Header []string
	// Rows is the grid.
	Rows [][]string
	// Notes carries caveats (scaling, documented paper inconsistencies).
	Notes []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// mark renders the paper's T/f cells.
func mark(b bool) string {
	if b {
		return "T"
	}
	return "f"
}
