// Package experiments regenerates every claim, worked example, figure and
// bound of the paper as a measurable experiment (the index lives in
// DESIGN.md §5 and the recorded quick tables in testdata/tables.md). Each
// experiment Exx returns a Table; cmd/rvx renders them all, and the
// repository-root benchmarks run one experiment per bench target.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one experiment's regenerated output: an identifier tying it to
// the paper (e.g. "E4 — Lemma 3.2"), columns, rows, and free-form notes
// (substitutions, caveats, pass/fail summaries).
type Table struct {
	ID       string
	Title    string
	PaperRef string
	Columns  []string
	Rows     [][]string
	Notes    []string
	// Failed collects row-level check failures; empty means every check
	// in the experiment held.
	Failed []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.Rows = append(t.Rows, row)
}

// Check records a named expectation; failures accumulate in Failed.
func (t *Table) Check(ok bool, format string, args ...any) {
	if !ok {
		t.Failed = append(t.Failed, fmt.Sprintf(format, args...))
	}
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	if t.PaperRef != "" {
		fmt.Fprintf(&b, "Paper: %s\n\n", t.PaperRef)
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Columns, " | "))
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(sep, " | "))
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(r, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	if len(t.Failed) > 0 {
		fmt.Fprintf(&b, "\n**FAILED CHECKS (%d):**\n", len(t.Failed))
		for _, f := range t.Failed {
			fmt.Fprintf(&b, "- %s\n", f)
		}
	} else {
		b.WriteString("\nAll checks passed.\n")
	}
	return b.String()
}

// Text renders a fixed-width plain-text table for terminals.
func (t *Table) Text() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s", t.ID, t.Title)
	if t.PaperRef != "" {
		fmt.Fprintf(&b, " (%s)", t.PaperRef)
	}
	b.WriteByte('\n')
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if len(t.Failed) > 0 {
		fmt.Fprintf(&b, "FAILED CHECKS (%d):\n", len(t.Failed))
		for _, f := range t.Failed {
			fmt.Fprintf(&b, "  - %s\n", f)
		}
	} else {
		b.WriteString("all checks passed\n")
	}
	return b.String()
}
