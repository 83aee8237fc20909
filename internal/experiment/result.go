// Package experiment is MPDP's evaluation harness: one ordered table of
// named experiments (E1–E22, suite.go), each a base configuration, a sweep
// and the measures read off every run, and one runner (grid.go) that runs
// them in virtual time and emits the table or figure each reproduces as
// aligned ASCII and as CSV.
//
// See DESIGN.md §4 for the experiment index and the source-text mismatch
// notice explaining why the suite is reconstructed rather than copied from
// figure numbers.
package experiment

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Point is one (x, y) sample of a curve.
type Point struct {
	X, Y float64
}

// Curve is one labelled line of a figure.
type Curve struct {
	Label  string
	Points []Point
}

// Figure is the reproduction of one paper figure: multiple curves over a
// shared x axis.
type Figure struct {
	Name   string // e.g. "E2"
	Title  string
	XLabel string
	YLabel string
	Curves []Curve
}

// Table is the reproduction of one paper table.
type Table struct {
	Name    string
	Title   string
	Columns []string
	Rows    [][]string
}

// Result is everything an experiment produced.
type Result struct {
	ID      string
	Title   string
	Figures []Figure
	Tables  []Table
	Notes   []string
}

// Render writes the result as human-readable ASCII. The output is built
// in memory and written in one call so a write failure (full disk, closed
// pipe) is reported rather than yielding a silently truncated report.
func (r *Result) Render(w io.Writer) error {
	var b strings.Builder
	r.renderTo(&b)
	_, err := io.WriteString(w, b.String())
	return err
}

func (r *Result) renderTo(b *strings.Builder) {
	fmt.Fprintf(b, "=== %s: %s ===\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(b, "note: %s\n", n)
	}
	for i := range r.Tables {
		fmt.Fprintln(b)
		r.Tables[i].renderTo(b)
	}
	for i := range r.Figures {
		fmt.Fprintln(b)
		r.Figures[i].renderTo(b)
	}
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) error {
	var b strings.Builder
	t.renderTo(&b)
	_, err := io.WriteString(w, b.String())
	return err
}

func (t *Table) renderTo(b *strings.Builder) {
	fmt.Fprintf(b, "-- %s: %s --\n", t.Name, t.Title)
	writeAligned(b, t.Columns, t.Rows, true)
}

// writeAligned writes head and rows as left-aligned columns two spaces
// apart, each as wide as its widest cell, with trailing blanks trimmed;
// rule adds a dashed line under the head.
func writeAligned(b *strings.Builder, head []string, rows [][]string, rule bool) {
	widths := make([]int, len(head))
	for i, c := range head {
		widths[i] = len(c)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		var line strings.Builder
		for i, cell := range cells {
			if i > 0 {
				line.WriteString("  ")
			}
			line.WriteString(cell)
			line.WriteString(strings.Repeat(" ", max(widths[i]-len(cell), 0)))
		}
		fmt.Fprintln(b, strings.TrimRight(line.String(), " "))
	}
	printRow(head)
	if rule {
		sep := make([]string, len(head))
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		printRow(sep)
	}
	for _, row := range rows {
		printRow(row)
	}
}

// Render writes the figure as a column-per-curve data block: one x column
// plus one y column per curve, aligned, ready for plotting.
func (f *Figure) Render(w io.Writer) error {
	var b strings.Builder
	f.renderTo(&b)
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *Figure) renderTo(w *strings.Builder) {
	fmt.Fprintf(w, "-- %s: %s --\n", f.Name, f.Title)
	fmt.Fprintf(w, "   x = %s, y = %s\n", f.XLabel, f.YLabel)
	// Merge x values across curves.
	xsSet := map[float64]bool{}
	for _, c := range f.Curves {
		for _, p := range c.Points {
			xsSet[p.X] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	cols := []string{f.XLabel}
	for _, c := range f.Curves {
		cols = append(cols, c.Label)
	}
	var rows [][]string
	for _, x := range xs {
		row := []string{trimFloat(x)}
		for _, c := range f.Curves {
			cell := ""
			for _, p := range c.Points {
				if p.X == x {
					cell = trimFloat(p.Y)
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	writeAligned(w, cols, rows, false)
}

// trimFloat formats a float compactly (no trailing zeros).
func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// CSV writes the result's tables and figures as CSV blocks. A write
// failure is returned: a results file that silently loses rows is worse
// than no results file.
func (r *Result) CSV(w io.Writer) error {
	var b strings.Builder
	for _, t := range r.Tables {
		fmt.Fprintf(&b, "# table,%s,%s\n", t.Name, csvEscape(t.Title))
		fmt.Fprintln(&b, strings.Join(mapEsc(t.Columns), ","))
		for _, row := range t.Rows {
			fmt.Fprintln(&b, strings.Join(mapEsc(row), ","))
		}
		fmt.Fprintln(&b)
	}
	for _, f := range r.Figures {
		fmt.Fprintf(&b, "# figure,%s,%s\n", f.Name, csvEscape(f.Title))
		for _, c := range f.Curves {
			fmt.Fprintf(&b, "curve,%s\n", csvEscape(c.Label))
			for _, p := range c.Points {
				fmt.Fprintf(&b, "%s,%s\n", trimFloat(p.X), trimFloat(p.Y))
			}
		}
		fmt.Fprintln(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func mapEsc(ss []string) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = csvEscape(s)
	}
	return out
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
