package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Table is one paper experiment's output in the single form every
// consumer reads: vaqbench prints it as markdown and writes it as CSV,
// and TestPaperGolden pins its markdown with the wall-clock columns
// dropped.
type Table struct {
	Title   string
	Columns []Column
	Rows    [][]string
}

// Column is one table column.
type Column struct {
	Name string
	// Wall marks a wall-clock measurement. It varies run to run, so the
	// golden drops it; every other cell is a deterministic function of
	// the experiment and its scale.
	Wall bool
}

// cols returns deterministic columns with the given names.
func cols(names ...string) []Column {
	out := make([]Column, len(names))
	for i, n := range names {
		out[i] = Column{Name: n}
	}
	return out
}

// wallCols returns wall-clock columns with the given names.
func wallCols(names ...string) []Column {
	out := cols(names...)
	for i := range out {
		out[i].Wall = true
	}
	return out
}

func (t *Table) add(cells ...string) { t.Rows = append(t.Rows, cells) }

// WriteMarkdown writes t as a level-3 heading and a pipe table whose
// columns are padded to a common width, followed by a blank line.
func (t Table) WriteMarkdown(w io.Writer) error {
	width := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		width[i] = utf8.RuneCountInString(c.Name)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			width[i] = max(width[i], utf8.RuneCountInString(cell))
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", t.Title)
	line := func(cell func(i int) string) {
		for i := range t.Columns {
			s := cell(i)
			b.WriteString("| ")
			b.WriteString(s)
			b.WriteString(strings.Repeat(" ", width[i]-utf8.RuneCountInString(s)+1))
		}
		b.WriteString("|\n")
	}
	line(func(i int) string { return t.Columns[i].Name })
	line(func(i int) string { return strings.Repeat("-", width[i]) })
	for _, row := range t.Rows {
		line(func(i int) string { return row[i] })
	}
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV writes t as CSV: a header of column names, then one record
// per row.
func (t Table) WriteCSV(w io.Writer) error {
	header := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		header[i] = c.Name
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	return cw.WriteAll(t.Rows)
}
