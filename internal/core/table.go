package core

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Row is one labeled row of numeric results.
type Row struct {
	Label  string
	Values []float64
}

// Table is the uniform output format of every experiment: a labeled
// numeric grid that renders as aligned text (for terminals) or CSV
// (for plotting). Each experiment produces the same rows/series the
// corresponding paper figure reports.
type Table struct {
	// ID is the experiment identifier, e.g. "fig5a".
	ID string
	// Title describes the experiment.
	Title string
	// Columns names the value columns (not counting the label).
	Columns []string
	// Rows holds the data.
	Rows []Row
	// Notes carries free-form commentary (headline comparisons etc.).
	Notes []string
}

// AddRow appends a labeled row. The number of values must match the
// declared columns.
func (t *Table) AddRow(label string, values ...float64) {
	if len(values) != len(t.Columns) {
		panic(fmt.Sprintf("core: table %s row %q has %d values for %d columns",
			t.ID, label, len(values), len(t.Columns)))
	}
	t.Rows = append(t.Rows, Row{Label: label, Values: values})
}

// Value returns the cell at (rowLabel, column).
func (t *Table) Value(rowLabel, column string) (float64, bool) {
	col := -1
	for i, c := range t.Columns {
		if c == column {
			col = i
			break
		}
	}
	if col < 0 {
		return 0, false
	}
	for _, r := range t.Rows {
		if r.Label == rowLabel {
			return r.Values[col], true
		}
	}
	return 0, false
}

// String renders the table as aligned, human-readable text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)

	labelW := len("label")
	for _, r := range t.Rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	colW := make([]int, len(t.Columns))
	cells := make([][]string, len(t.Rows))
	for i, c := range t.Columns {
		colW[i] = len(c)
	}
	for ri, r := range t.Rows {
		cells[ri] = make([]string, len(r.Values))
		for ci, v := range r.Values {
			s := strconv.FormatFloat(v, 'f', 2, 64)
			cells[ri][ci] = s
			if len(s) > colW[ci] {
				colW[ci] = len(s)
			}
		}
	}

	fmt.Fprintf(&b, "%-*s", labelW, "label")
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "  %*s", colW[i], c)
	}
	b.WriteByte('\n')
	for ri, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", labelW, r.Label)
		for ci := range r.Values {
			fmt.Fprintf(&b, "  %*s", colW[ci], cells[ri][ci])
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// WriteCSV emits the table with a header row of "label" plus the
// column names.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"label"}, t.Columns...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		rec := make([]string, 0, len(r.Values)+1)
		rec = append(rec, r.Label)
		for _, v := range r.Values {
			rec = append(rec, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
