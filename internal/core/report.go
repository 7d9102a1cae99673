package core

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"
)

// WriteReport runs every experiment, in the order of DESIGN.md's
// experiment index (Experiments), and emits a self-contained markdown
// report: dataset calibration, each experiment's table and notes, then
// the Claims section, each headline claim's measured value and margin.
// Cancelling ctx aborts the in-flight experiment.
func (l *Lab) WriteReport(ctx context.Context, w io.Writer) error {
	fmt.Fprintf(w, "# carbonshift experiment report\n\n")
	fmt.Fprintf(w, "Generated %s over %d regions, %d hourly samples starting %s.\n\n",
		time.Now().UTC().Format(time.RFC3339), l.Set.Size(), l.Set.Len(),
		l.Set.Start().Format("2006-01-02"))
	fmt.Fprintf(w, "Global mean carbon intensity: **%.2f g·CO₂eq/kWh** (paper: 368.39).\n\n",
		l.GlobalMean)

	tables := map[string]*Table{}
	for _, e := range Experiments() {
		start := time.Now()
		tbl, err := e.Run(ctx, l)
		if err != nil {
			return fmt.Errorf("core: report: %s: %w", e.ID, err)
		}
		tables[e.ID] = tbl
		fmt.Fprintf(w, "## %s — %s\n\n", e.Figure, e.Title)
		fmt.Fprintf(w, "Experiment `%s`, %v.\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if err := writeMarkdownTable(w, tbl); err != nil {
			return err
		}
		for _, n := range tbl.Notes {
			fmt.Fprintf(w, "> %s\n", n)
		}
		fmt.Fprintln(w)
	}
	return writeClaims(w, tables)
}

// writeMarkdownTable renders a Table as a GitHub-flavored markdown
// table, truncating very long tables to head and tail rows.
func writeMarkdownTable(w io.Writer, t *Table) error {
	const maxRows = 30
	rows := [][]string{append([]string{"label"}, t.Columns...)}
	for i, r := range t.Rows {
		if n := len(t.Rows); n > maxRows && i >= maxRows/2 && i < n-maxRows/2 {
			if i == maxRows/2 {
				rows = append(rows, append([]string{fmt.Sprintf("… %d rows omitted …", n-maxRows)}, make([]string, len(t.Columns))...))
			}
			continue
		}
		cells := []string{r.Label}
		for _, v := range r.Values {
			cells = append(cells, fmt.Sprintf("%.2f", v))
		}
		rows = append(rows, cells)
	}
	return writeMarkdown(w, rows)
}

// writeMarkdown writes rows as a markdown table, the first as its header.
func writeMarkdown(w io.Writer, rows [][]string) error {
	if _, err := fmt.Fprintf(w, "| %s |\n|%s\n", strings.Join(rows[0], " | "), strings.Repeat(" --- |", len(rows[0]))); err != nil {
		return err
	}
	for _, r := range rows[1:] {
		fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | "))
	}
	_, err := fmt.Fprintln(w)
	return err
}
