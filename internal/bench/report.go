package bench

import (
	"fmt"
	"io"
	"strings"
)

// WriteTable renders a figure as an aligned text table (the rows the
// paper's plots are drawn from).
func WriteTable(w io.Writer, f *Figure) error {
	cols := append([]string{f.xLabel}, f.SeriesOrder...)
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	rows := make([][]string, len(f.xTicks))
	for r, tick := range f.xTicks {
		row := make([]string, len(cols))
		row[0] = tick
		for c, name := range f.SeriesOrder {
			vals := f.series[name]
			if r < len(vals) {
				row[c+1] = fmt.Sprintf("%.2f", vals[r])
			} else {
				row[c+1] = "-"
			}
		}
		rows[r] = row
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "# %s: %s (%s)\n", f.id, f.title, f.Unit); err != nil {
		return err
	}
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := writeRow(cols); err != nil {
		return err
	}
	for _, row := range rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// SpeedupOver reports, per x-tick, how many times larger the named
// baseline series is than the reference series (the paper quotes its
// results as "factor of N" improvements of UCR over each sockets path).
func (f *Figure) SpeedupOver(reference, baseline string) []float64 {
	ref, ok1 := f.series[reference]
	base, ok2 := f.series[baseline]
	if !ok1 || !ok2 {
		return nil
	}
	n := len(ref)
	if len(base) < n {
		n = len(base)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		if ref[i] > 0 {
			out[i] = base[i] / ref[i]
		}
	}
	return out
}
