package harness

import (
	"encoding/csv"
	"fmt"
	"io"

	"seer/internal/bench"
)

// seriesSpec declares a ratio sweep, the shape of Figures 3, 4 and 5 and
// of the ext, scaling and fullsuite exhibits: every (row × col × x) cell
// is reported as reference makespan / its makespan, and the ratios are
// geomeaned across rows.
type seriesSpec struct {
	rows     []string
	cols, xs []point
	// ref is the column each value is normalised against: its cell at the
	// same x, or — with refPerRow — one cell per row that no x point
	// shapes (the sequential baseline). It may be one of cols.
	ref       point
	refPerRow bool
	style     seriesStyle
}

// seriesStyle is the text and CSV layout of one series exhibit.
type seriesStyle struct {
	title string // heading, printed once
	// A flat table has one header line opening with head; a panelled one
	// has a header line per row opening with panel (a format taking the
	// row name) and, when geo is set, the geomean panel opens with geo (a
	// format taking the row count) instead of panel("geomean").
	head, panel, geo string
	label            string // format of a data line's lead; takes (row, col)
	x, val           string // formats of one header cell and one value cell
	// CSV: the exhibit tag and the names of the column-axis and value
	// fields; an empty csvCol drops the column field (one-column exhibits).
	csvTag, csvCol, csvVal string
}

// Series is a reduced ratio sweep.
type Series struct {
	Rows, Cols, Xs []string
	// Value[row][col][xi] is reference makespan / makespan.
	Value map[string]map[string][]float64
	// Geomean[col][xi] aggregates Value across rows.
	Geomean map[string][]float64

	style seriesStyle
}

func (s seriesSpec) refX(x point) point {
	if s.refPerRow {
		return point{}
	}
	return x
}

// refCell returns the reference result the cells of row at x divide.
func (s seriesSpec) refCell(g *grid, row string, x point) Result {
	return g.at(row, s.ref.label, s.refX(x).label)
}

// addTo adds the sweep's cells, reference cells included, to g.
func (s seriesSpec) addTo(g *grid) {
	for _, row := range s.rows {
		for _, col := range s.cols {
			for _, x := range s.xs {
				g.add(row, s.ref, s.refX(x))
				g.add(row, col, x)
			}
		}
	}
}

// reduce reads the sweep's cells back from g once it has run.
func (s seriesSpec) reduce(g *grid) *Series {
	d := &Series{
		Rows: s.rows, Cols: labels(s.cols), Xs: labels(s.xs),
		Value:   map[string]map[string][]float64{},
		Geomean: map[string][]float64{},
		style:   s.style,
	}
	for _, row := range s.rows {
		d.Value[row] = map[string][]float64{}
		for _, col := range s.cols {
			vals := make([]float64, len(s.xs))
			for xi, x := range s.xs {
				vals[xi] = Speedup(s.refCell(g, row, x).MeanMakespan, g.at(row, col.label, x.label))
			}
			d.Value[row][col.label] = vals
		}
	}
	for _, col := range d.Cols {
		d.Geomean[col] = make([]float64, len(d.Xs))
		for xi := range d.Xs {
			vals := make([]float64, len(d.Rows))
			for ri, row := range d.Rows {
				vals[ri] = d.Value[row][col][xi]
			}
			d.Geomean[col][xi] = bench.GeoMean(vals)
		}
	}
	return d
}

// run is the whole pipeline for a sweep with no cells of its own.
func (s seriesSpec) run(name string, opt Options, progress io.Writer) (Output, error) {
	g := newGrid(opt)
	s.addTo(g)
	if err := g.run(name, progress); err != nil {
		return nil, err
	}
	return s.reduce(g), nil
}

// blocks calls fn for every row and then for the geomean pseudo-row.
func (d *Series) blocks(fn func(row string, vals map[string][]float64)) {
	for _, row := range d.Rows {
		fn(row, d.Value[row])
	}
	fn("geomean", d.Geomean)
}

// Render writes the sweep as text tables in the exhibit's layout.
func (d *Series) Render(w io.Writer) {
	st := d.style
	header := func(lead string) {
		io.WriteString(w, lead)
		for _, x := range d.Xs {
			fmt.Fprintf(w, st.x, x)
		}
		fmt.Fprintln(w)
	}
	io.WriteString(w, st.title)
	if st.panel == "" {
		header(st.head)
	}
	d.blocks(func(row string, vals map[string][]float64) {
		switch {
		case st.panel == "":
		case row == "geomean" && st.geo != "":
			header(fmt.Sprintf(st.geo, len(d.Rows)))
		default:
			header(fmt.Sprintf(st.panel, row))
		}
		for _, col := range d.Cols {
			fmt.Fprintf(w, st.label, row, col)
			for _, v := range vals[col] {
				fmt.Fprintf(w, st.val, v)
			}
			fmt.Fprintln(w)
		}
	})
}

// WriteCSV writes one record per (row, col, x) value in rendered order,
// geomean block last, led by the "exhibit" field every exhibit's CSV
// shares so several can go to one file.
func (d *Series) WriteCSV(w io.Writer) error {
	st := d.style
	cw := csv.NewWriter(w)
	write := func(tag, row, col, x, val string) {
		rec := []string{tag, row, col, x, val}
		if st.csvCol == "" {
			rec = append(rec[:2], rec[3:]...)
		}
		cw.Write(rec) // a failed write is sticky: cw.Error reports it below
	}
	write("exhibit", "workload", st.csvCol, "threads", st.csvVal)
	d.blocks(func(row string, vals map[string][]float64) {
		for _, col := range d.Cols {
			for xi, x := range d.Xs {
				write(st.csvTag, row, col, x, formatFloat(vals[col][xi]))
			}
		}
	})
	cw.Flush()
	return cw.Error()
}

func formatFloat(v float64) string {
	return fmt.Sprintf("%.4f", v)
}
