package harness

import (
	"io"
	"slices"

	"seer"
	"seer/internal/bench"
)

// Matrix is the second shared exhibit shape (adversarial, phased): a
// (rows × policies) grid on the full 8-thread machine, each cell reduced
// to its trimmed-mean throughput and rendered absolute and RTM-normalised.
type Matrix struct {
	Rows     []string
	Policies []seer.PolicyKind
	// Throughput[rowIdx][polIdx] is the trimmed-mean commits/kcycle over
	// the repetitions.
	Throughput [][]float64
	// Last[rowIdx][polIdx] is the final repetition's report, for the
	// per-exhibit digests.
	Last [][]seer.Report

	title, rowHeader string
}

// throughputs lists the commits/kcycle of each repetition of a cell.
func throughputs(res Result) []float64 {
	vals := make([]float64, len(res.Reports))
	for i, rep := range res.Reports {
		vals[i] = rep.Throughput()
	}
	return vals
}

// reduceMatrix reads the (rows × pols) full-machine cells back from g
// once it has run.
func reduceMatrix(g *grid, title, rowHeader string, rows []string, pols []seer.PolicyKind) *Matrix {
	m := &Matrix{Rows: rows, Policies: pols, title: title, rowHeader: rowHeader}
	for _, row := range rows {
		tput := make([]float64, len(pols))
		last := make([]seer.Report, len(pols))
		for pi, pol := range pols {
			res := g.at8(row, string(pol))
			tput[pi] = bench.TrimmedMean(throughputs(res), 0.2)
			last[pi] = res.Reports[len(res.Reports)-1]
		}
		m.Throughput = append(m.Throughput, tput)
		m.Last = append(m.Last, last)
	}
	return m
}

// col returns the column index of pol.
func (m *Matrix) col(pol seer.PolicyKind) int { return slices.Index(m.Policies, pol) }

// table renders one rows × policies table of the matrix's axes.
func (m *Matrix) table(w io.Writer, title string, cells [][]float64, geomean bool) {
	cols := make([]string, len(m.Policies))
	for i, p := range m.Policies {
		cols[i] = string(p)
	}
	bench.RatioTable{
		Title: title, RowHeader: m.rowHeader,
		Rows: m.Rows, Cols: cols, Cells: cells, Geomean: geomean,
	}.Render(w)
}

// Render writes the absolute throughput table and its normalisation
// against blind retry.
func (m *Matrix) Render(w io.Writer) {
	m.table(w, m.title, m.Throughput, false)
	rtm := m.col(seer.PolicyRTM)
	rel := make([][]float64, len(m.Rows))
	for r, tput := range m.Throughput {
		rel[r] = make([]float64, len(tput))
		for p, v := range tput {
			if tput[rtm] > 0 {
				rel[r][p] = v / tput[rtm]
			}
		}
	}
	m.table(w, "\nSpeedup over blind retry (RTM = 1.00)", rel, true)
}
