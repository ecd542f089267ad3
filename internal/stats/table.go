// Package stats provides the aggregation and presentation helpers the
// experiment harness uses: normalization against a baseline, arithmetic
// and geometric means, and fixed-width text tables shaped like the
// paper's figures.
package stats

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of xs (0 for empty input; panics on
// non-positive values, which would indicate a broken normalization).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %g", x))
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Ratio divides safely: 0/0 normalizes to 1 (both sides did nothing, so
// they are at parity) and x/0 with x > 0 returns +Inf, a deliberately
// loud marker — a finite stand-in would silently distort means.
func Ratio(num, den uint64) float64 {
	if den == 0 {
		if num == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return float64(num) / float64(den)
}

// Table is a labelled grid of numbers, one row per benchmark (or sweep
// point) and one column per system (or configuration).
type Table struct {
	Title string
	Note  string
	Cols  []string
	Rows  []string
	Cells [][]float64 // [row][col]
	// Format is the cell printf verb; default "%.3f".
	Format string
}

// NewTable allocates an empty table with the given axes.
func NewTable(title string, rows, cols []string) *Table {
	cells := make([][]float64, len(rows))
	for i := range cells {
		cells[i] = make([]float64, len(cols))
	}
	return &Table{Title: title, Cols: cols, Rows: rows, Cells: cells}
}

// Set stores a cell by labels; it panics on unknown labels (a typo in an
// experiment definition should fail loudly).
func (t *Table) Set(row, col string, v float64) {
	t.Cells[t.rowIdx(row)][t.colIdx(col)] = v
}

// Get reads a cell by labels.
func (t *Table) Get(row, col string) float64 {
	return t.Cells[t.rowIdx(row)][t.colIdx(col)]
}

func (t *Table) rowIdx(r string) int {
	for i, x := range t.Rows {
		if x == r {
			return i
		}
	}
	panic(fmt.Sprintf("stats: unknown row %q", r))
}

func (t *Table) colIdx(c string) int {
	for i, x := range t.Cols {
		if x == c {
			return i
		}
	}
	panic(fmt.Sprintf("stats: unknown column %q", c))
}

// AddMeanRows appends arithmetic-mean and geometric-mean rows computed
// over the named subset of rows (the paper excludes the microbenchmarks
// from its means). A column holding a value <= 0 (an abort ratio of a
// run without aborts) has no geometric mean; its gmean cell is NaN.
func (t *Table) AddMeanRows(over []string) {
	am := make([]float64, len(t.Cols))
	gm := make([]float64, len(t.Cols))
	for c := range t.Cols {
		var xs []float64
		for _, r := range over {
			xs = append(xs, t.Cells[t.rowIdx(r)][c])
		}
		am[c] = Mean(xs)
		if slices.ContainsFunc(xs, func(x float64) bool { return x <= 0 }) {
			gm[c] = math.NaN()
		} else {
			gm[c] = GeoMean(xs)
		}
	}
	t.Rows = append(t.Rows, "amean", "gmean")
	t.Cells = append(t.Cells, am, gm)
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	format := t.Format
	if format == "" {
		format = "%.3f"
	}
	rowW := len("benchmark")
	for _, r := range t.Rows {
		if len(r) > rowW {
			rowW = len(r)
		}
	}
	colW := make([]int, len(t.Cols))
	for j, c := range t.Cols {
		colW[j] = len(c)
		for i := range t.Rows {
			if n := len(fmt.Sprintf(format, t.Cells[i][j])); n > colW[j] {
				colW[j] = n
			}
		}
	}
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n", t.Note)
	}
	fmt.Fprintf(w, "%-*s", rowW, "")
	for j, c := range t.Cols {
		fmt.Fprintf(w, "  %*s", colW[j], c)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", rowW+sum(colW)+2*len(colW)))
	for i, r := range t.Rows {
		fmt.Fprintf(w, "%-*s", rowW, r)
		for j := range t.Cols {
			fmt.Fprintf(w, "  %*s", colW[j], fmt.Sprintf(format, t.Cells[i][j]))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// WriteCSV emits the table as CSV (header row of column labels, one row
// per benchmark/sweep point) — the same shape the original artifact's
// plotting pipeline consumes.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"row"}, t.Cols...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, r := range t.Rows {
		rec := make([]string, 0, len(t.Cols)+1)
		rec = append(rec, r)
		for j := range t.Cols {
			rec = append(rec, strconv.FormatFloat(t.Cells[i][j], 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
