// Package metrics provides the small statistical toolkit shared by the
// experiment harness: empirical distributions, percentiles, CDF fractions,
// and fixed-width table rendering for paper-style output.
package metrics

import (
	"math"
	"sort"
	"strings"
	"time"
	"unicode/utf8"
)

// Distribution accumulates float64 observations and answers summary queries.
type Distribution struct {
	xs     []float64
	sorted bool
}

// NewDistribution returns an empty distribution.
func NewDistribution() *Distribution { return &Distribution{} }

// Add records one observation.
func (d *Distribution) Add(x float64) {
	d.xs = append(d.xs, x)
	d.sorted = false
}

// AddDuration records a duration in seconds.
func (d *Distribution) AddDuration(t time.Duration) { d.Add(t.Seconds()) }

// N returns the number of observations.
func (d *Distribution) N() int { return len(d.xs) }

// Mean returns the arithmetic mean (0 for an empty distribution).
func (d *Distribution) Mean() float64 {
	if len(d.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range d.xs {
		sum += x
	}
	return sum / float64(len(d.xs))
}

// Max returns the largest observation (0 if empty).
func (d *Distribution) Max() float64 {
	d.ensureSorted()
	if len(d.xs) == 0 {
		return 0
	}
	return d.xs[len(d.xs)-1]
}

// Percentile returns the p-th percentile (p in [0,100]) using
// nearest-rank on the sorted sample. Empty distributions return 0.
func (d *Distribution) Percentile(p float64) float64 {
	if len(d.xs) == 0 {
		return 0
	}
	d.ensureSorted()
	if p <= 0 {
		return d.xs[0]
	}
	if p >= 100 {
		return d.xs[len(d.xs)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(d.xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return d.xs[rank]
}

// FractionBelow returns the fraction of observations ≤ x.
func (d *Distribution) FractionBelow(x float64) float64 {
	if len(d.xs) == 0 {
		return 0
	}
	d.ensureSorted()
	// Upper bound binary search.
	lo, hi := 0, len(d.xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if d.xs[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return float64(lo) / float64(len(d.xs))
}

func (d *Distribution) ensureSorted() {
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
}

// Table renders rows of paper-style output with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells beyond the header width are dropped, missing
// cells are blank.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table. Column widths count runes, not bytes, so cells
// holding non-ASCII text ("O(log |Π|)", "≥", "µs") stay aligned.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); n > widths[i] {
				widths[i] = n
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
