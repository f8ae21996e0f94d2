// Package stats provides the small table/series formatting layer shared
// by the experiment harness (internal/exp), cmd/xcache-bench and the
// benchmark suite.
package stats

import (
	"fmt"
	"strings"
)

// Table is a titled text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given title and column header.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Add appends a row.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Addf appends a row formatting each value with %v.
func (t *Table) Addf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = F2(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	all := make([][]string, 0, len(t.Rows)+1)
	if len(t.Header) > 0 {
		all = append(all, t.Header)
	}
	all = append(all, t.Rows...)
	widths := map[int]int{}
	for _, row := range all {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(row []string) {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	if len(t.Header) > 0 {
		line(t.Header)
		total := 0
		for i := range t.Header {
			total += widths[i] + 2
		}
		b.WriteString(strings.Repeat("-", total))
		b.WriteString("\n")
	}
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Diff returns one human-readable line per difference between two
// tables: title, header, row count, and per-cell mismatches, each
// located by row and column. Identical tables yield nil.
func Diff(got, want *Table) []string {
	var d []string
	if got.Title != want.Title {
		d = append(d, fmt.Sprintf("title: got %q want %q", got.Title, want.Title))
	}
	if len(got.Header) != len(want.Header) {
		d = append(d, fmt.Sprintf("header: got %d columns want %d", len(got.Header), len(want.Header)))
	} else {
		for i := range want.Header {
			if got.Header[i] != want.Header[i] {
				d = append(d, fmt.Sprintf("header col %d: got %q want %q", i, got.Header[i], want.Header[i]))
			}
		}
	}
	if len(got.Rows) != len(want.Rows) {
		d = append(d, fmt.Sprintf("rows: got %d want %d", len(got.Rows), len(want.Rows)))
	}
	for r := 0; r < len(got.Rows) && r < len(want.Rows); r++ {
		g, w := got.Rows[r], want.Rows[r]
		if len(g) != len(w) {
			d = append(d, fmt.Sprintf("row %d: got %d cells want %d", r, len(g), len(w)))
			continue
		}
		for c := range w {
			if g[c] != w[c] {
				col := fmt.Sprintf("col %d", c)
				if c < len(want.Header) {
					col = fmt.Sprintf("col %d (%s)", c, want.Header[c])
				}
				d = append(d, fmt.Sprintf("row %d %s: got %q want %q", r, col, g[c], w[c]))
			}
		}
	}
	return d
}

// F2 formats a float with two decimals.
func F2(v float64) string { return fmt.Sprintf("%.2f", v) }

// F1 formats a float with one decimal.
func F1(v float64) string { return fmt.Sprintf("%.1f", v) }

// Pct formats a ratio as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// I formats an integer with thousands separators.
func I[T ~int | ~int64 | ~uint64 | ~int32 | ~uint32](n T) string {
	s := fmt.Sprintf("%d", n)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	out := strings.Join(parts, ",")
	if neg {
		out = "-" + out
	}
	return out
}

// Histogram is a power-of-two-bucketed latency histogram: bucket i counts
// values in [2^i, 2^(i+1)).
type Histogram [28]uint64

// Add records one value.
func (h *Histogram) Add(v uint64) {
	b := 0
	for v > 1 && b < len(h)-1 {
		v >>= 1
		b++
	}
	h[b]++
}

// Merge adds other's counts into h, so per-tenant or per-shard histograms
// aggregate into fleet-wide percentiles without re-recording samples.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other {
		h[i] += c
	}
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 {
	var n uint64
	for _, c := range h {
		n += c
	}
	return n
}

// Percentile returns an upper bound on the p-quantile (0 < p ≤ 1): the
// top of the bucket containing it.
func (h *Histogram) Percentile(p float64) uint64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	// Ceiling: the smallest count covering the p fraction.
	target := uint64(p*float64(total) + 0.9999999)
	if target == 0 {
		target = 1
	}
	if target > total {
		target = total
	}
	var seen uint64
	for i, c := range h {
		seen += c
		if seen >= target {
			return (uint64(1) << uint(i+1)) - 1
		}
	}
	return ^uint64(0)
}

// String renders the non-empty buckets.
func (h *Histogram) String() string {
	var b strings.Builder
	for i, c := range h {
		if c == 0 {
			continue
		}
		fmt.Fprintf(&b, "[%d,%d): %d\n", uint64(1)<<uint(i), uint64(1)<<uint(i+1), c)
	}
	return b.String()
}
