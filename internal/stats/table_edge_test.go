package stats

import (
	"strings"
	"testing"
)

// Edge cases for Diff: empty tables, disjoint row sets, mismatched
// column orders and ragged rows — the shapes golden comparisons meet.

func TestDiffEmptyTables(t *testing.T) {
	a := NewTable("t", "A")
	b := NewTable("t", "A")
	if d := Diff(a, b); d != nil {
		t.Fatalf("identical empty tables diff: %v", d)
	}
}

func TestDiffEmptyVsPopulated(t *testing.T) {
	a := NewTable("t", "A")
	b := NewTable("t", "A")
	b.Add("1")
	d := Diff(a, b)
	if len(d) != 1 || !strings.Contains(d[0], "rows: got 0 want 1") {
		t.Fatalf("want a single row-count diff, got %v", d)
	}
}

func TestDiffDisjointRowSets(t *testing.T) {
	a := NewTable("t", "K")
	a.Add("k1")
	a.Add("k2")
	b := NewTable("t", "K")
	b.Add("k3")
	d := Diff(a, b)
	// Row-count mismatch plus a cell mismatch on the one comparable row.
	if len(d) != 2 {
		t.Fatalf("want 2 diffs (count + cell), got %v", d)
	}
	if !strings.Contains(d[0], "rows: got 2 want 1") {
		t.Fatalf("missing row-count diff: %v", d)
	}
	if !strings.Contains(d[1], `got "k1" want "k3"`) {
		t.Fatalf("missing cell diff for the overlapping row: %v", d)
	}
}

func TestDiffMismatchedColumnOrder(t *testing.T) {
	a := NewTable("t", "A", "B")
	a.Add("1", "2")
	b := NewTable("t", "B", "A")
	b.Add("2", "1")
	d := Diff(a, b)
	var headerDiffs, cellDiffs int
	for _, line := range d {
		if strings.Contains(line, "header col") {
			headerDiffs++
		}
		if strings.Contains(line, "row 0") {
			cellDiffs++
		}
	}
	if headerDiffs != 2 {
		t.Fatalf("want both reordered header columns reported, got %v", d)
	}
	if cellDiffs != 2 {
		t.Fatalf("want both swapped cells reported, got %v", d)
	}
	// Cell diffs must name the want-side header for the column.
	found := false
	for _, line := range d {
		if strings.Contains(line, "(B)") && strings.Contains(line, "row 0") {
			found = true
		}
	}
	if !found {
		t.Fatalf("cell diff does not name the want-side column header: %v", d)
	}
}

func TestDiffRaggedRows(t *testing.T) {
	a := NewTable("t", "A", "B")
	a.Add("1") // short row
	b := NewTable("t", "A", "B")
	b.Add("1", "2")
	d := Diff(a, b)
	if len(d) != 1 || !strings.Contains(d[0], "row 0: got 1 cells want 2") {
		t.Fatalf("want a row-arity diff, got %v", d)
	}
}
