package stats

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "DSA", "Speedup")
	tb.Add("Widx", "1.54")
	tb.Addf("SpArch", 1.0)
	s := tb.String()
	for _, want := range []string{"== Demo ==", "DSA", "Widx", "1.54", "SpArch", "1.00"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
}

func TestI(t *testing.T) {
	cases := map[int64]string{
		0: "0", 12: "12", 1234: "1,234", 1234567: "1,234,567", -9876: "-9,876",
	}
	for n, want := range cases {
		if got := I(n); got != want {
			t.Errorf("I(%d)=%q want %q", n, got, want)
		}
	}
}

func TestFormatters(t *testing.T) {
	if F2(1.005) != "1.00" && F2(1.005) != "1.01" {
		t.Errorf("F2: %s", F2(1.005))
	}
	if Pct(0.265) != "26.5%" {
		t.Errorf("Pct: %s", Pct(0.265))
	}
	if F1(3.14159) != "3.1" {
		t.Errorf("F1: %s", F1(3.14159))
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{1, 2, 3, 4, 100, 100, 1000} {
		h.Add(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count %d", h.Count())
	}
	// p50 over {1,2,3,4,100,100,1000}: 4th value = 4 → bucket [4,8).
	if p := h.Percentile(0.5); p < 4 || p > 7 {
		t.Fatalf("p50 bound %d", p)
	}
	if p := h.Percentile(1.0); p < 1000 {
		t.Fatalf("p100 bound %d", p)
	}
	if !strings.Contains(h.String(), "[64,128): 2") {
		t.Fatalf("render:\n%s", h.String())
	}
	var empty Histogram
	if empty.Percentile(0.5) != 0 {
		t.Fatal("empty percentile")
	}
}

func TestHistogramZeroAndHuge(t *testing.T) {
	var h Histogram
	h.Add(0)
	h.Add(^uint64(0))
	if h.Count() != 2 {
		t.Fatalf("count %d", h.Count())
	}
	if h[0] != 1 || h[len(h)-1] != 1 {
		t.Fatalf("extremes landed wrong: %v", h)
	}
}

func TestTableDiff(t *testing.T) {
	mk := func() *Table {
		tb := NewTable("t", "A", "B")
		tb.Add("1", "2")
		tb.Add("3", "4")
		return tb
	}
	if d := Diff(mk(), mk()); d != nil {
		t.Fatalf("identical tables diff: %v", d)
	}
	got := mk()
	got.Rows[1][1] = "9"
	d := Diff(got, mk())
	if len(d) != 1 || !strings.Contains(d[0], "row 1 col 1 (B)") || !strings.Contains(d[0], `got "9" want "4"`) {
		t.Fatalf("cell diff: %v", d)
	}
	got = mk()
	got.Title = "x"
	got.Add("5", "6")
	d = Diff(got, mk())
	if len(d) != 2 {
		t.Fatalf("title+rowcount diff: %v", d)
	}
}
