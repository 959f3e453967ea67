package metrics

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unicode/utf8"
)

func TestDistributionBasics(t *testing.T) {
	d := NewDistribution()
	for _, x := range []float64{3, 1, 2, 5, 4} {
		d.Add(x)
	}
	if d.N() != 5 {
		t.Errorf("N = %d", d.N())
	}
	if d.Mean() != 3 {
		t.Errorf("Mean = %v", d.Mean())
	}
	if d.Max() != 5 {
		t.Errorf("Max = %v", d.Max())
	}
}

func TestDistributionEmpty(t *testing.T) {
	d := NewDistribution()
	if d.Mean() != 0 || d.Max() != 0 {
		t.Error("empty distribution summaries should be 0")
	}
	if d.Percentile(50) != 0 {
		t.Error("empty percentile should be 0")
	}
	if d.FractionBelow(10) != 0 {
		t.Error("empty FractionBelow should be 0")
	}
}

func TestPercentile(t *testing.T) {
	d := NewDistribution()
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {1, 1}, {50, 50}, {90, 90}, {100, 100}, {150, 100}, {-5, 1},
	}
	for _, c := range cases {
		if got := d.Percentile(c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestFractionBelow(t *testing.T) {
	d := NewDistribution()
	for i := 1; i <= 10; i++ {
		d.Add(float64(i))
	}
	if got := d.FractionBelow(5); got != 0.5 {
		t.Errorf("FractionBelow(5) = %v", got)
	}
	if got := d.FractionBelow(0.5); got != 0 {
		t.Errorf("FractionBelow(0.5) = %v", got)
	}
	if got := d.FractionBelow(100); got != 1 {
		t.Errorf("FractionBelow(100) = %v", got)
	}
}

func TestAddDuration(t *testing.T) {
	d := NewDistribution()
	d.AddDuration(1500 * time.Millisecond)
	if d.Mean() != 1.5 {
		t.Errorf("Mean = %v, want 1.5", d.Mean())
	}
}

// Property: FractionBelow(Percentile(p)) ≥ p/100.
func TestPercentileFractionConsistency(t *testing.T) {
	f := func(raw []float64, p uint8) bool {
		if len(raw) == 0 {
			return true
		}
		d := NewDistribution()
		for _, x := range raw {
			d.Add(x)
		}
		pct := float64(p % 101)
		return d.FractionBelow(d.Percentile(pct))*100+1e-9 >= pct
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22")
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "alpha") {
		t.Errorf("row = %q", lines[2])
	}
	// All lines padded to the same visual width structure.
	if len(lines[1]) < len("name  value") {
		t.Errorf("separator too short: %q", lines[1])
	}
}

func TestTableAlignsNonASCIICells(t *testing.T) {
	tb := NewTable("metric", "µs", "paper")
	tb.AddRow("mean hops", "2.50", "O(log |Π|)")
	tb.AddRow("recall", "≥0.9", "-")
	lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
	want := utf8.RuneCountInString(lines[0])
	for _, l := range lines {
		if got := utf8.RuneCountInString(l); got != want {
			t.Errorf("line %q is %d runes wide, header is %d", l, got, want)
		}
	}
	// The last column starts at the same rune offset on every row.
	col := func(l, cell string) int { return utf8.RuneCountInString(l[:strings.Index(l, cell)]) }
	if a, b := col(lines[2], "O(log"), col(lines[3], "-"); a != b {
		t.Errorf("last column starts at rune %d and %d", a, b)
	}
}

func TestTableRowfAndRaggedRows(t *testing.T) {
	tb := NewTable("a", "b", "c")
	tb.AddRow("1", "2") // missing third cell
	tb.AddRow("x", "y", "z", "overflow")
	out := tb.String()
	if strings.Contains(out, "overflow") {
		t.Error("overflow cell should be dropped")
	}
	if !strings.Contains(out, "1") || !strings.Contains(out, "z") {
		t.Errorf("table content missing:\n%s", out)
	}
}
