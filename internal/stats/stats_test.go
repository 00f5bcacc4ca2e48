package stats

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("short", 1)
	tb.AddRow("much-longer-name", 123456)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("have %d lines:\n%s", len(lines), out)
	}
	// All lines same width (right column right-aligned).
	w := len(lines[0])
	for i, l := range lines {
		if len(l) != w {
			t.Fatalf("line %d width %d != %d:\n%s", i, len(l), w, out)
		}
	}
	if !strings.Contains(lines[1], "---") {
		t.Fatal("missing underline")
	}
	if !strings.HasPrefix(lines[2], "short") {
		t.Fatal("first column should be left aligned")
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("a")
	tb.AddRow("x", "extra")
	out := tb.String()
	if !strings.Contains(out, "extra") {
		t.Fatal("extra cell dropped")
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		5:      "5",
		-3:     "-3",
		880:    "880",
		113.46: "113.5",
		2.345:  "2.35",
		0.517:  "0.517",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestPct(t *testing.T) {
	if Pct(21.875) != "21.88%" {
		t.Fatalf("Pct = %q", Pct(21.875))
	}
}
