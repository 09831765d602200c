package trace

import (
	"strings"
	"testing"
	"time"
)

func TestThroughputMBs(t *testing.T) {
	if got := ThroughputMBs(100e6, time.Second); got != 100 {
		t.Fatalf("got %g", got)
	}
	if got := ThroughputMBs(1e6, 0); got != 0 {
		t.Fatalf("zero duration should yield 0, got %g", got)
	}
	if got := ThroughputMBs(50e6, 500*time.Millisecond); got != 100 {
		t.Fatalf("got %g", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:  "demo",
		Header: []string{"name", "value"},
	}
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22222")
	out := tb.String()
	if !strings.Contains(out, "demo") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + separator + 2 rows
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
	// Columns aligned: all data lines equal length.
	if len(lines[3]) != len(lines[4]) {
		t.Errorf("rows not aligned:\n%s", out)
	}
	if !strings.Contains(lines[2], "----") {
		t.Errorf("missing separator:\n%s", out)
	}
}

func TestTableAddRowf(t *testing.T) {
	tb := &Table{Header: []string{"a", "b", "c"}}
	tb.AddRowf("%d %s %.1f", 1, "x", 2.5)
	if len(tb.Rows) != 1 || len(tb.Rows[0]) != 3 || tb.Rows[0][2] != "2.5" {
		t.Fatalf("rows = %v", tb.Rows)
	}
}

func TestStopwatch(t *testing.T) {
	sw := StartStopwatch()
	time.Sleep(10 * time.Millisecond)
	if el := sw.Elapsed(); el < 5*time.Millisecond {
		t.Fatalf("elapsed %v too small", el)
	}
}
