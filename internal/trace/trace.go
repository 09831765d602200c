// Package trace provides the timing and reporting utilities used by the
// experiment harness: latency histograms with medians and percentiles,
// throughput computation, and plain-text table rendering for regenerating
// the paper's tables and figure series.
package trace

import (
	"fmt"
	"strings"
	"time"
)

// ThroughputMBs converts bytes moved in a duration to MB/s (1 MB = 1e6 B,
// as in the paper's Figure 6 axis).
func ThroughputMBs(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// Table renders rows of cells as a plain-text table with a header,
// right-aligning numeric-looking cells.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddRowf appends a row built from formatted values.
func (t *Table) AddRowf(format string, args ...any) {
	t.AddRow(strings.Fields(fmt.Sprintf(format, args...))...)
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteString("\n")
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&sb, "%*s", widths[i], c)
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteString("\n")
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// Stopwatch measures one interval.
type Stopwatch struct {
	start time.Time
}

// StartStopwatch begins timing.
func StartStopwatch() *Stopwatch { return &Stopwatch{start: time.Now()} }

// Elapsed returns the time since start.
func (s *Stopwatch) Elapsed() time.Duration { return time.Since(s.start) }
