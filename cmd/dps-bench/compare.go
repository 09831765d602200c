package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// compareFiles diffs two -json outputs (old, new) experiment by experiment
// and reports regressions beyond the noise threshold: ns/op and allocs/op
// growing by more than threshold (a fraction, e.g. 0.10) fail the
// comparison, and the throughput experiment additionally fails on its
// primary metric — tokens/s per (size, mode) row dropping by more than the
// threshold (direction inverted: lower is worse). Experiments present in
// only one file are reported but do not fail it (the suite grows over
// time). CI uses this to gate on the ring benchmark's trajectory without
// hand-reading artifacts.
func compareFiles(oldPath, newPath string, threshold float64, out *strings.Builder) (regressed bool, err error) {
	oldDoc, err := readBenchFile(oldPath)
	if err != nil {
		return false, fmt.Errorf("read %s: %w", oldPath, err)
	}
	newDoc, err := readBenchFile(newPath)
	if err != nil {
		return false, fmt.Errorf("read %s: %w", newPath, err)
	}
	if oldDoc.Quick != newDoc.Quick || oldDoc.NProc != newDoc.NProc || oldDoc.GOMAXPROCS != newDoc.GOMAXPROCS {
		fmt.Fprintf(out, "note: configurations differ (quick %v/%v, nproc %d/%d, gomaxprocs %d/%d) — deltas may not be meaningful\n",
			oldDoc.Quick, newDoc.Quick, oldDoc.NProc, newDoc.NProc, oldDoc.GOMAXPROCS, newDoc.GOMAXPROCS)
	}
	oldByID := make(map[string]measurement, len(oldDoc.Experiments))
	for _, m := range oldDoc.Experiments {
		oldByID[m.ID] = m
	}
	fmt.Fprintf(out, "%-12s %15s %15s %9s   %15s %15s %9s\n",
		"experiment", "ns/op old", "ns/op new", "delta", "allocs old", "allocs new", "delta")
	for _, n := range newDoc.Experiments {
		o, ok := oldByID[n.ID]
		if !ok {
			fmt.Fprintf(out, "%-12s (new experiment, no baseline)\n", n.ID)
			continue
		}
		delete(oldByID, n.ID)
		nsDelta := ratio(float64(n.NsOp), float64(o.NsOp))
		allocDelta := ratio(float64(n.AllocsOp), float64(o.AllocsOp))
		nsBad := nsDelta > threshold
		allocBad := allocDelta > threshold
		mark := ""
		if nsBad || allocBad {
			mark = "  << REGRESSION"
			regressed = true
		}
		fmt.Fprintf(out, "%-12s %15d %15d %8.1f%%   %15d %15d %8.1f%%%s\n",
			n.ID, o.NsOp, n.NsOp, nsDelta*100, o.AllocsOp, n.AllocsOp, allocDelta*100, mark)
		if n.ID == "throughput" && compareThroughput(o, n, threshold, out) {
			regressed = true
		}
		if n.ID == "serve" && compareServe(o, n, threshold, out) {
			regressed = true
		}
	}
	for id := range oldByID {
		fmt.Fprintf(out, "%-12s (dropped from the new run)\n", id)
	}
	return regressed, nil
}

// compareThroughput gates the throughput experiment on its primary metric:
// tokens/s per (size, mode) table row. The regression direction is inverted
// relative to ns/op — new LOWER than old beyond the threshold fails. Rows
// are matched by their size and mode columns, so reordering or adding
// payload sizes does not fail the gate; only a measured rate falling does.
func compareThroughput(o, n measurement, threshold float64, out *strings.Builder) (regressed bool) {
	col := func(m measurement) int {
		for i, h := range m.Header {
			if h == "tokens/s" {
				return i
			}
		}
		return -1
	}
	oc, nc := col(o), col(n)
	if oc < 0 || nc < 0 || oc < 2 || nc < 2 {
		return false
	}
	oldRate := make(map[string]float64, len(o.Rows))
	for _, r := range o.Rows {
		if len(r) > oc {
			if v, err := strconv.ParseFloat(strings.TrimSpace(r[oc]), 64); err == nil {
				oldRate[strings.TrimSpace(r[0])+"/"+strings.TrimSpace(r[1])] = v
			}
		}
	}
	for _, r := range n.Rows {
		if len(r) <= nc {
			continue
		}
		key := strings.TrimSpace(r[0]) + "/" + strings.TrimSpace(r[1])
		ov, ok := oldRate[key]
		if !ok || ov <= 0 {
			continue
		}
		nv, err := strconv.ParseFloat(strings.TrimSpace(r[nc]), 64)
		if err != nil {
			continue
		}
		mark := ""
		if (ov-nv)/ov > threshold {
			mark = "  << REGRESSION"
			regressed = true
		}
		fmt.Fprintf(out, "  %-22s %12.0f -> %-12.0f tokens/s %+7.1f%%%s\n",
			key, ov, nv, (nv-ov)/ov*100, mark)
	}
	return regressed
}

// compareServe gates the serve experiment per (workload, mode) row on both
// of its service-level metrics: calls/s falling by more than the threshold
// (higher is better) and the p99 of completed calls rising by more than the
// threshold (lower is better). When a file carries the row's structured
// latency histogram (measurement.Hists, emitted since the observability
// work) its exact p99 is preferred over the printed table cell, so the gate
// is immune to cell formatting and rounding. Registry isolation rows carry
// "-" latency cells and no histogram, so they are gated on calls/s only;
// rows present in just one file are skipped like compareThroughput's.
func compareServe(o, n measurement, threshold float64, out *strings.Builder) (regressed bool) {
	col := func(m measurement, name string) int {
		for i, h := range m.Header {
			if h == name {
				return i
			}
		}
		return -1
	}
	type serveRow struct{ rate, p99 float64 }
	parse := func(m measurement, rateCol, p99Col int) map[string]serveRow {
		rows := make(map[string]serveRow, len(m.Rows))
		for _, r := range m.Rows {
			if len(r) <= rateCol || len(r) <= p99Col {
				continue
			}
			rate, err := strconv.ParseFloat(strings.TrimSpace(r[rateCol]), 64)
			if err != nil {
				continue
			}
			// Latency is optional: registry rows print "-" there.
			p99, err := strconv.ParseFloat(strings.TrimSpace(r[p99Col]), 64)
			if err != nil {
				p99 = 0
			}
			rows[strings.TrimSpace(r[0])+"/"+strings.TrimSpace(r[1])] = serveRow{rate: rate, p99: p99}
		}
		return rows
	}
	oRate, oP99 := col(o, "calls/s"), col(o, "p99[ms]")
	nRate, nP99 := col(n, "calls/s"), col(n, "p99[ms]")
	if oRate < 2 || oP99 < 0 || nRate < 2 || nP99 < 0 {
		return false
	}
	oldRows := parse(o, oRate, oP99)
	for _, r := range n.Rows {
		if len(r) <= nRate || len(r) <= nP99 {
			continue
		}
		key := strings.TrimSpace(r[0]) + "/" + strings.TrimSpace(r[1])
		ov, ok := oldRows[key]
		if !ok || ov.rate <= 0 {
			continue
		}
		nv, err := strconv.ParseFloat(strings.TrimSpace(r[nRate]), 64)
		if err != nil {
			continue
		}
		p99, err := strconv.ParseFloat(strings.TrimSpace(r[nP99]), 64)
		if err != nil {
			p99 = 0
		}
		// Structured histograms beat printed cells on either side.
		if v, ok := histP99ms(o, key); ok {
			ov.p99 = v
		}
		if v, ok := histP99ms(n, key); ok {
			p99 = v
		}
		rateBad := (ov.rate-nv)/ov.rate > threshold
		p99Bad := ov.p99 > 0 && p99 > 0 && (p99-ov.p99)/ov.p99 > threshold
		mark := ""
		if rateBad || p99Bad {
			mark = "  << REGRESSION"
			regressed = true
		}
		fmt.Fprintf(out, "  %-22s %12.0f -> %-12.0f calls/s %+7.1f%%  p99 %7.2f -> %-7.2f ms%s\n",
			key, ov.rate, nv, (nv-ov.rate)/ov.rate*100, ov.p99, p99, mark)
	}
	return regressed
}

// histP99ms returns the exact p99 (in milliseconds) of one row's structured
// latency histogram, when the measurement carries it.
func histP99ms(m measurement, key string) (float64, bool) {
	h := m.Hists[key]
	if h == nil || h.Len() == 0 {
		return 0, false
	}
	return float64(h.Percentile(99)) / float64(time.Millisecond), true
}

// ratio returns (new-old)/old, clamping a zero baseline to "no change" —
// a dimension that was never measured cannot regress.
func ratio(newV, oldV float64) float64 {
	if oldV <= 0 {
		return 0
	}
	return (newV - oldV) / oldV
}

func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := &benchFile{}
	if err := json.Unmarshal(data, doc); err != nil {
		return nil, err
	}
	if doc.Schema != "dps-bench/1" {
		return nil, fmt.Errorf("unknown schema %q", doc.Schema)
	}
	return doc, nil
}

// runCompare implements the -compare mode: exit 0 on no regression, 1 on
// regression, 2 on usage/read errors. The flag package stops parsing at
// the first positional argument, so `-threshold` given after the two file
// operands (as the usage line shows) is scanned here.
func runCompare(args []string, threshold float64) int {
	var files []string
	for i := 0; i < len(args); i++ {
		arg := args[i]
		switch {
		case arg == "-threshold" || arg == "--threshold":
			if i+1 >= len(args) {
				fmt.Fprintln(os.Stderr, "dps-bench: -threshold needs a value")
				return 2
			}
			i++
			v, err := strconv.ParseFloat(args[i], 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dps-bench: bad threshold %q\n", args[i])
				return 2
			}
			threshold = v
		case strings.HasPrefix(arg, "-threshold=") || strings.HasPrefix(arg, "--threshold="):
			v, err := strconv.ParseFloat(arg[strings.IndexByte(arg, '=')+1:], 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dps-bench: bad threshold %q\n", arg)
				return 2
			}
			threshold = v
		default:
			files = append(files, arg)
		}
	}
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "usage: dps-bench -compare old.json new.json [-threshold 0.10]")
		return 2
	}
	var sb strings.Builder
	regressed, err := compareFiles(files[0], files[1], threshold, &sb)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dps-bench:", err)
		return 2
	}
	fmt.Print(sb.String())
	if regressed {
		fmt.Printf("regression beyond %.0f%% threshold\n", threshold*100)
		return 1
	}
	fmt.Printf("no regression beyond %.0f%% threshold\n", threshold*100)
	return 0
}
