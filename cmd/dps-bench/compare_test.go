package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/dps"
)

func writeBench(t *testing.T, dir, name string, ms []measurement) string {
	t.Helper()
	doc := benchFile{Schema: "dps-bench/1", GoVersion: "go1.22", Quick: true, Experiments: ms}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareNoRegression(t *testing.T) {
	dir := t.TempDir()
	oldP := writeBench(t, dir, "old.json", []measurement{
		{ID: "figure6", NsOp: 1000, AllocsOp: 500},
		{ID: "rebalance", NsOp: 2000, AllocsOp: 700},
	})
	newP := writeBench(t, dir, "new.json", []measurement{
		{ID: "figure6", NsOp: 1050, AllocsOp: 510}, // +5%, +2%: within 10%
		{ID: "rebalance", NsOp: 1900, AllocsOp: 700},
	})
	var sb strings.Builder
	regressed, err := compareFiles(oldP, newP, 0.10, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("unexpected regression:\n%s", sb.String())
	}
}

func TestCompareDetectsNsRegression(t *testing.T) {
	dir := t.TempDir()
	oldP := writeBench(t, dir, "old.json", []measurement{{ID: "figure6", NsOp: 1000, AllocsOp: 500}})
	newP := writeBench(t, dir, "new.json", []measurement{{ID: "figure6", NsOp: 1200, AllocsOp: 500}})
	var sb strings.Builder
	regressed, err := compareFiles(oldP, newP, 0.10, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatalf("20%% ns/op growth not flagged:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "REGRESSION") {
		t.Fatalf("report lacks the regression marker:\n%s", sb.String())
	}
}

func TestCompareDetectsAllocRegression(t *testing.T) {
	dir := t.TempDir()
	oldP := writeBench(t, dir, "old.json", []measurement{{ID: "figure6", NsOp: 1000, AllocsOp: 500}})
	newP := writeBench(t, dir, "new.json", []measurement{{ID: "figure6", NsOp: 1000, AllocsOp: 600}})
	var sb strings.Builder
	regressed, err := compareFiles(oldP, newP, 0.10, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatal("20% alloc growth not flagged")
	}
}

func TestCompareToleratesSuiteDrift(t *testing.T) {
	dir := t.TempDir()
	oldP := writeBench(t, dir, "old.json", []measurement{
		{ID: "figure6", NsOp: 1000, AllocsOp: 500},
		{ID: "gone", NsOp: 1, AllocsOp: 1},
	})
	newP := writeBench(t, dir, "new.json", []measurement{
		{ID: "figure6", NsOp: 900, AllocsOp: 450},
		{ID: "failover", NsOp: 5000, AllocsOp: 9000}, // new experiment: no baseline
	})
	var sb strings.Builder
	regressed, err := compareFiles(oldP, newP, 0.10, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("suite drift must not fail the gate:\n%s", sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "no baseline") || !strings.Contains(out, "dropped") {
		t.Fatalf("drift not reported:\n%s", out)
	}
}

// tpMeasurement builds a throughput measurement with one (size, mode) row
// per rate; the header matches what bench.Throughput emits.
func tpMeasurement(rates map[string]string) measurement {
	m := measurement{
		ID:     "throughput",
		NsOp:   1000,
		Header: []string{"size[B]", "mode", "tokens/s", "MB/s", "egress/payload", "vs plain"},
	}
	for _, key := range []string{"1024/plain", "1024/batch", "65536/plain", "65536/batch"} {
		if rate, ok := rates[key]; ok {
			size, mode, _ := strings.Cut(key, "/")
			m.Rows = append(m.Rows, []string{size, mode, rate, "1.0", "1.000", "1.00x"})
		}
	}
	return m
}

func TestCompareThroughputGate(t *testing.T) {
	dir := t.TempDir()
	oldP := writeBench(t, dir, "old.json", []measurement{tpMeasurement(map[string]string{
		"1024/plain": "30000", "1024/batch": "100000", "65536/plain": "2700", "65536/batch": "2600",
	})})

	// Within threshold (and ns/op stable): tokens/s may wobble 5% down.
	okP := writeBench(t, dir, "ok.json", []measurement{tpMeasurement(map[string]string{
		"1024/plain": "29000", "1024/batch": "95000", "65536/plain": "2700", "65536/batch": "2600",
	})})
	var sb strings.Builder
	regressed, err := compareFiles(oldP, okP, 0.10, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("5%% tokens/s wobble flagged:\n%s", sb.String())
	}

	// tokens/s dropping 40% on one row must fail even though ns/op and
	// allocs are unchanged (the direction is inverted: lower rate = worse).
	badP := writeBench(t, dir, "bad.json", []measurement{tpMeasurement(map[string]string{
		"1024/plain": "30000", "1024/batch": "60000", "65536/plain": "2700", "65536/batch": "2600",
	})})
	sb.Reset()
	regressed, err = compareFiles(oldP, badP, 0.10, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatalf("40%% tokens/s drop not flagged:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "1024/batch") || !strings.Contains(sb.String(), "REGRESSION") {
		t.Fatalf("regressed row not reported:\n%s", sb.String())
	}

	// A new payload size with no baseline row must not fail the gate.
	driftDoc := tpMeasurement(map[string]string{
		"1024/plain": "30000", "1024/batch": "100000", "65536/plain": "2700", "65536/batch": "2600",
	})
	driftDoc.Rows = append(driftDoc.Rows, []string{"524288", "plain", "400", "200.0", "1.000", "1.00x"})
	driftP := writeBench(t, dir, "drift.json", []measurement{driftDoc})
	sb.Reset()
	regressed, err = compareFiles(oldP, driftP, 0.10, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("new payload size without baseline failed the gate:\n%s", sb.String())
	}
}

// histOf builds a latency histogram whose every sample is d.
func histOf(d time.Duration, n int) *dps.Hist {
	h := &dps.Hist{}
	for i := 0; i < n; i++ {
		h.Add(d)
	}
	return h
}

// TestCompareServePrefersStructuredHists: when the -json files carry the
// serve rows' latency histograms, the gate reads exact percentiles from
// them and ignores the printed table cells in both directions.
func TestCompareServePrefersStructuredHists(t *testing.T) {
	dir := t.TempDir()
	rows := map[string][2]string{"echo/sharded": {"45000", "60.00"}}

	oldM := svMeasurement(rows)
	oldM.Hists = map[string]*dps.Hist{"echo/sharded": histOf(50*time.Millisecond, 100)}
	oldP := writeBench(t, dir, "old.json", []measurement{oldM})

	// Table cells identical, but the structured p99 doubled: must regress.
	badM := svMeasurement(rows)
	badM.Hists = map[string]*dps.Hist{"echo/sharded": histOf(100*time.Millisecond, 100)}
	badP := writeBench(t, dir, "bad.json", []measurement{badM})
	var sb strings.Builder
	regressed, err := compareFiles(oldP, badP, 0.10, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatalf("structured p99 doubling not flagged:\n%s", sb.String())
	}

	// Table cell rises 42% but the structured p99 is stable: must pass.
	okM := svMeasurement(map[string][2]string{"echo/sharded": {"45000", "85.00"}})
	okM.Hists = map[string]*dps.Hist{"echo/sharded": histOf(50*time.Millisecond, 100)}
	okP := writeBench(t, dir, "ok.json", []measurement{okM})
	sb.Reset()
	if regressed, err = compareFiles(oldP, okP, 0.10, &sb); err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("stable structured p99 overridden by a printed cell:\n%s", sb.String())
	}
}

func TestCompareRejectsBadSchema(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"nope"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	good := writeBench(t, dir, "good.json", nil)
	var sb strings.Builder
	if _, err := compareFiles(bad, good, 0.10, &sb); err == nil {
		t.Fatal("unknown schema accepted")
	}
}

// TestCompareHostShapeNote checks that a baseline written before the host
// shape was recorded (it carries the retired "workers" field instead) still
// decodes, and that a differing host shape is reported as a note, never as
// a regression.
func TestCompareHostShapeNote(t *testing.T) {
	dir := t.TempDir()
	oldP := filepath.Join(dir, "old.json")
	legacy := `{"schema":"dps-bench/1","go_version":"go1.22","quick":true,"workers":0,
		"experiments":[{"id":"figure6","ns_op":1000,"allocs_op":500}]}`
	if err := os.WriteFile(oldP, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	newP := filepath.Join(dir, "new.json")
	doc := benchFile{Schema: "dps-bench/1", Quick: true, NProc: 2, GOMAXPROCS: 2,
		Experiments: []measurement{{ID: "figure6", NsOp: 1000, AllocsOp: 500}}}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newP, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	regressed, err := compareFiles(oldP, newP, 0.10, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("host-shape difference gated:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "nproc 0/2, gomaxprocs 0/2") {
		t.Fatalf("host-shape note missing:\n%s", sb.String())
	}
}

func svMeasurement(rows map[string][2]string) measurement {
	m := measurement{
		ID:     "serve",
		NsOp:   1000,
		Header: []string{"workload", "mode", "calls/s", "p50[ms]", "p99[ms]", "p999[ms]", "rejected", "expired"},
	}
	for _, key := range []string{"echo/sharded", "fan/sharded", "registry/sharded"} {
		if v, ok := rows[key]; ok {
			workload, mode, _ := strings.Cut(key, "/")
			p50, p999 := "10.00", "90.00"
			if v[1] == "-" {
				p50, p999 = "-", "-"
			}
			m.Rows = append(m.Rows, []string{workload, mode, v[0], p50, v[1], p999, "0", "0"})
		}
	}
	return m
}

func TestCompareServeGate(t *testing.T) {
	dir := t.TempDir()
	oldP := writeBench(t, dir, "old.json", []measurement{svMeasurement(map[string][2]string{
		"echo/sharded": {"45000", "55.00"},
		"fan/sharded":  {"12000", "150.00"}, "registry/sharded": {"5000000", "-"},
	})})

	// Wobble within the threshold on both metrics passes.
	okP := writeBench(t, dir, "ok.json", []measurement{svMeasurement(map[string][2]string{
		"echo/sharded": {"43000", "58.00"},
		"fan/sharded":  {"11500", "155.00"}, "registry/sharded": {"4800000", "-"},
	})})
	var sb strings.Builder
	regressed, err := compareFiles(oldP, okP, 0.10, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("serve wobble within threshold flagged:\n%s", sb.String())
	}

	// calls/s dropping 30% on one row fails (higher is better).
	rateP := writeBench(t, dir, "rate.json", []measurement{svMeasurement(map[string][2]string{
		"echo/sharded": {"31000", "55.00"},
		"fan/sharded":  {"12000", "150.00"}, "registry/sharded": {"5000000", "-"},
	})})
	sb.Reset()
	if regressed, err = compareFiles(oldP, rateP, 0.10, &sb); err != nil {
		t.Fatal(err)
	}
	if !regressed || !strings.Contains(sb.String(), "echo/sharded") {
		t.Fatalf("30%% calls/s drop not flagged:\n%s", sb.String())
	}

	// p99 rising 50% fails even with calls/s holding (lower is better).
	p99P := writeBench(t, dir, "p99.json", []measurement{svMeasurement(map[string][2]string{
		"echo/sharded": {"45000", "85.00"},
		"fan/sharded":  {"12000", "150.00"}, "registry/sharded": {"5000000", "-"},
	})})
	sb.Reset()
	if regressed, err = compareFiles(oldP, p99P, 0.10, &sb); err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatalf("p99 rise not flagged:\n%s", sb.String())
	}

	// Registry rows carry "-" latency cells: gated on ops/s only, and a
	// 30% drop there still fails.
	regP := writeBench(t, dir, "reg.json", []measurement{svMeasurement(map[string][2]string{
		"echo/sharded": {"45000", "55.00"},
		"fan/sharded":  {"12000", "150.00"}, "registry/sharded": {"3400000", "-"},
	})})
	sb.Reset()
	if regressed, err = compareFiles(oldP, regP, 0.10, &sb); err != nil {
		t.Fatal(err)
	}
	if !regressed || !strings.Contains(sb.String(), "registry/sharded") {
		t.Fatalf("registry ops/s drop not flagged:\n%s", sb.String())
	}
}
