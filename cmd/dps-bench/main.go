// Command dps-bench regenerates the paper's evaluation tables and figures
// on the simulated cluster.
//
// Usage:
//
//	dps-bench -exp figure6|table1|figure9|table2|figure15|rebalance|failover|throughput|serve|all
//	          [-quick] [-stats] [-write EXPERIMENTS.md]
//	          [-json results.json]
//	dps-bench -exp chaos [-seed N] [-duration D] [-quick]
//	dps-bench -compare old.json new.json [-threshold 0.10]
//
// -compare diffs two -json outputs experiment by experiment and exits
// non-zero when ns/op or allocs/op regressed beyond the threshold; CI uses
// it to gate on the ring benchmark's trajectory against the previous run.
//
// Without -write the regenerated tables print to stdout; with -write the
// output is additionally assembled into the experiments report file,
// recording paper-reference values next to the measured rows. -stats
// dumps the aggregated engine counters of each experiment (tokens, bytes,
// flow-control stalls, queue depths, drainer handoffs, migrations).
// -json writes machine-readable results — per experiment: wall-clock ns,
// allocation bytes/counts of the host process, the table rows and the
// engine counters — so CI can archive one BENCH_<sha>.json per commit and
// the performance trajectory has data points. Each file also records the
// host's shape (nproc, GOMAXPROCS, Go version); -compare notes a
// difference but does not gate on it.
//
// The rebalance experiment is not in the paper: it prices the placement
// layer's live thread migration by remapping a ring hop mid-benchmark.
//
// The throughput experiment (not in the paper) measures the wire path over
// real loopback TCP — wall-clock tokens/sec and goodput at several payload
// sizes, with wire batching and fault tolerance toggled — and is the
// regression harness for the batched wire path (-compare gates on its
// tokens/s trajectory).
//
// The serve experiment (not in the paper) saturates a 3-node real-TCP
// deployment with thousands of concurrent closed-loop callers and compares
// the single-mutex pending-call table with the sharded registry under
// admission control and the deadline-aware flow policy; -compare gates on
// its calls/s and p99 trajectory.
//
// The chaos experiment (also not in the paper, and not part of -exp all)
// soaks the ring and the Game of Life under seeded randomized fault
// schedules — delivery jitter, transient send errors, healing partitions,
// node crashes — and fails unless every call completes, transients cause
// zero failovers and every crash exactly one. -seed reproduces a failing
// schedule exactly; -duration stretches the soak (CI's nightly job runs
// it for minutes with a randomized seed).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/dps"
	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: figure6, table1, figure9, table2, figure15, rebalance, failover, throughput, serve, chaos or all (all = every experiment except chaos, which binds wall-clock minutes and must be requested explicitly)")
	quick := flag.Bool("quick", false, "shrink problem sizes for a fast smoke run")
	stats := flag.Bool("stats", false, "dump aggregated engine counters per experiment")
	write := flag.String("write", "", "also write the report to this file (e.g. EXPERIMENTS.md)")
	jsonOut := flag.String("json", "", "also write machine-readable results to this file")
	compare := flag.Bool("compare", false, "compare two -json files (old new) and fail on regression")
	threshold := flag.Float64("threshold", 0.10, "with -compare: regression threshold as a fraction")
	seed := flag.Int64("seed", 0, "chaos: fault-schedule seed (0 = default; a failure reproduces from its seed)")
	duration := flag.Duration("duration", 0, "chaos: soak span per workload (0 = default)")
	flag.Parse()

	if *compare {
		os.Exit(runCompare(flag.Args(), *threshold))
	}

	opt := bench.Options{Quick: *quick, Seed: *seed, Duration: *duration}
	fns := map[string]func(bench.Options) (*bench.Report, error){
		"figure6":    bench.Figure6,
		"table1":     bench.Table1,
		"figure9":    bench.Figure9,
		"table2":     bench.Table2,
		"figure15":   bench.Figure15,
		"rebalance":  bench.Rebalance,
		"failover":   bench.Failover,
		"throughput": bench.Throughput,
		"serve":      bench.Serve,
		"chaos":      bench.Chaos,
	}
	var order []string
	if *exp == "all" {
		order = []string{"figure6", "table1", "figure9", "table2", "figure15", "rebalance", "failover", "throughput", "serve"}
	} else {
		if _, ok := fns[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		order = []string{*exp}
	}

	var reports []*bench.Report
	var measures []measurement
	for _, id := range order {
		fmt.Fprintf(os.Stderr, "running %s ...\n", id)
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		r, err := fns[id](opt)
		elapsed := time.Since(start)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "%s done in %v\n", id, elapsed.Round(time.Millisecond))
		fmt.Println(r.String())
		if *stats && r.Stats != nil {
			fmt.Println(formatStats(r.Stats))
		}
		reports = append(reports, r)
		measures = append(measures, measure(r, elapsed, &before, &after))
	}

	if *write != "" {
		if err := os.WriteFile(*write, []byte(renderMarkdown(reports, opt)), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *write, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *write)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, measures, opt); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
	}
}

// measurement is the machine-readable record of one experiment run.
type measurement struct {
	ID string `json:"id"`
	// NsOp is the experiment's wall-clock time in nanoseconds (one
	// experiment = one "op", mirroring go test -bench units).
	NsOp int64 `json:"ns_op"`
	// BytesOp / AllocsOp are the host process's heap allocation deltas
	// across the experiment.
	BytesOp  uint64 `json:"bytes_op"`
	AllocsOp uint64 `json:"allocs_op"`
	// Header and Rows reproduce the experiment's table.
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	// Stats are the aggregated engine counters (tokens, bytes, stalls,
	// migrations, forwarded tokens, ...).
	Stats *dps.Stats `json:"stats,omitempty"`
	// Hists carries the experiment's latency distributions keyed by table
	// row (serve's "workload/mode" completed-call latency, chaos's
	// "recovery/workload" crash-to-recovered latency): exact counts and
	// sparse buckets plus derived percentiles, so -compare gates on
	// structured values instead of re-parsing printed table cells.
	Hists map[string]*dps.Hist `json:"hists,omitempty"`
}

func measure(r *bench.Report, elapsed time.Duration, before, after *runtime.MemStats) measurement {
	return measurement{
		ID:       r.ID,
		NsOp:     elapsed.Nanoseconds(),
		BytesOp:  after.TotalAlloc - before.TotalAlloc,
		AllocsOp: after.Mallocs - before.Mallocs,
		Header:   r.Table.Header,
		Rows:     r.Table.Rows,
		Stats:    r.Stats,
		Hists:    r.Hists,
	}
}

// benchFile is the top-level -json document.
type benchFile struct {
	Schema      string        `json:"schema"`
	GoVersion   string        `json:"go_version"`
	Quick       bool          `json:"quick"`
	NProc       int           `json:"nproc"`      // host CPUs (runtime.NumCPU)
	GOMAXPROCS  int           `json:"gomaxprocs"` // Go scheduler parallelism
	Experiments []measurement `json:"experiments"`
}

func writeJSON(path string, measures []measurement, opt bench.Options) error {
	doc := benchFile{
		Schema:      "dps-bench/1",
		GoVersion:   runtime.Version(),
		Quick:       opt.Quick,
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Experiments: measures,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// formatStats renders an experiment's aggregated engine counters.
func formatStats(s *dps.Stats) string {
	return fmt.Sprintf(`engine stats:
  tokens posted     %d (local %d, remote %d)
  bytes sent        %d
  groups opened     %d
  acks sent         %d
  window stalls     %d
  calls completed   %d
  calls admitted    %d (rejected %d at admission, expired %d at deadline)
  queue high-water  %d
  drainer handoffs  %d
  frames batched    %d (max %d tokens/frame)
  batch compression %d -> %d bytes
  migrations        %d (forwarded %d tokens, %d state bytes)
  fault tolerance   %d checkpoints (%d state bytes), %d replayed, %d failovers
  send retries      %d (transient faults absorbed in the grace window)
`, s.TokensPosted, s.TokensLocal, s.TokensRemote, s.BytesSent,
		s.GroupsOpened, s.AcksSent, s.WindowStalls, s.CallsCompleted,
		s.CallsAdmitted, s.CallsRejected, s.CallsExpired,
		s.QueueHighWater, s.DrainerHandoffs,
		s.FramesBatched, s.TokensPerFrame,
		s.UncompressedBytes, s.CompressedBytes,
		s.MigrationsCompleted, s.TokensForwarded, s.MigrationBytes,
		s.CheckpointsTaken, s.CheckpointBytes, s.TokensReplayed, s.FailoversCompleted,
		s.SendRetries)
}

func renderMarkdown(reports []*bench.Report, opt bench.Options) string {
	var sb strings.Builder
	sb.WriteString("# EXPERIMENTS — paper vs. measured\n\n")
	sb.WriteString("Generated by `cmd/dps-bench`")
	if opt.Quick {
		sb.WriteString(" (quick mode — reduced problem sizes)")
	}
	sb.WriteString(" on the simulated cluster substrate (internal/simnet,\n")
	sb.WriteString("Gigabit-Ethernet-class model; see DESIGN.md for the substitution table).\n")
	sb.WriteString("Absolute numbers are not comparable to the paper's 2003 testbed — the\n")
	sb.WriteString("*shape* columns and the notes record what must (and does) hold.\n\n")
	titles := map[string]string{
		"figure6":    "Figure 6 — round-trip ring throughput, DPS vs raw transfers",
		"table1":     "Table 1 — execution-time reduction from overlapping (block matmul)",
		"figure9":    "Figure 9 — Game of Life speedup, simple vs improved flow graph",
		"table2":     "Table 2 — world-read service calls during the simulation",
		"figure15":   "Figure 15 — LU factorization speedup, pipelined vs non-pipelined",
		"rebalance":  "Rebalance — live thread remap of a ring hop mid-benchmark (not in paper)",
		"failover":   "Failover — ring node crash mid-benchmark, checkpoint restore + replay (not in paper)",
		"throughput": "Throughput — batched wire path over real TCP loopback (not in paper)",
		"serve":      "Serve — 10k-caller saturation, sharded call registry vs single mutex (not in paper)",
		"chaos":      "Chaos — seeded fault schedules over live workloads (not in paper)",
	}
	for _, r := range reports {
		sb.WriteString("## " + titles[r.ID] + "\n\n```\n")
		sb.WriteString(r.Table.String())
		sb.WriteString("```\n\n")
		for _, n := range r.Notes {
			sb.WriteString("- " + n + "\n")
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
