// Command perfbench is the repository's benchmark: the paper's Figure 6
// ring and an open-loop serve workload, deployed through the public dps API
// onto three in-process tcptransport nodes over loopback TCP. See README.md
// for the workloads, the metrics and the layer map.
//
//	perfbench --workload ring-1k --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an undecorated run;
// with --trace 1 the per-layer metrics of a traced run. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/serial"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: ring-1k, ring-256k or serve-fan")
	seed := fs.Int64("seed", 1, "seed of payload bytes and arrival times")
	seconds := fs.Int("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	spans := fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload ring-1k|ring-256k|serve-fan, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	dur := time.Duration(*seconds) * time.Second
	fmt.Fprintf(stdout, "host %s\n", hostStamp(*seed))
	fmt.Fprintf(stdout, "workload %s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)

	var rep *report
	var err error
	if *trace == 1 {
		rep, err = tracedRun(w, *seed, dur, filepath.Join(*spans, fmt.Sprintf("%s-seed%d.csv.gz", w.name, *seed)))
	} else {
		rep, err = untracedRun(w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.print(stdout)
	return 0
}

// hostStamp describes the machine a result was measured on.
func hostStamp(seed int64) string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), seed)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// metricSet keeps metrics in the order they were added.
type metricSet struct {
	list []metric
}

func (m *metricSet) add(name string, v float64, unit string) {
	m.list = append(m.list, metric{name: name, value: v, unit: unit})
}

func (m *metricSet) addNote(name string, v float64, unit, note string) {
	m.list = append(m.list, metric{name: name, value: v, unit: unit, note: note})
}

// addSummary adds a distribution as <name>.p50 and <name>.p99; the note
// names the percentile the tail really is when samples are too few for
// p99 (see tailPercentile).
func (m *metricSet) addSummary(name string, s summary, unit string) {
	m.addNote(name+".p50", s.P50, unit, fmt.Sprintf("n=%d", s.N))
	m.addNote(name+".p99", s.Tail, unit, tailNote(s))
}

func tailNote(s summary) string {
	return fmt.Sprintf("p%g of n=%d", s.TailPct, s.N)
}

type report struct {
	metrics metricSet
	tally
	correct bool
	notes   []string
}

// checkFailed records a failed output check: the run is not correct.
func (r *report) checkFailed(what string, err error) {
	r.correct = false
	r.notes = append(r.notes, fmt.Sprintf("check failed: %s: %v", what, err))
}

func (r *report) print(w io.Writer) {
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: r.correct, Attempted: r.attempted, Failed: r.failed(), Metrics: map[string]map[string]any{}}
	for _, m := range r.metrics.list {
		line := fmt.Sprintf("metric %s %.6g %s", m.name, m.value, m.unit)
		if m.note != "" {
			line += " (" + m.note + ")"
		}
		fmt.Fprintln(w, line)
		out.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "ops attempted=%d failed=%d wrong=%d rejected=%d expired=%d errors=%d\n",
		r.attempted, r.failed(), r.wrong, r.rejected, r.expired, r.errs)
	b, _ := json.Marshal(out)
	fmt.Fprintln(w, string(b))
}

// setupReps is how many times a run deploys; setup_s is the median.
const setupReps = 21

// workloadPayload is the seeded block pool of a ring workload; serve-fan
// carries no block payload.
func workloadPayload(w workloadSpec, seed int64) *payload {
	if w.blockSize == 0 {
		return nil
	}
	return newPayload(seed, w.blockSize, w.pool)
}

// untracedRun measures the end-to-end metrics with every decorator off.
func untracedRun(w workloadSpec, seed int64, dur time.Duration) (*report, error) {
	p := workloadPayload(w, seed)
	var setups []float64
	var d *deployment
	var r runner
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.close()
		}
		// Each set-up starts from a collected heap, as in a fresh process,
		// so no collection of the last deployment's garbage lands in it.
		runtime.GC()
		t := time.Now()
		var err error
		if d, r, err = setup(w, p, seed, nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer d.close()
	res := r.measure(dur)
	rep := &report{tally: res.tally, correct: res.wrong == 0}
	if err := d.quiescent(); err != nil {
		rep.checkFailed("after the workload", err)
	}
	m := &rep.metrics
	m.addNote("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", setupReps))
	m.add("tokens_per_s", res.tokensPerS, "1/s")
	m.addNote("call_p50_ms", res.latency.P50, "ms", fmt.Sprintf("n=%d", res.latency.N))
	m.addNote("call_p90_ms", res.latency.P90, "ms", fmt.Sprintf("n=%d", res.latency.N))
	m.add("capacity_calls_per_s", res.callsPerS, "1/s")
	m.addNote("cpu_us_per_op", res.cpuUsPerOp, "us", fmt.Sprintf("over %d ops", res.ops))
	m.add("rss_peak_mb", maxRSSMB(), "MB")
	// The p99 is printed but not gated: on a shared machine it tracks the
	// hypervisor's steal (see README.md).
	rep.notes = append(rep.notes,
		fmt.Sprintf("metric call_p99_ms %.6g ms (%s; not gated)", res.latency.Tail, tailNote(res.latency)),
		fmt.Sprintf("host steal_pct=%.2f", 100*res.steal),
		fmt.Sprintf("loadgen late_ms.max=%.3f", float64(res.lateMax)/1e6),
		fmt.Sprintf("tcptransport retries=%d", d.retries()))
	return rep, nil
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// tracedRun measures the per-layer metrics: an undecorated segment as the
// baseline, the same workload with every decorator on, the layer
// microbenchmarks and the raw-socket ring.
func tracedRun(w workloadSpec, seed int64, dur time.Duration, spanPath string) (*report, error) {
	p := workloadPayload(w, seed)
	seg := dur / 2
	rep := &report{correct: true}

	d, r, err := setup(w, p, seed, nil)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	base := r.measure(seg)
	runtime.ReadMemStats(&ms1)
	if err := d.quiescent(); err != nil {
		rep.checkFailed("after the untraced segment", err)
	}
	retries := d.retries()
	d.close()

	tr := newTracer()
	d, r, err = setup(w, p, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	st := r.measure(seg)
	if err := d.quiescent(); err != nil {
		rep.checkFailed("after the traced segment", err)
	}
	stats := d.app.Stats()
	qw := d.app.QueueWait()
	retries += d.retries()
	calls, tokens, payloadBytes := r.lifetime()
	d.close()
	if err := tr.dump(spanPath, fmt.Sprintf("workload=%s %s", w.name, hostStamp(seed))); err != nil {
		return nil, fmt.Errorf("span dump: %w", err)
	}
	rep.tally.add(base.tally)
	rep.tally.add(st.tally)
	if rep.wrong > 0 {
		rep.correct = false
	}

	m := &rep.metrics
	m.addSummary("dps.call_start_us", summarizeHist(&tr.hists[kindCallStart], 1e-3), "us")
	m.add("dps.pending_calls.max", float64(st.pendingMax), "count")
	m.add("dps.rejected", float64(rep.rejected), "count")

	m.addSummary("core.recv_handler_us", summarizeHist(&tr.hists[kindRecv], 1e-3), "us")
	m.addSummary("core.hop_us", summarizeHist(&tr.hists[kindHop], 1e-3), "us")
	frames, bytes := tr.frames.Load(), tr.bytes.Load()
	m.add("core.frames_per_remote_token", ratio(frames, stats.TokensRemote), "ratio")
	m.add("core.egress_bytes_per_payload_byte", ratio(bytes, payloadBytes), "ratio")
	m.add("core.groups_per_call", ratio(stats.GroupsOpened, calls), "ratio")
	m.add("core.acks_per_token", ratio(stats.AcksSent, tokens), "ratio")

	qs := summary{N: qw.Len(), P50: float64(qw.Percentile(50)) / 1e3, TailPct: 100}
	if pct, ok := tailPercentile(qs.N); ok {
		qs.TailPct = pct
	}
	qs.Tail = float64(qw.Percentile(qs.TailPct)) / 1e3
	m.addSummary("sched.queue_wait_us", qs, "us")
	m.add("sched.queue_high_water", float64(stats.QueueHighWater), "count")
	m.add("sched.drainer_handoffs", float64(stats.DrainerHandoffs), "count")

	m.add("flowctl.stalls_per_ktoken", 1000*ratio(stats.WindowStalls, tokens), "count")
	m.add("flowctl.stall_s", float64(tr.hists[kindGate].sum.Load())/1e9, "s")

	m.addSummary("tcptransport.send_us", summarizeHist(&tr.hists[kindSend], 1e-3), "us")
	m.add("tcptransport.frames", float64(frames), "count")
	m.add("tcptransport.bytes_per_frame", ratio(bytes, frames), "B")
	m.add("tcptransport.retries", float64(retries), "count")

	ops := float64(max(base.attempted, 1))
	m.add("runtime.alloc_bytes_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/ops, "B")
	m.add("runtime.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/ops, "count")
	m.add("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count")
	m.add("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms")

	m.add("loadgen.late_ms.max", float64(base.lateMax)/1e6, "ms")
	m.addNote("trace.overhead_pct", 100*(1-st.tokensPerS/base.tokensPerS), "%",
		fmt.Sprintf("tokens/s untraced %.0f, traced %.0f", base.tokensPerS, st.tokensPerS))

	if err := layerMicros(seed, m); err != nil {
		return nil, err
	}

	if p == nil {
		// serve-fan: the substrate moves blocks the size of an encoded
		// fan part.
		n, err := serial.DefaultRegistry.EncodedSize(&FanPart{Seq: 1 << 20, Key: 1 << 63})
		if err != nil {
			return nil, err
		}
		p = newPayload(seed, n, 64)
	}
	raw, err := rawRing(p, seg/2)
	if err != nil {
		return nil, err
	}
	m.addNote("substrate.raw_tokens_per_s", raw, "1/s", fmt.Sprintf("%d-byte blocks", len(p.blocks[0])))
	m.add("substrate.engine_overhead_us_per_token", 1e6/base.tokensPerS-1e6/raw, "us")

	rep.notes = append(rep.notes, fmt.Sprintf("trace spans=%d dropped=%d file=%s", len(tr.spans), tr.dropped, spanPath))
	return rep, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
