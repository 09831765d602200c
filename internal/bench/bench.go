// Package bench regenerates every table and figure of the paper's
// evaluation (§4 and §5) on the simulated cluster substrate:
//
//	Figure 6  — ring transfer throughput, DPS vs raw transfers
//	Table 1   — matmul execution-time reduction from comm/comp overlap
//	Figure 9  — Game of Life speedup, improved vs simple flow graph
//	Table 2   — Game of Life service-call overhead
//	Figure 15 — LU factorization speedup, pipelined vs non-pipelined
//
// Each experiment returns a trace.Table whose rows mirror the paper's
// presentation, plus free-text notes recording the paper's reference
// values so EXPERIMENTS.md can compare shapes. Absolute numbers differ
// from the 2003 testbed by construction; the shape checks are what matter.
package bench

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/life"
	"repro/internal/matrix"
	"repro/internal/parlife"
	"repro/internal/parlin"
	"repro/internal/ringbench"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks problem sizes so the full suite completes in tens of
	// seconds (used by `go test -bench` and CI); the default sizes follow
	// the paper more closely.
	Quick bool
	// Seed derives the Chaos experiment's fault schedules (zero picks 1);
	// a failing soak reproduces exactly from its printed seed.
	Seed int64
	// Duration is how long each Chaos workload soaks under its schedule;
	// zero picks a default scaled by Quick.
	Duration time.Duration
}

// Report is one regenerated table or figure.
type Report struct {
	ID    string
	Table *trace.Table
	Notes []string
	// Stats aggregates the engine counters of every application the
	// experiment ran (cmd/dps-bench -stats dumps them).
	Stats *core.Stats
	// Hists carries the experiment's latency distributions in structured
	// form, keyed by the same row key the table prints (e.g. "echo/sharded",
	// "recovery/ring"). The table rows keep their formatted percentile cells
	// for humans; -json emits these so -compare reads exact values instead
	// of re-parsing printed columns.
	Hists map[string]*trace.Hist
}

func (r *Report) String() string {
	s := r.Table.String()
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

func nodeNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// gigabit is the modelled fabric for all experiments (the paper's Gigabit
// Ethernet switch).
func gigabit() simnet.Config { return simnet.GigabitEthernet() }

// scaledGigabit speeds the fabric up by factor f. The paper's 733 MHz
// Pentium III executed the unoptimized kernels roughly an order of
// magnitude slower per element than this Go build, so compute-heavy
// experiments scale the fabric equally to preserve the paper's
// communication/computation balance (see DESIGN.md, substitutions).
func scaledGigabit(f float64) simnet.Config {
	cfg := simnet.GigabitEthernet()
	cfg.Bandwidth *= f
	cfg.Latency = time.Duration(float64(cfg.Latency) / f)
	cfg.PerMessage = time.Duration(float64(cfg.PerMessage) / f)
	return cfg
}

// Figure6 regenerates the round-trip throughput comparison: 4-node ring,
// DPS data objects vs raw transfers, single-transfer sizes 1 KB - 1 MB.
func Figure6(opt Options) (*Report, error) {
	total := 32 << 20
	sizes := []int{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
	if opt.Quick {
		total = 4 << 20
		sizes = []int{1 << 10, 16 << 10, 256 << 10}
	}
	t := &trace.Table{
		Title:  "Figure 6: ring throughput (4 nodes), DPS vs raw transfers",
		Header: []string{"size[B]", "DPS[MB/s]", "raw[MB/s]", "DPS/raw"},
	}
	agg := &core.Stats{}
	for _, size := range sizes {
		dps, err := ringbench.RunDPSConfig(gigabit(), 4, total, size, core.Config{Window: 64})
		if err != nil {
			return nil, fmt.Errorf("figure6 dps size=%d: %w", size, err)
		}
		agg.Add(dps.Stats)
		raw, err := ringbench.RunRaw(gigabit(), 4, total, size)
		if err != nil {
			return nil, fmt.Errorf("figure6 raw size=%d: %w", size, err)
		}
		t.AddRow(
			fmt.Sprint(size),
			fmt.Sprintf("%.1f", dps.Throughput),
			fmt.Sprintf("%.1f", raw.Throughput),
			fmt.Sprintf("%.2f", dps.Throughput/raw.Throughput),
		)
	}
	return &Report{
		ID:    "figure6",
		Table: t,
		Stats: agg,
		Notes: []string{
			"paper: DPS control structures cost matters only for small data objects;",
			"paper: both curves rise with transfer size, DPS approaching the socket rate (~35 MB/s at 1 MB on their testbed).",
			"check: DPS/raw ratio must increase monotonically with size and approach 1.",
		},
	}, nil
}

// Rebalance measures the cost of live thread migration (the "Dynamic" in
// DPS, not an experiment of the paper): the Figure 6 ring runs undisturbed,
// then again with one forwarding hop remapped to another node mid-stream
// and back, exercising the placement layer's quiesce/ship/forward protocol
// under load. The delivered byte counts must be identical; the throughput
// delta and the forwarded-token count price the migration.
func Rebalance(opt Options) (*Report, error) {
	total := 32 << 20
	size := 64 << 10
	if opt.Quick {
		total = 8 << 20
	}
	t := &trace.Table{
		Title:  "Rebalance: 4-node ring, live remap of hop 2 mid-run (not in paper)",
		Header: []string{"scenario", "MB/s", "migrations", "forwarded", "migBytes"},
	}
	agg := &core.Stats{}
	cfg := core.Config{Window: 64}
	base, err := ringbench.RunDPSConfig(gigabit(), 4, total, size, cfg)
	if err != nil {
		return nil, fmt.Errorf("rebalance baseline: %w", err)
	}
	agg.Add(base.Stats)
	t.AddRow("steady", fmt.Sprintf("%.1f", base.Throughput), "0", "0", "0")

	// Trigger the remap roughly a third into the run, return two thirds in.
	after := base.Elapsed / 3
	spec := ringbench.RebalanceSpec{Hop: 2, To: 0, After: after, Back: true}
	moved, err := ringbench.RunDPSRebalance(gigabit(), 4, total, size, cfg, spec)
	if err != nil {
		return nil, fmt.Errorf("rebalance migrated run: %w", err)
	}
	agg.Add(moved.Stats)
	// Delivery completeness is enforced inside the harness: the run fails
	// outright when the merge's block count differs from the order.
	t.AddRow("remap x2",
		fmt.Sprintf("%.1f", moved.Throughput),
		fmt.Sprint(moved.Stats.MigrationsCompleted),
		fmt.Sprint(moved.Stats.TokensForwarded),
		fmt.Sprint(moved.Stats.MigrationBytes),
	)
	return &Report{
		ID:    "rebalance",
		Table: t,
		Stats: agg,
		Notes: []string{
			"check: the migrated run delivers every block (the harness fails on any lost or duplicated token).",
			"check: forwarded tokens stay bounded by the in-flight window per migration; throughput dips only during the handover.",
		},
	}, nil
}

// Failover prices the fault-tolerance subsystem (not an experiment of the
// paper; the authors' follow-up line of work made DPS applications fault
// tolerant): the Figure 6 ring runs three ways — fault tolerance off
// (baseline), on (checkpoint + token-retention overhead), and on with one
// forwarding node crashed mid-run (detection, checkpoint restore, token
// replay). The crashed run must still deliver every block exactly once;
// the throughput deltas price the overhead and the recovery column the
// crash-to-restored latency.
func Failover(opt Options) (*Report, error) {
	total := 16 << 20
	size := 64 << 10
	ckpt := 10 * time.Millisecond
	if opt.Quick {
		total = 4 << 20
	}
	t := &trace.Table{
		Title:  "Failover: 4-node ring, hop 2's node crashes mid-run (not in paper)",
		Header: []string{"scenario", "MB/s", "recovery", "ckpts", "ckptBytes", "replayed", "failovers"},
	}
	agg := &core.Stats{}
	base, err := ringbench.RunDPSConfig(gigabit(), 4, total, size, core.Config{Window: 64})
	if err != nil {
		return nil, fmt.Errorf("failover baseline: %w", err)
	}
	agg.Add(base.Stats)
	t.AddRow("ft off", fmt.Sprintf("%.1f", base.Throughput), "-", "0", "0", "0", "0")

	ftCfg := core.Config{Window: 64, Checkpoint: ckpt}
	ftOn, err := ringbench.RunDPSConfig(gigabit(), 4, total, size, ftCfg)
	if err != nil {
		return nil, fmt.Errorf("failover ft-on run: %w", err)
	}
	agg.Add(ftOn.Stats)
	t.AddRow("ft on", fmt.Sprintf("%.1f", ftOn.Throughput), "-",
		fmt.Sprint(ftOn.Stats.CheckpointsTaken), fmt.Sprint(ftOn.Stats.CheckpointBytes), "0", "0")

	spec := ringbench.FailoverSpec{Hop: 2, After: base.Elapsed / 3}
	crashed, err := ringbench.RunDPSFailover(gigabit(), 4, total, size, ftCfg, spec)
	if err != nil {
		return nil, fmt.Errorf("failover crashed run: %w", err)
	}
	agg.Add(crashed.Stats)
	// Exactly-once is enforced inside the harness: RunDPSFailover fails
	// outright when the merge's block count differs from the order.
	t.AddRow("ft on + crash", fmt.Sprintf("%.1f", crashed.Throughput),
		crashed.Recovery.Round(time.Millisecond).String(),
		fmt.Sprint(crashed.Stats.CheckpointsTaken), fmt.Sprint(crashed.Stats.CheckpointBytes),
		fmt.Sprint(crashed.Stats.TokensReplayed), fmt.Sprint(crashed.Stats.FailoversCompleted))
	return &Report{
		ID:    "failover",
		Table: t,
		Stats: agg,
		Notes: []string{
			"check: the crashed run delivers every block (the harness fails on any lost or duplicated token).",
			"check: fault tolerance off stays at the baseline throughput (the hot path is untouched when disabled).",
			"recovery = crash-to-restored latency (detection by failed sends, checkpoint restore, in-flight replay).",
			"ft-on throughput prices message logging for bulk payloads: every token is retained and shipped once more",
			"inside a checkpoint envelope until a commit truncates it — roughly 2x egress per hop on this fabric, the",
			"classic durability tax; small-token workloads (parlife) pay far less.",
		},
	}, nil
}

// table1Cell measures one (blockSize, workers) configuration: the full
// pipelined run, the communication-only run, and the computation-only run
// (zero-cost fabric), from which the paper's two reported quantities
// follow: reduction = 1 - t_full/(t_comm + t_comp) and ratio =
// t_comm/t_comp.
func table1Cell(n, s, workers int, opt Options, agg *core.Stats) (reduction, ratio float64, err error) {
	a := matrix.Random(n, n, 1)
	b := matrix.Random(n, n, 2)
	appCfg := core.Config{Window: 256}
	run := func(cfg *simnet.Config, compute bool) (time.Duration, error) {
		var app *core.App
		var net *simnet.Network
		names := nodeNames("mm", workers+1) // +1: master node
		if cfg != nil {
			net = simnet.New(*cfg)
			defer net.Close()
			app, err = core.NewSimApp(appCfg, net, names...)
		} else {
			app, err = core.NewLocalApp(appCfg, names...)
		}
		if err != nil {
			return 0, err
		}
		defer app.Close()
		defer func() { agg.Add(app.Stats()) }()
		mm, err := parlin.NewMatmul(app, parlin.MatmulOptions{Name: "mm", Workers: workers})
		if err != nil {
			return 0, err
		}
		// Workers live on nodes 1..workers, master alone on node 0 (as in
		// the paper, where the master distributes blocks over the network).
		if err := mm.WorkersCollection().MapNodes(names[1:]...); err != nil {
			return 0, err
		}
		sw := trace.StartStopwatch()
		if _, err := mm.Run(a, b, s, compute); err != nil {
			return 0, err
		}
		return sw.Elapsed(), nil
	}
	cfg := gigabit()
	tFull, err := run(&cfg, true)
	if err != nil {
		return 0, 0, err
	}
	tComm, err := run(&cfg, false)
	if err != nil {
		return 0, 0, err
	}
	tComp, err := run(nil, true)
	if err != nil {
		return 0, 0, err
	}
	reduction = 1 - tFull.Seconds()/(tComm.Seconds()+tComp.Seconds())
	ratio = tComm.Seconds() / tComp.Seconds()
	return reduction, ratio, nil
}

// Table1 regenerates the overlap experiment: block matrix multiplication
// with splitting factors giving the paper's block sizes, on 1-4 compute
// nodes.
func Table1(opt Options) (*Report, error) {
	n := 512
	factors := []int{4, 8, 16, 32}
	maxWorkers := 4
	if opt.Quick {
		n = 256
		factors = []int{4, 8, 16}
		maxWorkers = 2
	}
	t := &trace.Table{
		Title:  fmt.Sprintf("Table 1: matmul overlap, n=%d (reduction in execution time / comm-comp ratio)", n),
		Header: []string{"nodes", "block", "s", "reduction[%]", "ratio"},
	}
	agg := &core.Stats{}
	for workers := 1; workers <= maxWorkers; workers++ {
		for _, s := range factors {
			red, ratio, err := table1Cell(n, s, workers, opt, agg)
			if err != nil {
				return nil, fmt.Errorf("table1 workers=%d s=%d: %w", workers, s, err)
			}
			t.AddRow(
				fmt.Sprint(workers),
				fmt.Sprint(n/s),
				fmt.Sprint(s),
				fmt.Sprintf("%.1f", red*100),
				fmt.Sprintf("%.2f", ratio),
			)
		}
	}
	return &Report{
		ID:    "table1",
		Table: t,
		Stats: agg,
		Notes: []string{
			"paper (n=1024): reductions 6.7%..35.6%; ratios 0.22..5.54; best gains at ratios 0.9-2.5;",
			"paper: ratio grows with splitting factor s and with node count (computation parallelizes, the master's communication does not).",
			"check: ratio increases along both axes; reduction peaks at mid ratios and falls once communication dominates.",
		},
	}, nil
}

// paperCellCost is the modelled per-cell computation time of the paper's
// testbed (733 MHz Pentium III: a 400x400 iteration took roughly 20 ms,
// ~125ns per cell). Charging it as virtual time (a sleep inside the compute
// operations, see parlife.Options.CellCost) makes the speedup experiment
// independent of how many host cores back the simulation: real compute
// cannot parallelize beyond the host's cores (a 1-core CI box shows zero
// speedup however many virtual nodes run), whereas modelled compute
// overlaps across worker threads exactly like the modelled transfers in
// internal/simnet.
const paperCellCost = 125 * time.Nanosecond

// lifeSpeedupOnce times iters life iterations for one (worldW, worldH,
// nodes, improved) configuration on the simulated fabric.
func lifeSpeedupOnce(worldW, worldH, workers, iters int, improved bool, opt Options, agg *core.Stats) (time.Duration, error) {
	net := simnet.New(gigabit())
	defer net.Close()
	names := nodeNames("life", workers)
	app, err := core.NewSimApp(core.Config{}, net, names...)
	if err != nil {
		return 0, err
	}
	defer app.Close()
	defer func() { agg.Add(app.Stats()) }()
	sim, err := parlife.New(app, worldW, worldH, parlife.Options{
		Name:     "life",
		Workers:  workers,
		CellCost: paperCellCost,
	})
	if err != nil {
		return 0, err
	}
	if err := sim.Load(life.RandomWorld(worldW, worldH, 0.3, 7)); err != nil {
		return 0, err
	}
	// Warm-up iteration instantiates threads and connections.
	if err := sim.Step(improved); err != nil {
		return 0, err
	}
	sw := trace.StartStopwatch()
	if err := sim.StepN(iters, improved); err != nil {
		return 0, err
	}
	return sw.Elapsed(), nil
}

// Figure9 regenerates the Game of Life speedup curves for the simple and
// improved graphs over three world sizes.
func Figure9(opt Options) (*Report, error) {
	// The paper's own world sizes: computation is charged at the testbed's
	// modelled per-cell cost (paperCellCost), so the comm/comp regime — and
	// with it the speedup shape — matches the paper on any host.
	worlds := [][2]int{{400, 400}, {4000, 400}, {4000, 4000}}
	nodesList := []int{1, 2, 4, 8}
	iters := 6
	if opt.Quick {
		worlds = [][2]int{{400, 400}, {1200, 1200}}
		nodesList = []int{1, 2, 4}
		iters = 4
	}
	t := &trace.Table{
		Title:  "Figure 9: Game of Life speedup (vs 1 node, same variant)",
		Header: []string{"world", "variant", "nodes", "time/iter[ms]", "speedup"},
	}
	agg := &core.Stats{}
	// Each point is the best of two runs. A repetition sweeps every world
	// and node count with the variants alternating run by run, so a burst
	// of other load on the host slows neighbouring points alike, and a
	// point's two runs are never back to back.
	type point struct {
		world, workers int
		improved       bool
	}
	elapsed := map[point]time.Duration{}
	for rep := 0; rep < 2; rep++ {
		for wi, w := range worlds {
			for _, workers := range nodesList {
				for _, improved := range []bool{false, true} {
					el, err := lifeSpeedupOnce(w[0], w[1], workers, iters, improved, opt, agg)
					if err != nil {
						return nil, fmt.Errorf("figure9 %dx%d workers=%d: %w", w[0], w[1], workers, err)
					}
					p := point{wi, workers, improved}
					if best, ok := elapsed[p]; !ok || el < best {
						elapsed[p] = el
					}
				}
			}
		}
	}
	for wi, w := range worlds {
		for _, improved := range []bool{false, true} {
			base := elapsed[point{wi, nodesList[0], improved}]
			for _, workers := range nodesList {
				el := elapsed[point{wi, workers, improved}]
				variant := "simple"
				if improved {
					variant = "improved"
				}
				t.AddRow(
					fmt.Sprintf("%dx%d", w[0], w[1]),
					variant,
					fmt.Sprint(workers),
					fmt.Sprintf("%.2f", el.Seconds()*1000/float64(iters)),
					fmt.Sprintf("%.2f", base.Seconds()/el.Seconds()),
				)
			}
		}
	}
	return &Report{
		ID:    "figure9",
		Table: t,
		Stats: agg,
		Notes: []string{
			"paper: improved graph above simple graph at every point; the gap is largest for the smallest world (400x400)",
			"where communication dominates; larger worlds reduce the impact of border exchange.",
			"check: improved time/iter <= simple time/iter per configuration; relative gap shrinks as the world grows.",
		},
	}, nil
}

// Table2 regenerates the graph-call overhead measurement: the life
// simulation iterates on 4 nodes while a client repeatedly requests
// randomly located blocks through the world-read service.
func Table2(opt Options) (*Report, error) {
	world := 5620
	workers := 4
	iters := 12
	blocks := [][2]int{{0, 0}, {40, 40}, {400, 400}, {2400, 400}} // {h, w}; {0,0} = no calls
	calls := 40
	if opt.Quick {
		world = 1404
		iters = 6
		calls = 12
		blocks = [][2]int{{0, 0}, {40, 40}, {400, 400}}
	}

	t := &trace.Table{
		Title:  fmt.Sprintf("Table 2: life %dx%d on %d nodes, world-read service calls during the simulation", world, world, workers),
		Header: []string{"block", "call[ms](median)", "iter[ms]", "calls/s"},
	}
	agg := &core.Stats{}
	for _, blk := range blocks {
		net := simnet.New(gigabit())
		names := nodeNames("t2", workers)
		app, err := core.NewSimApp(core.Config{}, net, names...)
		if err != nil {
			net.Close()
			return nil, err
		}
		sim, err := parlife.New(app, world, world, parlife.Options{Name: "life", Workers: workers})
		if err == nil {
			err = sim.Load(life.RandomWorld(world, world, 0.3, 11))
		}
		if err == nil {
			err = sim.Step(true) // warm-up
		}
		if err != nil {
			app.Close()
			net.Close()
			return nil, err
		}

		var samples trace.Hist
		stop := make(chan struct{})
		callsDone := make(chan int)
		if blk[0] > 0 {
			go func() {
				n := 0
				rngRow, rngCol := 1, 7
				for {
					select {
					case <-stop:
						callsDone <- n
						return
					default:
					}
					rngRow = (rngRow*1103515245 + 12345) & 0x7fffffff
					rngCol = (rngCol*1103515245 + 12345) & 0x7fffffff
					sw := trace.StartStopwatch()
					if _, err := sim.ReadBlock(rngRow%world, rngCol%world, blk[0], blk[1]); err != nil {
						callsDone <- n
						return
					}
					samples.Add(sw.Elapsed())
					n++
					if n >= calls*iters {
						<-stop
						callsDone <- n
						return
					}
				}
			}()
		}
		sw := trace.StartStopwatch()
		err = sim.StepN(iters, true)
		iterElapsed := sw.Elapsed()
		nCalls := 0
		if blk[0] > 0 {
			close(stop)
			nCalls = <-callsDone
		}
		agg.Add(app.Stats())
		app.Close()
		net.Close()
		if err != nil {
			return nil, err
		}

		iterMs := iterElapsed.Seconds() * 1000 / float64(iters)
		if blk[0] == 0 {
			t.AddRow("none", "-", fmt.Sprintf("%.0f", iterMs), "-")
			continue
		}
		t.AddRow(
			fmt.Sprintf("%dx%d", blk[1], blk[0]),
			fmt.Sprintf("%.2f", samples.Median().Seconds()*1000),
			fmt.Sprintf("%.0f", iterMs),
			fmt.Sprintf("%.1f", float64(nCalls)/iterElapsed.Seconds()),
		)
	}
	return &Report{
		ID:    "table2",
		Table: t,
		Stats: agg,
		Notes: []string{
			"paper (5620x5620, 4 nodes): iteration 1000 ms without calls; with calls 40x40/400x400/400x2400:",
			"call 1.66/22.14/130.43 ms, iteration 1041/1284/1381 ms, 66.8/31.8/6.9 calls/s.",
			"check: call time grows with block size; iteration time inflates moderately; calls/s falls.",
		},
	}, nil
}

func luRunOnce(n, r, workers int, pipelined bool, opt Options, agg *core.Stats) (time.Duration, error) {
	// Fabric scaled 10x: the paper's CPUs computed the unoptimized LU
	// kernels roughly 10x slower relative to their Gigabit fabric than this
	// build does, and the comm/comp ratio (4*flops/(r*BW)) is what shapes
	// the speedup curves.
	net := simnet.New(scaledGigabit(10))
	defer net.Close()
	names := nodeNames("lu", workers)
	app, err := core.NewSimApp(core.Config{Window: 256}, net, names...)
	if err != nil {
		return 0, err
	}
	defer app.Close()
	defer func() { agg.Add(app.Stats()) }()
	lu, err := parlin.NewLU(app, n, r, parlin.LUOptions{Name: "lu", Workers: workers, Pipelined: pipelined})
	if err != nil {
		return 0, err
	}
	a := matrix.Random(n, n, 3)
	sw := trace.StartStopwatch()
	if err := lu.FactorOnly(a); err != nil {
		return 0, err
	}
	return sw.Elapsed(), nil
}

// Figure15 regenerates the LU factorization speedup comparison between the
// pipelined (stream) and non-pipelined (merge-split) graphs.
func Figure15(opt Options) (*Report, error) {
	n, r := 2048, 64
	nodesList := []int{1, 2, 4, 8}
	reps := 2
	if opt.Quick {
		n, r = 512, 32
		nodesList = []int{1, 2, 4}
		// Quick runs last tens of milliseconds, short enough for one burst
		// of other load on the host to cover a point's every run.
		reps = 4
	}
	t := &trace.Table{
		Title:  fmt.Sprintf("Figure 15: LU factorization speedup, n=%d r=%d (vs 1 node, same variant)", n, r),
		Header: []string{"variant", "nodes", "time[ms]", "speedup"},
	}
	agg := &core.Stats{}
	// Each point is the best of reps runs. A repetition sweeps every node
	// count with the variants alternating run by run, so a burst of other
	// load on the host slows neighbouring points alike, and a point's runs
	// are spread over the whole experiment rather than back to back.
	elapsed := map[bool][]time.Duration{
		true:  make([]time.Duration, len(nodesList)),
		false: make([]time.Duration, len(nodesList)),
	}
	for rep := 0; rep < reps; rep++ {
		for i, workers := range nodesList {
			for _, pip := range []bool{true, false} {
				el, err := luRunOnce(n, r, workers, pip, opt, agg)
				if err != nil {
					return nil, fmt.Errorf("figure15 workers=%d pipelined=%v: %w", workers, pip, err)
				}
				if best := &elapsed[pip][i]; *best == 0 || el < *best {
					*best = el
				}
			}
		}
	}
	for _, pipelined := range []bool{true, false} {
		variant := "non-pipelined"
		if pipelined {
			variant = "pipelined"
		}
		base := elapsed[pipelined][0]
		for i, el := range elapsed[pipelined] {
			t.AddRow(
				variant,
				fmt.Sprint(nodesList[i]),
				fmt.Sprintf("%.0f", el.Seconds()*1000),
				fmt.Sprintf("%.2f", base.Seconds()/el.Seconds()),
			)
		}
	}
	return &Report{
		ID:    "figure15",
		Table: t,
		Stats: agg,
		Notes: []string{
			"paper (4096x4096, no optimized BLAS): pipelined clearly above non-pipelined at every node count;",
			"pipelined reaches ~6-7x at 8 nodes, non-pipelined saturates earlier.",
			"check: pipelined time <= non-pipelined time per node count; gap widens with nodes.",
		},
	}, nil
}

// Chaos soaks two real workloads — the Figure 6 ring and the §5 Game of
// Life — under seeded randomized fault schedules (delivery jitter,
// transient send errors, healing partitions, node crashes) and reports
// what the resilience stack absorbed: engine send retries, injected
// errors consumed, failovers, and crash-to-recovered latency. The
// invariants are enforced inside the harness (internal/chaos): zero
// failed calls, exactly one failover per crash, none for transients, and
// a byte-identical life world versus an undisturbed replay. Not an
// experiment of the paper; it guards the fault-tolerance subsystem. Not
// part of All — run it explicitly (`dps-bench -exp chaos -seed N`).
func Chaos(opt Options) (*Report, error) {
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	span := opt.Duration
	if span == 0 {
		span = 3 * time.Second
		if opt.Quick {
			span = 1500 * time.Millisecond
		}
	}
	t := &trace.Table{
		Title:  fmt.Sprintf("Chaos: seeded fault schedules over live workloads, seed %d, %v per run (not in paper)", seed, span),
		Header: []string{"workload", "faults", "crashes", "calls", "retries", "injected", "failovers", "rec p50", "rec max"},
	}
	agg := &core.Stats{}
	hists := make(map[string]*trace.Hist)
	runs := []struct {
		crashes int
		run     func(chaos.Spec) (*chaos.Result, error)
	}{
		{0, chaos.RunRing},
		{2, chaos.RunRing},
		{1, chaos.RunParlife},
	}
	for i, r := range runs {
		// Distinct seeds per row, each derived from the base seed.
		res, err := r.run(chaos.Spec{Seed: seed + int64(i), Span: span, Crashes: r.crashes})
		if err != nil {
			return nil, fmt.Errorf("chaos (reproduce with -seed %d): %w", seed, err)
		}
		agg.Add(res.Stats)
		if res.Recovery.Len() > 0 {
			key := "recovery/" + res.Workload
			if h := hists[key]; h != nil {
				h.Merge(&res.Recovery)
			} else {
				rec := res.Recovery
				hists[key] = &rec
			}
		}
		p50, max := "-", "-"
		if res.Recovery.Len() > 0 {
			p50 = res.Recovery.Median().Round(time.Millisecond).String()
			max = res.Recovery.Max().Round(time.Millisecond).String()
		}
		t.AddRow(
			res.Workload,
			fmt.Sprint(len(res.Schedule.Faults)),
			fmt.Sprint(res.Schedule.Crashes()),
			fmt.Sprint(res.Calls),
			fmt.Sprint(res.Retries),
			fmt.Sprint(res.Injected),
			fmt.Sprint(res.Failovers),
			p50, max,
		)
	}
	return &Report{
		ID:    "chaos",
		Table: t,
		Stats: agg,
		Hists: hists,
		Notes: []string{
			"check (enforced in-harness): every call completes, transient faults cause zero failovers, every crash exactly one.",
			"check (enforced in-harness): the life world after crash-recovery is byte-identical to an undisturbed replay.",
			"recovery is bounded below by the suspect grace (250ms): detection is passive, a failing send must exhaust its retries.",
			"schedules are deterministic from the seed; rerun with the same -seed to reproduce a failure.",
		},
	}, nil
}

// All runs every experiment in paper order.
func All(opt Options) ([]*Report, error) {
	var out []*Report
	for _, f := range []func(Options) (*Report, error){Figure6, Table1, Figure9, Table2, Figure15} {
		r, err := f(opt)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}
