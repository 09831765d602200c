package bench

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/core/flowctl"
	"repro/internal/serial"
	"repro/internal/trace"
	"repro/internal/transport/tcptransport"
)

// ServeReq is one ingress request token; Fan asks the fan workload's split
// for that many parts.
type ServeReq struct {
	Seq int
	Fan int
}

// ServePart is one fanned-out unit of work of the fan workload.
type ServePart struct {
	Seq int
	I   int
}

// ServeRes is the single response token of a serve call.
type ServeRes struct {
	Seq int
	N   int
}

var (
	_ = serial.MustRegister[ServeReq]()
	_ = serial.MustRegister[ServePart]()
	_ = serial.MustRegister[ServeRes]()
)

// Serve saturation parameters. The call deadline is what bounds a caller's
// worst case — an admitted call either completes or is canceled at the
// deadline (counted, never hung) — and the in-flight budget is what sheds
// the rest with ErrOverload at admission.
const (
	serveNodes       = 3
	serveDeadline    = 2 * time.Second
	serveBudget      = 2048
	serveFan         = 4
	serveBackoffMin  = 250 * time.Microsecond
	serveBackoffMax  = 8 * time.Millisecond
	serveEchoThreads = 8
)

// serveResult is one measured saturation configuration.
type serveResult struct {
	callsPerSec float64
	latency     trace.Hist
	ok          int64
	rejected    int64
	expired     int64
	stats       *core.Stats
}

// serveDeployment is a running graph over real loopback TCP nodes.
type serveDeployment struct {
	app     *core.App
	graph   *core.Flowgraph
	origins []string
	close   func()
}

// newServeDeployment builds one of the two serve workloads on a fresh
// 3-node TCP deployment:
//
//   - echo: a leaf collection striped over sv1/sv2, called from every node —
//     the minimal RPC through the engine, with the majority of calls
//     crossing loopback TCP out and back;
//   - fan: split on sv0 → leaves striped over sv1/sv2 → merge on sv0, the
//     gateway shape, exercising the flow-control gate and the split/merge
//     machinery of every call under saturation.
func newServeDeployment(appCfg core.Config, workload string) (*serveDeployment, error) {
	table := make(map[string]string)
	resolver := tcptransport.StaticResolver(table)
	app := core.NewApp(appCfg)
	names := nodeNames("sv", serveNodes)
	for _, name := range names {
		n, err := tcptransport.Listen(name, "127.0.0.1:0", resolver)
		if err != nil {
			app.Close()
			return nil, err
		}
		table[name] = n.Addr()
		if _, err := app.AttachTransport(n); err != nil {
			_ = n.Close()
			app.Close()
			return nil, err
		}
	}
	d := &serveDeployment{app: app, close: app.Close}
	var err error
	switch workload {
	case "echo":
		tc, cerr := core.NewCollection[struct{}](app, "sv-echo")
		if cerr != nil {
			app.Close()
			return nil, cerr
		}
		// Threads striped over sv1/sv2 while callers originate on all three
		// nodes, so most calls cross loopback TCP out and back and the rest
		// exercise the local delivery path under the same admission gate.
		stripe := make([]string, serveEchoThreads)
		for i := range stripe {
			stripe[i] = names[1+i%2]
		}
		if cerr := tc.MapNodes(stripe...); cerr != nil {
			app.Close()
			return nil, cerr
		}
		echo := core.Leaf[*ServeReq, *ServeRes]("sv-echo-op",
			func(c *core.Ctx, in *ServeReq) *ServeRes { return &ServeRes{Seq: in.Seq, N: 1} })
		d.graph, err = app.NewFlowgraph("sv-echo", core.Path(core.NewNode(echo, tc, core.RoundRobin())))
		d.origins = names
	case "fan":
		front, cerr := core.NewCollection[struct{}](app, "sv-front")
		if cerr != nil {
			app.Close()
			return nil, cerr
		}
		if cerr := front.MapNodes(names[0]); cerr != nil {
			app.Close()
			return nil, cerr
		}
		workers, cerr := core.NewCollection[struct{}](app, "sv-workers")
		if cerr != nil {
			app.Close()
			return nil, cerr
		}
		if cerr := workers.MapNodes(names[1], names[2], names[1], names[2]); cerr != nil {
			app.Close()
			return nil, cerr
		}
		split := core.Split[*ServeReq, *ServePart]("sv-split",
			func(c *core.Ctx, in *ServeReq, post func(*ServePart)) {
				for i := 0; i < in.Fan; i++ {
					post(&ServePart{Seq: in.Seq, I: i})
				}
			})
		work := core.Leaf[*ServePart, *ServePart]("sv-work",
			func(c *core.Ctx, in *ServePart) *ServePart { return in })
		merge := core.Merge[*ServePart, *ServeRes]("sv-merge",
			func(c *core.Ctx, first *ServePart, next func() (*ServePart, bool)) *ServeRes {
				n := 0
				seq := first.Seq
				for _, ok := first, true; ok; _, ok = next() {
					n++
				}
				return &ServeRes{Seq: seq, N: n}
			})
		d.graph, err = app.NewFlowgraph("sv-fan", core.Path(
			core.NewNode(split, front, core.MainRoute()),
			core.NewNode(work, workers, core.LoadBalanced()),
			core.NewNode(merge, front, core.MainRoute()),
		))
		d.origins = names
	default:
		app.Close()
		return nil, fmt.Errorf("serve: unknown workload %q", workload)
	}
	if err != nil {
		app.Close()
		return nil, err
	}
	return d, nil
}

// runServe drives callers closed-loop goroutines against one deployment for
// span. Every caller loops: call with a deadline context, record the
// latency; on ErrOverload back off briefly and retry; on an expired
// deadline count and move on. Any other error aborts the experiment — under
// saturation every call must end in exactly one of completed, rejected or
// expired (nothing hung, nothing silently dropped).
func runServe(appCfg core.Config, workload string, callers int, span time.Duration) (*serveResult, error) {
	d, err := newServeDeployment(appCfg, workload)
	if err != nil {
		return nil, err
	}
	defer d.close()

	// Warm the TCP lanes and the engine's lazy paths outside the window.
	for _, origin := range d.origins {
		if _, err := d.graph.CallFrom(context.Background(), origin, &ServeReq{Fan: serveFan}); err != nil {
			return nil, fmt.Errorf("serve warmup: %w", err)
		}
	}

	var (
		ok       atomic.Int64
		rejected atomic.Int64
		expired  atomic.Int64
		failed   atomic.Int64
		firstErr atomic.Value
	)
	hists := make([]trace.Hist, callers)
	stopAt := time.Now().Add(span)
	var wg sync.WaitGroup
	sw := trace.StartStopwatch()
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			origin := d.origins[i%len(d.origins)]
			h := &hists[i]
			backoff := serveBackoffMin
			for time.Now().Before(stopAt) {
				ctx, cancel := context.WithTimeout(context.Background(), serveDeadline)
				start := time.Now()
				_, err := d.graph.CallFrom(ctx, origin, &ServeReq{Seq: i, Fan: serveFan})
				cancel()
				switch {
				case err == nil:
					h.Add(time.Since(start))
					ok.Add(1)
					backoff = serveBackoffMin
				case errors.Is(err, core.ErrOverload):
					// Shed: back off exponentially (capped) and retry.
					rejected.Add(1)
					time.Sleep(backoff)
					if backoff *= 2; backoff > serveBackoffMax {
						backoff = serveBackoffMax
					}
				case errors.Is(err, context.DeadlineExceeded):
					expired.Add(1)
					backoff = serveBackoffMin
				default:
					failed.Add(1)
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(i)
	}
	// A watchdog bounds the drain: closed-loop callers finish at most one
	// call deadline past the span; anything later is a hung call.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(span + serveDeadline + 30*time.Second):
		return nil, fmt.Errorf("serve %s: callers hung past span+deadline (calls lost)", workload)
	}
	elapsed := sw.Elapsed()
	if n := failed.Load(); n > 0 {
		err, _ := firstErr.Load().(error)
		return nil, fmt.Errorf("serve %s: %d calls failed outside the overload contract: %w", workload, n, err)
	}
	if pending := d.app.PendingCalls(); pending != 0 {
		return nil, fmt.Errorf("serve %s: %d calls still pending after drain", workload, pending)
	}
	res := &serveResult{
		callsPerSec: float64(ok.Load()) / elapsed.Seconds(),
		ok:          ok.Load(),
		rejected:    rejected.Load(),
		expired:     expired.Load(),
		stats:       d.app.Stats(),
	}
	for i := range hists {
		res.latency.Merge(&hists[i])
	}
	return res, nil
}

// Serve is the saturation experiment: thousands of concurrent closed-loop
// callers against a 3-node deployment over real loopback TCP, under
// admission control (MaxInFlightCalls + ErrOverload) and the deadline-aware
// flow policy. Reported per workload: sustained calls/s and the
// p50/p99/p999 latency of completed calls, plus how many calls were shed at
// admission and how many expired at their deadline. The mode column names
// the pending-call registry (always the sharded one), so row keys stay
// comparable with earlier -json artifacts.
func Serve(opt Options) (*Report, error) {
	callers := 10_000
	span := 4 * time.Second
	if opt.Quick {
		callers = 2500
		span = 1500 * time.Millisecond
	}
	if opt.Duration > 0 {
		span = opt.Duration
	}

	const mode = "sharded"
	t := &trace.Table{
		Title: fmt.Sprintf("Serve: %d closed-loop callers, 3 nodes over real TCP loopback (budget %d, deadline %v)",
			callers, serveBudget, serveDeadline),
		Header: []string{"workload", "mode", "calls/s", "p50[ms]", "p99[ms]", "p999[ms]", "rejected", "expired"},
	}
	agg := &core.Stats{}
	hists := make(map[string]*trace.Hist)
	for _, workload := range []string{"echo", "fan"} {
		cfg := core.Config{
			Batch:            true,
			MaxInFlightCalls: serveBudget,
			FlowPolicy:       flowctl.Deadline{N: flowctl.DefaultWindow},
		}
		res, err := runServe(cfg, workload, callers, span)
		if err != nil {
			return nil, fmt.Errorf("serve %s: %w", workload, err)
		}
		agg.Add(res.stats)
		// Export the completed-call latency distribution under the table
		// row's key, so -compare gates on exact percentiles.
		hists[workload+"/"+mode] = &res.latency
		ms := func(p float64) string {
			return fmt.Sprintf("%.2f", float64(res.latency.Percentile(p))/float64(time.Millisecond))
		}
		t.AddRow(
			workload, mode,
			fmt.Sprintf("%.0f", res.callsPerSec),
			ms(50), ms(99), ms(99.9),
			fmt.Sprint(res.rejected),
			fmt.Sprint(res.expired),
		)
	}
	return &Report{
		ID:    "serve",
		Table: t,
		Stats: agg,
		Hists: hists,
		Notes: []string{
			fmt.Sprintf("every caller loops with a %v deadline: a call either completes, is shed at admission (ErrOverload,", serveDeadline),
			"counted as rejected) or expires at its deadline (counted) - the harness fails on any other outcome or any",
			"call pending after the drain, so nothing hangs and nothing is silently dropped.",
			"the deadline gate spends window slots on near-deadline calls first and admission sheds the excess instead",
			"of queueing it, so completed-call latency pins to the deadline instead of growing with the backlog",
			"(measured wall time can overshoot the deadline by caller scheduling delay on an oversubscribed host).",
		},
	}, nil
}
