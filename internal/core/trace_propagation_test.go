package core_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// These tests pin the tracing tentpole's end-to-end promise: a sampled
// call's spans, collected from every node, reconstruct one connected
// timeline — including across the two hard paths, a mid-call live Remap
// (PR 4) and a node crash with replay from retained logs (PR 5). The last
// test pins the other half of the contract: with sampling effectively off,
// the trace machinery adds zero allocations to the call path.

// spansByTrace groups a flat span dump by trace id.
func spansByTrace(spans []trace.Span) map[uint64][]trace.Span {
	out := make(map[uint64][]trace.Span)
	for _, s := range spans {
		out[s.Trace] = append(out[s.Trace], s)
	}
	return out
}

// kindSet reports which span kinds appear, and the nodes recording each.
func kindSet(spans []trace.Span) (kinds map[string]bool, nodes map[string]bool) {
	kinds = make(map[string]bool)
	nodes = make(map[string]bool)
	for _, s := range spans {
		kinds[s.Kind] = true
		nodes[s.Node] = true
	}
	return kinds, nodes
}

// TestSampledCallTimeline: with TraceSample=1 a cross-node call leaves a
// single trace whose spans cover the whole token journey — admission (post),
// dispatch wait (queue), handler runs (execute), cross-node hops (wire) and
// result delivery — attributed to both nodes involved.
func TestSampledCallTimeline(t *testing.T) {
	app := newLocalApp(t, core.Config{TraceSample: 1, ForceSerialize: true}, "node0", "node1")
	g := buildUppercase(t, app, "traced-upper", "node1")

	out, err := callWithin(g, app.MasterNode(), &StringToken{Str: "trace me"}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*StringToken).Str; got != "TRACE ME" {
		t.Fatalf("got %q", got)
	}

	byTrace := spansByTrace(app.TraceSpans(0))
	if len(byTrace) != 1 {
		t.Fatalf("one sampled call left %d traces, want 1", len(byTrace))
	}
	for id, spans := range byTrace {
		if id == 0 {
			t.Fatal("spans recorded under trace id 0")
		}
		kinds, nodes := kindSet(spans)
		for _, want := range []string{"post", "queue", "execute", "wire", "result"} {
			if !kinds[want] {
				t.Errorf("timeline missing %q span; got kinds %v", want, kinds)
			}
		}
		if !nodes["node0"] || !nodes["node1"] {
			t.Errorf("timeline should span both nodes, got %v", nodes)
		}
		// TraceSpans returns a sorted timeline: starts must be non-decreasing.
		for i := 1; i < len(spans); i++ {
			if spans[i].Start < spans[i-1].Start {
				t.Fatalf("timeline out of order at %d: %+v after %+v", i, spans[i], spans[i-1])
			}
		}
	}
}

// TestTraceAcrossRemap migrates the stateful stage mid-call and requires the
// single trace to record the hop: a forward span on the old node, execute
// spans on more than one node, and the ordinary endpoints (post, result).
// A remap forwards tokens only when the split posts during its quiesce, and
// a single remap often lands in a lull, so the stage moves back and forth
// between node1 and node2 until the call ends; the test retries until a run
// genuinely forwarded tokens.
func TestTraceAcrossRemap(t *testing.T) {
	const tokens = 600
	for attempt := 0; attempt < 5; attempt++ {
		app := newLocalApp(t, core.Config{Window: 64, TraceSample: 1, ForceSerialize: true},
			"node0", "node1", "node2")
		g, acc := buildSeqGraph(t, app, fmt.Sprintf("traced-remap-%d", attempt), "node0", "node1")

		remapped := make(chan error, 1)
		stop := make(chan struct{})
		go func() {
			targets := []string{"node2", "node1"}
			for i := 0; ; i++ {
				select {
				case <-time.After(300 * time.Microsecond):
				case <-stop:
					remapped <- nil
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				err := acc.Remap(ctx, targets[i%len(targets)])
				cancel()
				if err != nil {
					remapped <- err
					return
				}
			}
		}()
		out, err := g.Call(context.Background(), &MigOrder{N: tokens})
		close(stop)
		if err != nil {
			t.Fatalf("call failed across remap: %v", err)
		}
		if err := <-remapped; err != nil {
			t.Fatalf("remap: %v", err)
		}
		if got := out.(*MigDone).N; got != tokens {
			t.Fatalf("merge saw %d tokens, want %d", got, tokens)
		}
		if app.Stats().TokensForwarded == 0 {
			continue // remap landed between calls; nothing was in flight
		}

		byTrace := spansByTrace(app.TraceSpans(0))
		if len(byTrace) != 1 {
			t.Fatalf("one call left %d traces", len(byTrace))
		}
		for _, spans := range byTrace {
			kinds, _ := kindSet(spans)
			for _, want := range []string{"post", "forward", "result"} {
				if !kinds[want] {
					t.Errorf("migrated timeline missing %q span; got %v", want, kinds)
				}
			}
			execNodes := make(map[string]bool)
			for _, s := range spans {
				if s.Kind == "execute" {
					execNodes[s.Node] = true
				}
			}
			if len(execNodes) < 2 {
				t.Errorf("execute spans on %v: the timeline never crossed the migration", execNodes)
			}
		}
		return
	}
	t.Fatal("no attempt forwarded tokens mid-call; remap churn never interleaved")
}

// TestTraceAcrossFailover crashes a worker node while sampled calls stream:
// the recovery replay must show up inside the affected calls' traces as
// replay spans connected (same trace id) to ordinary spans recorded by
// other, surviving nodes — one timeline across the crash.
func TestTraceAcrossFailover(t *testing.T) {
	cfg := core.Config{Window: 4, Checkpoint: 2 * time.Millisecond, TraceSample: 1}
	h := newFTHarness(t, cfg, "w1*2 w2*2", "m", "w1", "w2")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(10 * time.Millisecond)
		h.net.Crash("w2")
	}()
	const rounds, perCall = 40, 12
	for r := 0; r < rounds; r++ {
		h.call(t, r*1000, perCall)
	}
	wg.Wait()
	if err := h.app.Err(); err != nil {
		t.Fatalf("application failed: %v", err)
	}
	if s := h.app.Stats(); s.FailoversCompleted != 1 {
		t.Fatalf("FailoversCompleted = %d, want 1", s.FailoversCompleted)
	}

	connected := 0
	for id, spans := range spansByTrace(h.app.TraceSpans(0)) {
		if id == 0 {
			t.Fatal("spans recorded under trace id 0")
		}
		var replayNodes, otherNodes map[string]bool
		replayNodes = make(map[string]bool)
		otherNodes = make(map[string]bool)
		for _, s := range spans {
			if s.Kind == "replay" {
				replayNodes[s.Node] = true
			} else {
				otherNodes[s.Node] = true
			}
		}
		if len(replayNodes) == 0 {
			continue
		}
		// A replayed call's timeline must still connect to live execution
		// somewhere else: spans from a node other than the replayer.
		for n := range otherNodes {
			if !replayNodes[n] {
				connected++
				break
			}
		}
	}
	if connected == 0 {
		t.Fatal("no trace connects a replay span to live spans on another node")
	}
	t.Logf("%d traces reconstruct a timeline across the crash", connected)
}

// TestUnsampledCallAddsNoAllocations pins the zero-allocation promise of the
// unsampled hot path: running the engine with sampling configured but (for
// these calls) not taken allocates exactly as much as running it with
// tracing off entirely. TraceSample=1e-9 makes every admission roll the
// sampling dice and lose, which is precisely the hot path under test.
func TestUnsampledCallAddsNoAllocations(t *testing.T) {
	mk := func(name string, sample float64) (*core.App, *core.Flowgraph) {
		app := newLocalApp(t, core.Config{TraceSample: sample}, "node0")
		return app, buildUppercase(t, app, name, "node0")
	}
	_, gOff := mk("alloc-off", 0)
	appOn, gOn := mk("alloc-on", 1e-9)

	call := func(g *core.Flowgraph) {
		if _, err := callWithin(g, "node0", &StringToken{Str: "abcdefgh"}, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ { // warm pools, links and the scheduler
		call(gOff)
		call(gOn)
	}
	// Median of three alternating measurements per side: AllocsPerRun counts
	// process-wide mallocs, and pool misses after a GC or background
	// goroutines can shift a single measurement by a few allocations.
	var offs, ons [3]float64
	for i := range offs {
		offs[i] = testing.AllocsPerRun(200, func() { call(gOff) })
		ons[i] = testing.AllocsPerRun(200, func() { call(gOn) })
	}
	off, on := median3(offs), median3(ons)
	if on > off+0.5 {
		t.Errorf("unsampled call allocates %.1f with tracing configured vs %.1f without", on, off)
	}
	if spans := appOn.TraceSpans(0); len(spans) != 0 {
		t.Errorf("unsampled calls recorded %d spans", len(spans))
	}
	t.Logf("allocs/call: tracing-off=%.1f unsampled=%.1f", off, on)
}

func median3(v [3]float64) float64 {
	return max(min(v[0], v[1]), min(max(v[0], v[1]), v[2]))
}
