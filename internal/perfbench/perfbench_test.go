package main

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core/flowctl"
	"repro/internal/transport"
	"repro/internal/transport/tcptransport"
)

func TestArrivalsSeeded(t *testing.T) {
	const rate, span = 4000.0, 10 * time.Second
	a, b := arrivals(7, rate, span), arrivals(7, rate, span)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if slices.Equal(a, arrivals(8, rate, span)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= span {
		t.Fatal("schedule is not ordered within the span")
	}
	// 40000 expected arrivals: a Poisson count has sd 200, so 2% is 4 sd.
	if got := float64(len(a)) / span.Seconds(); math.Abs(got-rate)/rate > 0.02 {
		t.Fatalf("mean rate %.0f/s, want %.0f/s within 2%%", got, rate)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{40, 75, true},
		{100, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{100000, 99, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && c.n-nearestRank(p, c.n) < 10 {
			t.Errorf("n=%d: p%v leaves fewer than ten samples beyond it", c.n, p)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1 … 1000, reversed
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500 || s.P90 != 900 || s.TailPct != 99 || s.Tail != 990 {
		t.Fatalf("summarize = %+v, want n=1000 p50=500 p90=900 p99=990", s)
	}
	if s := summarize(xs[:30]); s.TailPct != 50 || s.N != 30 {
		t.Fatalf("30 samples: tail at p%v (n=%d), want p50", s.TailPct, s.N)
	}

	// Three chunks of 1000 with no steal seen; the middle one is slow. The
	// chunk summary reports the typical chunk.
	var run []sample
	for _, scale := range []float64{1, 10, 1} {
		for i := 1; i <= 1000; i++ {
			run = append(run, sample{ms: scale * float64(i)})
		}
	}
	cs := chunkSummary(run, nil)
	if cs.N != 3000 || cs.P50 != 500 || cs.P90 != 900 || cs.Tail != 990 || cs.TailPct != 99 {
		t.Fatalf("chunkSummary = %+v, want n=3000 p50=500 p90=900 p99=990", cs)
	}
}

func TestQuietest(t *testing.T) {
	if got := quietest([]float64{0, 0, 0}); !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("no steal: %v, want every index", got)
	}
	if got := quietest([]float64{5, 0, 9, 1}); !slices.Equal(got, []int{1, 3}) {
		t.Fatalf("quietest = %v, want the two least-stolen", got)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v * 10)
	}
	for _, p := range []float64{50, 90, 99} {
		want := p / 100 * 1e6
		if got := h.quantile(p); math.Abs(got-want)/want > 1.0/32 {
			t.Errorf("p%v = %v, want %v within 1/32", p, got, want)
		}
	}
	if s := summarizeHist(&h, 1e-3); s.N != 100000 || s.TailPct != 99 {
		t.Errorf("summarizeHist = %+v", s)
	}
}

func TestCompletionRates(t *testing.T) {
	var c completions
	start := time.Unix(0, 0)
	for i := 0; i <= 100; i++ {
		c.add(start.Add(time.Duration(i)*10*time.Millisecond), 4) // 100 calls/s
	}
	calls, tokens := c.rates(5, nil)
	if math.Abs(calls-100) > 1e-9 || math.Abs(tokens-400) > 1e-9 {
		t.Fatalf("rates = %v calls/s, %v tokens/s; want 100, 400", calls, tokens)
	}
}

// TestStealRescales checks that a chunk's rate is taken per second of the
// CPU time the hypervisor left the machine.
func TestStealRescales(t *testing.T) {
	start := time.Unix(0, 0)
	at := func(s float64) time.Time { return start.Add(time.Duration(s * float64(time.Second))) }
	half := 50 * float64(runtime.NumCPU()) // ticks per second: half of every CPU
	ss := &stealSampler{
		at:    []time.Time{at(0), at(1), at(2), at(3)},
		ticks: []float64{0, 0, half, 2 * half},
	}
	if got := ss.share(at(0), at(1)); got != 0 {
		t.Fatalf("quiet second: share %v, want 0", got)
	}
	if got := ss.share(at(1), at(3)); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("stolen seconds: share %v, want 0.5", got)
	}
	var c completions
	for i := 0; i <= 300; i++ {
		c.add(at(float64(i)/100), 1) // 100 calls/s of wall time
	}
	// Chunk steal shares are 0, 0.5, 0.5; all three are at or below the
	// median, and the stolen chunks count 200 calls per unstolen second.
	if calls, _ := c.rates(3, ss); math.Abs(calls-200) > 1e-6 {
		t.Fatalf("rates = %v calls/s, want 200", calls)
	}
}

// TestTimedTransportPassThrough checks that the transport decorator
// delivers the sender's bytes unchanged, counts them, and exposes exactly
// the optional interfaces of the node it wraps.
func TestTimedTransportPassThrough(t *testing.T) {
	fab := transport.NewInproc()
	defer fab.Close()
	a, err := fab.Node("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := fab.Node("b")
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	wa := wrapTransport(&timedTransport{Transport: a, tr: tr})
	wb := wrapTransport(&timedTransport{Transport: b, tr: tr})
	if _, ok := wa.(transport.Colocated); !ok {
		t.Fatal("wrapped inproc node lost transport.Colocated")
	}
	got := make(chan []byte, 1)
	wb.SetHandler(func(src string, p []byte) {
		if src == "a" {
			got <- p
		}
	})
	want := []byte("the paper's ring, one frame")
	if err := wa.Send("b", append([]byte(nil), want...)); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if !bytes.Equal(p, want) {
			t.Fatalf("delivered %q, want %q", p, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame not delivered")
	}
	if err := wa.Send("nowhere", []byte{1}); err == nil {
		t.Fatal("send error not passed through")
	}
	if f, n := tr.frames.Load(), tr.bytes.Load(); f != 2 || n != int64(len(want))+1 {
		t.Fatalf("counted %d frames, %d bytes; want 2, %d", f, n, len(want)+1)
	}
	if tr.hists[kindSend].n.Load() != 2 {
		t.Fatal("sends not timed")
	}

	tcp, err := tcptransport.Listen("t", "127.0.0.1:0", tcptransport.StaticResolver(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	if _, ok := wrapTransport(&timedTransport{Transport: tcp, tr: tr}).(transport.Colocated); ok {
		t.Fatal("wrapped tcp node gained transport.Colocated")
	}
}

// TestTimedGatePassThrough drives a wrapped and a bare window gate through
// the same sequence and expects the same answers.
func TestTimedGatePassThrough(t *testing.T) {
	tr := newTracer()
	gates := []flowctl.Gate{flowctl.Window{N: 1}.NewGate(), timedPolicy{Policy: flowctl.Window{N: 1}, tr: tr}.NewGate()}
	type outcome struct {
		try1, try2, stalled, quiescent bool
		err                            error
	}
	var got []outcome
	for _, g := range gates {
		var o outcome
		o.try1 = g.TryAcquire()
		o.try2 = g.TryAcquire()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		o.stalled, o.err = g.Acquire(ctx, nil, nil)
		g.Release()
		o.quiescent = g.Quiescent()
		got = append(got, o)
	}
	if got[0].try1 != got[1].try1 || got[0].try2 != got[1].try2 || got[0].stalled != got[1].stalled ||
		got[0].quiescent != got[1].quiescent || !errors.Is(got[1].err, context.Canceled) || !errors.Is(got[0].err, context.Canceled) {
		t.Fatalf("bare gate %+v, timed gate %+v", got[0], got[1])
	}
	if tr.hists[kindGate].n.Load() != 1 {
		t.Fatal("Acquire not timed")
	}
	if name := (timedPolicy{Policy: flowctl.Window{}, tr: tr}).Name(); name != (flowctl.Window{}).Name() {
		t.Fatalf("policy name %q changed", name)
	}
}
