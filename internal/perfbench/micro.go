package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core/flowctl"
	"repro/internal/core/sched"
	"repro/internal/serial"
	"repro/internal/transport/tcptransport"
)

// Layer microbenchmarks: each times one layer's public functions in
// isolation and reports ns/op and allocs/op. They run after the traced
// workload has been torn down, so no engine goroutine shares the process.

// microReps repeats each microbenchmark; the median repetition is reported.
const microReps = 5

type micro struct {
	ns, allocs float64
}

// timeOps runs f n times per repetition and reports the median
// repetition's ns and heap allocations per call.
func timeOps(n int, f func()) micro {
	ns := make([]float64, microReps)
	allocs := make([]float64, microReps)
	var m0, m1 runtime.MemStats
	for r := range ns {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		ns[r] = float64(time.Since(t).Nanoseconds()) / float64(n)
		runtime.ReadMemStats(&m1)
		allocs[r] = float64(m1.Mallocs-m0.Mallocs) / float64(n)
	}
	return micro{ns: median(ns), allocs: median(allocs)}
}

// schedEnqueueDrain times Instance.Enqueue on an idle instance until the
// enqueued item has run: the drainer spawn, ticket grant and execution a
// token pays on arrival at an idle thread.
func schedEnqueueDrain() micro {
	ran := make(chan struct{}, 1)
	var inst *sched.Instance[int]
	s := sched.New[int](sched.Config{}, func(_ int, tk sched.Ticket, fromDrainer bool) bool {
		tk.Wait()
		inst.Unlock()
		ran <- struct{}{}
		return fromDrainer
	})
	inst = s.NewInstance(0)
	return timeOps(20000, func() {
		inst.Enqueue(1)
		<-ran
	})
}

// gateAcquireRelease times the uncontended TryAcquire/Release pair of one
// policy's gate, the per-token fast path of every post.
func gateAcquireRelease(p flowctl.Policy) (micro, error) {
	g := p.NewGate()
	ok := true
	m := timeOps(1000000, func() {
		ok = g.TryAcquire() && ok
		g.Release()
	})
	if !ok || !g.Quiescent() {
		return m, fmt.Errorf("flowctl %s: uncontended TryAcquire failed or a slot leaked", p.Name())
	}
	return m, nil
}

// serialToken is one token type the workloads put on the wire.
type serialToken struct {
	name string
	v    any
	n    int // iterations per repetition
}

func serialTokens(seed int64) []serialToken {
	rng := rand.New(rand.NewSource(seed))
	block := func(size int) *Block {
		b := &Block{Call: 7, Seq: 12345, Stamp: 1 << 40, Data: make([]byte, size)}
		rng.Read(b.Data)
		return b
	}
	return []serialToken{
		{"block1k", block(1 << 10), 100000},
		{"block256k", block(256 << 10), 1000},
		{"fanpart", &FanPart{Seq: 12345, Key: rng.Uint64(), Stamp: 1 << 40}, 200000},
	}
}

type serialMicro struct {
	marshal, unmarshal micro
	roundtripAllocs    float64
}

// serialRoundTrip times Registry.Marshal and Registry.Unmarshal of one
// token and checks that the round trip reproduces it.
func serialRoundTrip(reg *serial.Registry, tok serialToken) (serialMicro, error) {
	var out serialMicro
	wire, err := reg.Marshal(tok.v)
	if err != nil {
		return out, fmt.Errorf("serial %s: %w", tok.name, err)
	}
	back, _, err := reg.Unmarshal(wire)
	if err != nil {
		return out, fmt.Errorf("serial %s: %w", tok.name, err)
	}
	again, err := reg.Marshal(back)
	if err != nil || !bytes.Equal(again, wire) {
		return out, fmt.Errorf("serial %s: round trip changed the token (%v)", tok.name, err)
	}
	out.marshal = timeOps(tok.n, func() { _, _ = reg.Marshal(tok.v) })
	out.unmarshal = timeOps(tok.n, func() { _, _, _ = reg.Unmarshal(wire) })
	out.roundtripAllocs = timeOps(tok.n, func() {
		b, _ := reg.Marshal(tok.v)
		_, _, _ = reg.Unmarshal(b)
	}).allocs
	return out, nil
}

// rttSizes are the frame sizes of the transport round-trip benchmark.
var rttSizes = []struct {
	name string
	size int
	n    int
}{
	{"64", 64, 2000},
	{"1k", 1 << 10, 2000},
	{"256k", 256 << 10, 200},
}

// frameRTT times a frame round trip between two Listen'ed tcptransport
// nodes: a sends, b's handler echoes the frame back, a's handler returns
// it. Each handler passes the payload it owns on to Send, so no buffer is
// shared. It reports the median round trip in µs and allocs per trip.
func frameRTT(size, n int, seed int64) (rttUs, allocs float64, err error) {
	table := make(map[string]string, 2)
	resolve := tcptransport.StaticResolver(table)
	a, err := tcptransport.Listen("rtt-a", "127.0.0.1:0", resolve)
	if err != nil {
		return 0, 0, err
	}
	defer a.Close()
	b, err := tcptransport.Listen("rtt-b", "127.0.0.1:0", resolve)
	if err != nil {
		return 0, 0, err
	}
	defer b.Close()
	table["rtt-a"], table["rtt-b"] = a.Addr(), b.Addr()

	// One frame circulates at a time, so one slot suffices.
	back := make(chan []byte, 1)
	b.SetHandler(func(src string, p []byte) { _ = b.Send(src, p) })
	a.SetHandler(func(_ string, p []byte) { back <- p })

	want := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(want)
	buf := append([]byte(nil), want...)
	trip := func() error {
		if err := a.Send("rtt-b", buf); err != nil {
			return err
		}
		select {
		case buf = <-back:
			return nil
		case <-time.After(callDeadline):
			return fmt.Errorf("tcptransport: %d-byte frame not echoed within %v", size, callDeadline)
		}
	}
	for i := 0; i < 20; i++ {
		if err := trip(); err != nil {
			return 0, 0, err
		}
	}
	rtts := make([]float64, n)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := range rtts {
		t := time.Now()
		if err := trip(); err != nil {
			return 0, 0, err
		}
		rtts[i] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	runtime.ReadMemStats(&m1)
	if !bytes.Equal(buf, want) {
		return 0, 0, fmt.Errorf("tcptransport: %d-byte frame changed in transit", size)
	}
	return median(rtts), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// layerMicros runs every layer microbenchmark and returns them as
// per-layer metrics.
func layerMicros(seed int64, m *metricSet) error {
	s := schedEnqueueDrain()
	m.add("sched.enqueue_drain_ns", s.ns, "ns")
	m.add("sched.enqueue_drain_allocs", s.allocs, "count")

	for _, p := range []struct {
		name string
		pol  flowctl.Policy
	}{{"window", flowctl.Window{}}, {"deadline", flowctl.Deadline{}}} {
		g, err := gateAcquireRelease(p.pol)
		if err != nil {
			return err
		}
		m.add("flowctl."+p.name+"_acquire_release_ns", g.ns, "ns")
		m.add("flowctl."+p.name+"_acquire_release_allocs", g.allocs, "count")
	}

	reg := serial.NewRegistry()
	if err := serial.Register[Block](reg); err != nil {
		return err
	}
	if err := serial.Register[FanPart](reg); err != nil {
		return err
	}
	for _, tok := range serialTokens(seed) {
		s, err := serialRoundTrip(reg, tok)
		if err != nil {
			return err
		}
		m.add("serial.marshal_ns."+tok.name, s.marshal.ns, "ns")
		m.add("serial.unmarshal_ns."+tok.name, s.unmarshal.ns, "ns")
		m.add("serial.allocs_per_roundtrip."+tok.name, s.roundtripAllocs, "count")
	}

	for _, sz := range rttSizes {
		rtt, allocs, err := frameRTT(sz.size, sz.n, seed)
		if err != nil {
			return err
		}
		m.add("tcptransport.frame_rtt_us."+sz.name, rtt, "us")
		m.add("tcptransport.frame_rtt_allocs."+sz.name, allocs, "count")
	}
	return nil
}
