package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core/flowctl"
	"repro/internal/transport"
)

// kind names a span recorded at a layer boundary.
type kind uint8

const (
	kindCall      kind = iota // one graph call, issue to result
	kindCallStart             // time inside Graph.CallAsyncFrom
	kindHop                   // upstream post to downstream op body start
	kindSend                  // tcptransport Send
	kindRecv                  // engine handler holding one inbound frame
	kindGate                  // flow-control Gate.Acquire (the stall path)
	numKinds
)

var kindNames = [numKinds]string{"call", "call_start", "hop", "tcp_send", "recv_handler", "gate_acquire"}

// Span is one recorded interval. Start and End are nanoseconds since the
// tracer's base; Parent indexes the causing span (-1 for none); Op is the
// call the span belongs to (-1 when the boundary cannot tell, as for
// transport frames, which are opaque).
type Span struct {
	Kind       kind
	Parent     int32
	Op         int64
	Start, End int64
}

// maxSpans bounds the spans a traced run keeps in memory for the dump;
// duration histograms keep counting every event beyond it.
const maxSpans = 1 << 18

// tracer records the traced run's spans and per-kind duration histograms.
// A nil *tracer means tracing is off: callers test for nil, so the
// untraced path runs none of this code.
type tracer struct {
	base  time.Time
	hists [numKinds]hist

	frames, bytes atomic.Int64 // sent by the timed transports

	mu      sync.Mutex
	spans   []Span
	dropped int64
	stopped bool
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]Span, 0, maxSpans)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// reserve claims a span slot to be filled later by fill (a call span, known
// before its children but finished after them); -1 when the buffer is full.
func (t *tracer) reserve() int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped || len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, Span{Parent: -1, Op: -1})
	return int32(len(t.spans) - 1)
}

func (t *tracer) fill(i int32, k kind, start, end, op int64) {
	t.hists[k].add(end - start)
	if i < 0 {
		return
	}
	t.mu.Lock()
	if !t.stopped {
		t.spans[i] = Span{Kind: k, Parent: -1, Op: op, Start: start, End: end}
	}
	t.mu.Unlock()
}

func (t *tracer) record(k kind, start, end int64, parent int32, op int64) {
	t.hists[k].add(end - start)
	t.mu.Lock()
	switch {
	case t.stopped:
	case len(t.spans) == cap(t.spans):
		t.dropped++
	default:
		t.spans = append(t.spans, Span{Kind: k, Parent: parent, Op: op, Start: start, End: end})
	}
	t.mu.Unlock()
}

// hop records the transfer of a token stamped by its upstream op.
func (t *tracer) hop(stamp, op int64) {
	t.record(kindHop, stamp, t.now(), -1, op)
}

// stop freezes the span buffer; late engine goroutines (acks still in
// flight at shutdown) record nothing afterwards.
func (t *tracer) stop() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stopped = true
	return t.spans
}

// dump writes the spans as gzipped CSV, one span a line.
func (t *tracer) dump(path, header string) error {
	spans := t.stop()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	w := bufio.NewWriter(zw)
	fmt.Fprintf(w, "# %s dropped=%d\nindex,name,start_ns,end_ns,parent,op\n", header, t.dropped)
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i, kindNames[s.Kind], s.Start, s.End, s.Parent, s.Op)
	}
	err = w.Flush()
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// hist is a lock-free log-linear duration histogram: 16 buckets per power
// of two, so a reported percentile is within 1/32 of the true value.
type hist struct {
	b   [64 << histSub]atomic.Int64
	n   atomic.Int64
	sum atomic.Int64
}

const histSub = 4

func histBucket(v int64) int {
	if v < 1<<histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - histSub - 1
	return (e+1)<<histSub + int(v>>e) - 1<<histSub
}

// histMid is the midpoint of bucket i's value range.
func histMid(i int) float64 {
	if i < 1<<histSub {
		return float64(i)
	}
	e := i>>histSub - 1
	lo := int64(i&(1<<histSub-1)+1<<histSub) << e
	return float64(lo) + float64(int64(1)<<e)/2
}

func (h *hist) add(v int64) {
	h.b[histBucket(v)].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
}

// quantile returns the nearest-rank p-th percentile (bucket midpoint).
func (h *hist) quantile(p float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.b {
		seen += h.b[i].Load()
		if seen >= rank {
			return histMid(i)
		}
	}
	return histMid(len(h.b) - 1)
}

// timedTransport decorates a node's transport in traced runs: it times
// Send and the engine's inbound handler, and counts frames and bytes. It
// reads only len(payload), before Send takes ownership, and never touches
// a handler's payload, per the transport.Handler contract.
type timedTransport struct {
	transport.Transport
	tr *tracer
}

func (t *timedTransport) Send(dst string, payload []byte) error {
	n := len(payload)
	start := t.tr.now()
	err := t.Transport.Send(dst, payload)
	t.tr.record(kindSend, start, t.tr.now(), -1, -1)
	t.tr.frames.Add(1)
	t.tr.bytes.Add(int64(n))
	return err
}

func (t *timedTransport) SetHandler(h transport.Handler) {
	t.Transport.SetHandler(func(src string, payload []byte) {
		start := t.tr.now()
		h(src, payload)
		t.tr.record(kindRecv, start, t.tr.now(), -1, -1)
	})
}

// colocatedTransport is a timedTransport over a transport that also
// implements transport.Colocated.
type colocatedTransport struct {
	*timedTransport
	co transport.Colocated
}

func (c colocatedTransport) Colocated(dst string) bool { return c.co.Colocated(dst) }

// wrapTransport returns t with exactly the optional interfaces of the
// transport it decorates, so the engine takes the same paths as without
// the decorator.
func wrapTransport(t *timedTransport) transport.Transport {
	if co, ok := t.Transport.(transport.Colocated); ok {
		return colocatedTransport{timedTransport: t, co: co}
	}
	return t
}

// timedPolicy wraps a flow-control policy so that every gate it creates
// times Acquire, the path a poster takes only when the window is exhausted.
type timedPolicy struct {
	flowctl.Policy
	tr *tracer
}

func (p timedPolicy) NewGate() flowctl.Gate {
	return timedGate{Gate: p.Policy.NewGate(), tr: p.tr}
}

type timedGate struct {
	flowctl.Gate
	tr *tracer
}

func (g timedGate) Acquire(ctx context.Context, onStall func(), failed func() error) (bool, error) {
	start := g.tr.now()
	stalled, err := g.Gate.Acquire(ctx, onStall, failed)
	g.tr.record(kindGate, start, g.tr.now(), -1, -1)
	return stalled, err
}
