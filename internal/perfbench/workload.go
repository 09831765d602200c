package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"syscall"
	"time"

	"repro/dps"
)

// Workload parameters. Why each workload exists is recorded in README.md.
const (
	// callDeadline is generous: calls take milliseconds, so an expiry means
	// something stalled, and it counts as a failed op.
	callDeadline = 5 * time.Second
	// warmup runs each workload before its timed window, so TCP sessions,
	// engine lanes and the heap are at steady state.
	warmup = time.Second
	// ringDepth stream calls are kept outstanding so the ring never drains
	// between calls.
	ringDepth = 2
	// serveRate is serve-fan's offered load in calls/s. The knee is
	// ≈11–12k calls/s on a quiet 2-core host but falls to ≈4.5k when other
	// tenants steal half its CPU time, so the rate sits well below both and
	// the latency phase measures service time, not overload.
	serveRate = 1000
	// serveDepth is the number of calls the capacity phase keeps
	// outstanding.
	serveDepth = 32
)

type workloadSpec struct {
	name      string
	blockSize int // ring token payload bytes; 0 for serve-fan
	perCall   int // ring tokens per stream call
	pool      int // distinct seeded payload blocks
}

var workloads = []workloadSpec{
	{name: "ring-1k", blockSize: 1 << 10, perCall: 128, pool: 64},
	{name: "ring-256k", blockSize: 256 << 10, perCall: 4, pool: 8},
	{name: "serve-fan"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// result is one timed run of a workload.
type result struct {
	tokensPerS float64 // payload tokens through all hops per second
	callsPerS  float64 // graph calls completed per second, throughput phase
	latency    summary // call latency in ms
	cpuUsPerOp float64
	ops        int64 // ops completed in the timed window(s)
	lateMax    time.Duration
	pendingMax int
	steal      float64 // share of CPU time the hypervisor gave other tenants
	tally
}

// tally counts ops attempted and how they failed. An op is one ring token,
// or one serve-fan call.
type tally struct {
	attempted, wrong, rejected, expired, errs int64
}

func (t *tally) failed() int64 { return t.wrong + t.rejected + t.expired + t.errs }

// fail classifies an error returned for n ops.
func (t *tally) fail(err error, n int64) {
	switch {
	case errors.Is(err, dps.ErrOverload):
		t.rejected += n
	case errors.Is(err, context.DeadlineExceeded):
		t.expired += n
	default:
		t.errs += n
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.wrong += o.wrong
	t.rejected += o.rejected
	t.expired += o.expired
	t.errs += o.errs
}

// runner drives one workload on a live deployment. Lifetime counters feed
// the per-layer ratios against the engine's Stats.
type runner interface {
	measure(dur time.Duration) *result
	// lifetime returns the calls and tokens issued so far, and the payload
	// bytes they carried summed over the remote hops they crossed.
	lifetime() (calls, tokens, payloadBytes int64)
}

// setup deploys the workload's graph and returns once the first warm-up op
// has come back verified: the span setup_s measures.
func setup(w workloadSpec, p *payload, seed int64, tr *tracer) (*deployment, runner, error) {
	d, err := deploy(tr)
	if err != nil {
		return nil, nil, err
	}
	var r runner
	if p != nil {
		r, err = newRingRunner(d, w, p, tr)
	} else {
		r, err = newServeRunner(d, seed, tr)
	}
	if err != nil {
		d.close()
		return nil, nil, err
	}
	return d, r, nil
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// completions records the successful completions of a timed window. A
// rate is reported as the median over equal-count chunks of the window, each
// per second of the CPU time the hypervisor left the machine (share), over
// the chunks with the least steal (quietest). Neither one stall nor the
// hypervisor's other tenants then drag it the way they drag one long
// average.
type completions struct {
	at     []time.Time
	tokens []int64
}

func (c *completions) add(at time.Time, tokens int64) {
	c.at = append(c.at, at)
	c.tokens = append(c.tokens, tokens)
}

// rates returns the median chunk rates of calls and tokens over chunks
// chunks. The first completion only marks the start.
func (c *completions) rates(chunks int, ss *stealSampler) (callsPerS, tokensPerS float64) {
	n := len(c.at) - 1
	if n < 1 {
		return 0, 0
	}
	chunks = max(1, min(chunks, n))
	cr := make([]float64, chunks)
	tr := make([]float64, chunks)
	steal := make([]float64, chunks)
	lo := 0
	for j := range cr {
		hi := (j + 1) * n / chunks
		secs := c.at[hi].Sub(c.at[lo]).Seconds()
		var toks int64
		for _, t := range c.tokens[lo+1 : hi+1] {
			toks += t
		}
		steal[j] = ss.share(c.at[lo], c.at[hi])
		kept := (1 - steal[j]) * secs
		cr[j] = float64(hi-lo) / kept
		tr[j] = float64(toks) / kept
		lo = hi
	}
	quiet := quietest(steal)
	return median(pick(cr, quiet)), median(pick(tr, quiet))
}

// chunksOf is the number of rate chunks of a window: one per second.
func chunksOf(span time.Duration) int { return max(1, int(span/time.Second)) }

// ringRunner issues back-to-back stream calls of perCall tokens from one
// goroutine, keeping ringDepth outstanding.
type ringRunner struct {
	d    *deployment
	g    dps.Graph[*Order, *Done]
	w    workloadSpec
	p    *payload
	tr   *tracer
	call int64 // next call number
	seq  int64 // next payload sequence number
}

func newRingRunner(d *deployment, w workloadSpec, p *payload, tr *tracer) (*ringRunner, error) {
	r := &ringRunner{d: d, w: w, p: p, tr: tr}
	var err error
	if r.g, err = buildRing(d.app, r.p, tr); err != nil {
		return nil, err
	}
	res, err := warmCall(r.g, &Order{Call: r.call, First: r.seq, Blocks: 1})
	if err != nil {
		return nil, fmt.Errorf("first ring call: %w", err)
	}
	if res.N != 1 || res.Sum != r.p.expect(r.seq, 1) {
		return nil, fmt.Errorf("first ring call: got %d tokens, checksum %d", res.N, res.Sum)
	}
	r.call++
	r.seq++
	return r, nil
}

func (r *ringRunner) lifetime() (calls, tokens, payloadBytes int64) {
	return r.call, r.seq, r.seq * int64(r.w.blockSize) * int64(len(nodeNames))
}

type ringFlight struct {
	call, first int64
	issued      time.Time
	startNs     int64
	span        int32
	p           dps.Pending[*Done]
	cancel      context.CancelFunc
}

func (r *ringRunner) issue() (ringFlight, error) {
	f := ringFlight{call: r.call, first: r.seq, span: -1}
	r.call++
	r.seq += int64(r.w.perCall)
	ctx, cancel := context.WithTimeout(context.Background(), callDeadline)
	f.cancel = cancel
	f.issued = time.Now()
	order := &Order{Call: f.call, First: f.first, Blocks: r.w.perCall}
	var err error
	if r.tr == nil {
		f.p, err = r.g.CallAsyncFrom(ctx, nodeNames[0], order)
	} else {
		f.span = r.tr.reserve()
		f.startNs = r.tr.now()
		f.p, err = r.g.CallAsyncFrom(ctx, nodeNames[0], order)
		r.tr.record(kindCallStart, f.startNs, r.tr.now(), f.span, f.call)
	}
	if err != nil {
		cancel()
	}
	return f, err
}

func (r *ringRunner) measure(dur time.Duration) *result {
	res := &result{}
	n := int64(r.w.perCall)
	mStart := time.Now().Add(warmup)
	end := mStart.Add(dur)
	ss := startSteal()
	var done completions
	var lat []sample
	var q []ringFlight
	fill := func() {
		for len(q) < ringDepth {
			f, err := r.issue()
			res.attempted += n
			if err != nil {
				res.fail(err, n)
				return
			}
			if r.tr != nil {
				res.pendingMax = max(res.pendingMax, r.d.app.PendingCalls())
			}
			q = append(q, f)
		}
	}
	fill()
	var cpu0 float64
	open, closed := false, false
	for len(q) > 0 {
		f := q[0]
		q = q[1:]
		out, err := f.p.Wait()
		now := time.Now()
		f.cancel()
		if r.tr != nil {
			r.tr.fill(f.span, kindCall, f.startNs, r.tr.now(), f.call)
		}
		ok := false
		switch {
		case err != nil:
			res.fail(err, n)
		case out.Call != f.call || out.N != r.w.perCall || out.Sum != r.p.expect(f.first, r.w.perCall):
			res.wrong += n
		default:
			ok = true
		}
		if ok && !now.Before(mStart) && now.Before(end) {
			done.add(now, n)
			lat = append(lat, sample{ms: float64(now.Sub(f.issued)) / 1e6, from: f.issued, to: now})
		}
		switch {
		case !open && !now.Before(mStart):
			open, cpu0 = true, cpuSeconds()
		case open && !closed:
			if ok {
				res.ops += n
			}
			if !now.Before(end) {
				closed = true
				res.cpuUsPerOp = (cpuSeconds() - cpu0) * 1e6 / float64(max(res.ops, 1))
			}
		}
		if now.Before(end) {
			fill()
		}
	}
	ss.finish()
	res.callsPerS, res.tokensPerS = done.rates(chunksOf(dur), ss)
	res.latency = chunkSummary(lat, ss)
	res.steal = ss.share(mStart, end)
	return res
}

// serveRunner drives serve-fan: seeded Poisson arrivals from one generator
// goroutine through Graph.CallAsyncFrom, origins rotating over the nodes;
// each pending call is awaited by a short-lived goroutine that records its
// completion.
type serveRunner struct {
	d    *deployment
	g    dps.Graph[*FanReq, *FanRes]
	tr   *tracer
	seed int64
	next int64 // next call sequence number
}

func newServeRunner(d *deployment, seed int64, tr *tracer) (*serveRunner, error) {
	r := &serveRunner{d: d, tr: tr, seed: seed}
	var err error
	if r.g, err = buildFan(d.app, tr); err != nil {
		return nil, err
	}
	req := r.request()
	res, err := warmCall(r.g, req)
	if err != nil {
		return nil, fmt.Errorf("first serve call: %w", err)
	}
	if !fanCorrect(req, res) {
		return nil, fmt.Errorf("first serve call: got seq %d, %d parts, sum %d", res.Seq, res.N, res.Sum)
	}
	return r, nil
}

func (r *serveRunner) lifetime() (calls, tokens, payloadBytes int64) {
	// Each part carries an 8-byte key over two remote hops (to a worker on
	// n1/n2 and back to the merge on n0).
	return r.next, r.next * fanParts, r.next * fanParts * 8 * 2
}

func (r *serveRunner) request() *FanReq {
	seq := r.next
	r.next++
	return &FanReq{Seq: seq, Key: mix(uint64(r.seed)<<32 ^ uint64(seq))}
}

func fanCorrect(req *FanReq, res *FanRes) bool {
	return res.Seq == req.Seq && res.N == fanParts && res.Sum == fanExpect(req.Key)
}

// fanCall is one issued serve-fan call and its outcome.
type fanCall struct {
	req     *FanReq
	res     *FanRes
	err     error
	due     time.Time // scheduled send time (latency phase) or issue time
	done    time.Time
	span    int32
	startNs int64
}

// start issues one call, from an origin rotating over the nodes, and
// returns its pending handle.
func (r *serveRunner) start(c *fanCall) (dps.Pending[*FanRes], context.CancelFunc, error) {
	c.req = r.request()
	c.span = -1
	origin := nodeNames[c.req.Seq%int64(len(nodeNames))]
	ctx, cancel := context.WithTimeout(context.Background(), callDeadline)
	var p dps.Pending[*FanRes]
	var err error
	if r.tr == nil {
		p, err = r.g.CallAsyncFrom(ctx, origin, c.req)
	} else {
		c.span = r.tr.reserve()
		c.startNs = r.tr.now()
		p, err = r.g.CallAsyncFrom(ctx, origin, c.req)
		r.tr.record(kindCallStart, c.startNs, r.tr.now(), c.span, c.req.Seq)
	}
	if err != nil {
		cancel()
		c.err = err
	}
	return p, cancel, err
}

// await blocks for the call's outcome; it runs on the waiter goroutine.
func (r *serveRunner) await(c *fanCall, p dps.Pending[*FanRes], cancel context.CancelFunc) {
	c.res, c.err = p.Wait()
	c.done = time.Now()
	cancel()
	if r.tr != nil {
		r.tr.fill(c.span, kindCall, c.startNs, r.tr.now(), c.req.Seq)
	}
}

// check folds one finished call into t, reporting whether it succeeded.
func (t *tally) check(c *fanCall) bool {
	t.attempted++
	switch {
	case c.err != nil:
		t.fail(c.err, 1)
	case !fanCorrect(c.req, c.res):
		t.wrong++
	default:
		return true
	}
	return false
}

// openLoop offers the arrival schedule, each call timed from its scheduled
// send time so generator lag counts against latency.
func (r *serveRunner) openLoop(schedule []time.Duration, res *result) (lat []sample) {
	calls := make([]fanCall, len(schedule))
	var wg sync.WaitGroup
	begin := time.Now()
	for i, off := range schedule {
		c := &calls[i]
		c.due = begin.Add(off)
		if d := time.Until(c.due); d > 0 {
			time.Sleep(d)
		}
		res.lateMax = max(res.lateMax, time.Since(c.due))
		if r.tr != nil {
			res.pendingMax = max(res.pendingMax, r.d.app.PendingCalls())
		}
		p, cancel, err := r.start(c)
		if err != nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.await(c, p, cancel)
		}()
	}
	wg.Wait()
	for i := range calls {
		c := &calls[i]
		if res.check(c) {
			lat = append(lat, sample{ms: float64(c.done.Sub(c.due)) / 1e6, from: c.due, to: c.done})
		}
	}
	return lat
}

// closedLoop keeps serveDepth calls outstanding for span and returns the
// successful completions.
func (r *serveRunner) closedLoop(span time.Duration, res *result) *completions {
	end := time.Now().Add(span)
	var ok completions
	// Sized to the calls outstanding, so a waiter never blocks.
	done := make(chan *fanCall, serveDepth)
	inflight := 0
	issue := func() {
		c := &fanCall{due: time.Now()}
		if r.tr != nil {
			res.pendingMax = max(res.pendingMax, r.d.app.PendingCalls())
		}
		p, cancel, err := r.start(c)
		if err != nil {
			res.check(c)
			return
		}
		inflight++
		go func() {
			r.await(c, p, cancel)
			done <- c
		}()
	}
	for i := 0; i < serveDepth; i++ {
		issue()
	}
	for inflight > 0 {
		c := <-done
		inflight--
		if res.check(c) && c.done.Before(end) {
			ok.add(c.done, fanParts)
		}
		if c.done.Before(end) {
			issue()
		}
	}
	return &ok
}

func (r *serveRunner) measure(dur time.Duration) *result {
	res := &result{}
	var discard result
	r.openLoop(arrivals(r.seed^0x5eed, serveRate, warmup), &discard)
	res.tally.add(discard.tally)

	latSpan := dur * 2 / 3
	ss := startSteal()
	begin := time.Now()
	cpu0 := cpuSeconds()
	before := res.attempted - res.failed()
	lat := r.openLoop(arrivals(r.seed, serveRate, latSpan), res)
	capSpan := dur - latSpan
	done := r.closedLoop(capSpan, res)
	res.ops = res.attempted - res.failed() - before
	res.cpuUsPerOp = (cpuSeconds() - cpu0) * 1e6 / float64(max(res.ops, 1))
	ss.finish()
	res.steal = ss.share(begin, time.Now())
	res.latency = chunkSummary(lat, ss)
	res.callsPerS, _ = done.rates(3*chunksOf(capSpan), ss)
	res.tokensPerS = res.callsPerS * fanParts
	return res
}
