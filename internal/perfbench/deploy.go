package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"math/rand"

	"repro/dps"
	"repro/internal/core/flowctl"
	"repro/internal/transport"
	"repro/internal/transport/tcptransport"
)

// Block is one ring token: a slice of the seeded payload pool. Stamp is the
// poster's clock reading in traced runs and zero otherwise.
type Block struct {
	Call  int64
	Seq   int64
	Stamp int64
	Data  []byte
}

// Order asks the ring's split for Blocks tokens, payload sequence numbers
// First, First+1, ….
type Order struct {
	Call   int64
	First  int64
	Blocks int
}

// Done is the ring merge's verdict on one call: the token count and the
// sum of the CRC-32 checksums of every payload that arrived.
type Done struct {
	Call int64
	N    int
	Sum  uint64
}

// FanReq is one serve-fan call; Key seeds the values of its parts.
type FanReq struct {
	Seq int64
	Key uint64
}

// FanPart is one of the fanParts parts of a serve-fan call.
type FanPart struct {
	Seq   int64
	Key   uint64
	Stamp int64
}

// FanRes is the merged result of one serve-fan call.
type FanRes struct {
	Seq int64
	N   int
	Sum uint64
}

var (
	_ = dps.Register[Block]()
	_ = dps.Register[Order]()
	_ = dps.Register[Done]()
	_ = dps.Register[FanReq]()
	_ = dps.Register[FanPart]()
	_ = dps.Register[FanRes]()
)

// nodeNames are the three in-process tcptransport nodes every workload
// runs on; n0 hosts splits and merges.
var nodeNames = []string{"n0", "n1", "n2"}

// fanParts is the serve-fan split width.
const fanParts = 4

// queueWaitSampling is the engine trace-sampling rate of traced runs, the
// only way App.QueueWait records anything.
const queueWaitSampling = 0.05

// deployment is one application over three loopback TCP nodes. Engine
// configuration stays at its defaults; traced deployments add the
// benchmark's decorators (timed transports, timed gates) and queue-wait
// sampling.
type deployment struct {
	app *dps.App
	tcp []*tcptransport.Node
}

func deploy(tr *tracer) (*deployment, error) {
	table := make(map[string]string, len(nodeNames))
	resolve := tcptransport.StaticResolver(table)
	d := &deployment{}
	for _, name := range nodeNames {
		n, err := tcptransport.Listen(name, "127.0.0.1:0", resolve)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("listen %s: %w", name, err)
		}
		table[name] = n.Addr()
		d.tcp = append(d.tcp, n)
	}
	var opts []dps.Option
	if tr != nil {
		opts = append(opts,
			dps.WithFlowPolicy(timedPolicy{Policy: flowctl.Window{}, tr: tr}),
			dps.WithTraceSampling(queueWaitSampling))
	}
	for i, n := range d.tcp {
		var t transport.Transport = n
		if tr != nil {
			t = wrapTransport(&timedTransport{Transport: n, tr: tr})
		}
		var err error
		if i == 0 {
			d.app, err = dps.Connect(t, opts...)
		} else {
			err = d.app.Attach(t)
		}
		if err != nil {
			d.close()
			return nil, fmt.Errorf("attach %s: %w", n.Local(), err)
		}
	}
	return d, nil
}

// retries sums the transport send retries of every node.
func (d *deployment) retries() int64 {
	var r int64
	for _, n := range d.tcp {
		r += n.Retries()
	}
	return r
}

// quiescent reports an application that neither failed nor left a call
// behind.
func (d *deployment) quiescent() error {
	if err := d.app.Err(); err != nil {
		return fmt.Errorf("application failed: %w", err)
	}
	if n := d.app.PendingCalls(); n != 0 {
		return fmt.Errorf("%d calls still pending", n)
	}
	return nil
}

func (d *deployment) close() {
	if d.app != nil {
		d.app.Close()
	}
	for _, n := range d.tcp {
		_ = n.Close()
	}
}

// collection creates a stateless collection mapped by spec.
func collection(app *dps.App, name, spec string) (*dps.Collection, error) {
	c, err := dps.NewCollection[struct{}](app, name)
	if err != nil {
		return nil, err
	}
	if err := c.Map(spec); err != nil {
		return nil, fmt.Errorf("map %s: %w", name, err)
	}
	return c, nil
}

// payload is the seeded, incompressible block pool ring tokens point into,
// with each block's CRC-32 precomputed for verification.
type payload struct {
	blocks [][]byte
	sums   []uint64
}

func newPayload(seed int64, size, count int) *payload {
	rng := rand.New(rand.NewSource(seed))
	p := &payload{blocks: make([][]byte, count), sums: make([]uint64, count)}
	for i := range p.blocks {
		b := make([]byte, size)
		rng.Read(b)
		p.blocks[i] = b
		p.sums[i] = uint64(crc32.ChecksumIEEE(b))
	}
	return p
}

func (p *payload) block(seq int64) []byte { return p.blocks[seq%int64(len(p.blocks))] }

// expect is the Done.Sum of a call carrying blocks first … first+n-1.
func (p *payload) expect(first int64, n int) uint64 {
	var s uint64
	for i := 0; i < n; i++ {
		s += p.sums[(first+int64(i))%int64(len(p.sums))]
	}
	return s
}

// buildRing is the paper's Figure 6 ring: split on n0 → forward on n1 →
// forward on n2 → merge on n0, so every token crosses three TCP links.
func buildRing(app *dps.App, p *payload, tr *tracer) (dps.Graph[*Order, *Done], error) {
	var hops [3]*dps.Collection
	for i := range hops {
		c, err := collection(app, fmt.Sprintf("ring-hop%d", i), nodeNames[i])
		if err != nil {
			return dps.Graph[*Order, *Done]{}, err
		}
		hops[i] = c
	}
	split := dps.Split("ring-split", hops[0], dps.MainRoute(),
		func(c *dps.Ctx, in *Order, post func(*Block)) {
			for i := 0; i < in.Blocks; i++ {
				seq := in.First + int64(i)
				b := &Block{Call: in.Call, Seq: seq, Data: p.block(seq)}
				if tr != nil {
					b.Stamp = tr.now()
				}
				post(b)
			}
		})
	forward := func(c *dps.Ctx, in *Block) *Block {
		if tr != nil {
			tr.hop(in.Stamp, in.Call)
			in.Stamp = tr.now()
		}
		return in
	}
	merge := dps.Merge("ring-merge", hops[0], dps.MainRoute(),
		func(c *dps.Ctx, first *Block, next func() (*Block, bool)) *Done {
			d := &Done{Call: first.Call}
			for b, ok := first, true; ok; b, ok = next() {
				if tr != nil {
					tr.hop(b.Stamp, b.Call)
				}
				d.N++
				d.Sum += uint64(crc32.ChecksumIEEE(b.Data))
			}
			return d
		})
	return dps.Build(app, "ring", dps.Then(dps.Then(dps.Then(dps.Chain(split),
		dps.Leaf("ring-fwd1", hops[1], dps.MainRoute(), forward)),
		dps.Leaf("ring-fwd2", hops[2], dps.MainRoute(), forward)),
		merge))
}

// mix is the serve-fan workers' per-part computation (the SplitMix64
// finalizer), so a result proves every part visited a worker.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// fanExpect is the FanRes.Sum of a call with the given key.
func fanExpect(key uint64) uint64 {
	var s uint64
	for i := 0; i < fanParts; i++ {
		s += mix(key + uint64(i))
	}
	return s
}

// buildFan is the serve-fan graph: split on n0 into fanParts parts, each
// load-balanced over four worker threads on n1/n2, merged on n0.
func buildFan(app *dps.App, tr *tracer) (dps.Graph[*FanReq, *FanRes], error) {
	front, err := collection(app, "fan-front", "n0")
	if err != nil {
		return dps.Graph[*FanReq, *FanRes]{}, err
	}
	workers, err := collection(app, "fan-workers", "n1*2 n2*2")
	if err != nil {
		return dps.Graph[*FanReq, *FanRes]{}, err
	}
	split := dps.Split("fan-split", front, dps.MainRoute(),
		func(c *dps.Ctx, in *FanReq, post func(*FanPart)) {
			for i := 0; i < fanParts; i++ {
				p := &FanPart{Seq: in.Seq, Key: in.Key + uint64(i)}
				if tr != nil {
					p.Stamp = tr.now()
				}
				post(p)
			}
		})
	work := dps.Leaf("fan-work", workers, dps.LoadBalanced(),
		func(c *dps.Ctx, in *FanPart) *FanPart {
			if tr != nil {
				tr.hop(in.Stamp, in.Seq)
			}
			in.Key = mix(in.Key)
			if tr != nil {
				in.Stamp = tr.now()
			}
			return in
		})
	merge := dps.Merge("fan-merge", front, dps.MainRoute(),
		func(c *dps.Ctx, first *FanPart, next func() (*FanPart, bool)) *FanRes {
			r := &FanRes{Seq: first.Seq}
			for p, ok := first, true; ok; p, ok = next() {
				if tr != nil {
					tr.hop(p.Stamp, p.Seq)
				}
				r.N++
				r.Sum += p.Key
			}
			return r
		})
	return dps.Build(app, "serve-fan", dps.Then(dps.Then(dps.Chain(split), work), merge))
}

// warmCall is the first operation after deployment: it returns once the
// lazy TCP dials and engine lanes it needs are up.
func warmCall[In, Out dps.Token](g dps.Graph[In, Out], in In) (Out, error) {
	ctx, cancel := context.WithTimeout(context.Background(), callDeadline)
	defer cancel()
	return g.Call(ctx, in)
}
