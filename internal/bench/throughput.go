package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/ringbench"
	"repro/internal/trace"
	"repro/internal/transport/tcptransport"
)

// tpNodes is the real-TCP ring size: split on tp0, forwarders on tp1/tp2,
// merge back on tp0 — every block crosses three loopback TCP links.
const tpNodes = 3

// tpResult is one measured throughput configuration.
type tpResult struct {
	tokensPerSec float64
	goodput      float64 // payload MB/s leaving the split
	bytesSent    int64   // engine egress, all nodes (checkpoint records included)
	stats        *core.Stats
}

// runTCPRing measures one configuration of the ring over real loopback TCP
// sockets (no simnet modelled time — wall-clock, syscalls and the kernel
// TCP stack are the substrate being measured).
func runTCPRing(appCfg core.Config, blocks, blockSize int, seed int64) (*tpResult, error) {
	table := make(map[string]string)
	resolver := tcptransport.StaticResolver(table)
	app := core.NewApp(appCfg)
	defer app.Close()
	names := nodeNames("tp", tpNodes)
	for _, name := range names {
		n, err := tcptransport.Listen(name, "127.0.0.1:0", resolver)
		if err != nil {
			return nil, err
		}
		table[name] = n.Addr()
		if _, err := app.AttachTransport(n); err != nil {
			_ = n.Close()
			return nil, err
		}
	}

	single := make([]*core.ThreadCollection, tpNodes)
	for i := range single {
		tc, err := core.NewCollection[struct{}](app, fmt.Sprintf("tp-hop%d", i))
		if err != nil {
			return nil, err
		}
		if err := tc.MapNodes(names[i]); err != nil {
			return nil, err
		}
		single[i] = tc
	}

	// Pseudorandom payloads: compression must not be able to flatter the
	// measured goodput, and the wire sees realistic entropy.
	rng := rand.New(rand.NewSource(seed))
	master := make([]byte, blockSize)
	rng.Read(master)

	split := core.Split[*ringbench.RingOrder, *ringbench.BlockToken]("tp-split",
		func(c *core.Ctx, in *ringbench.RingOrder, post func(*ringbench.BlockToken)) {
			for i := 0; i < in.Blocks; i++ {
				data := make([]byte, in.BlockSize)
				copy(data, master)
				post(&ringbench.BlockToken{Seq: i, Data: data})
			}
		})
	forward := func(hop int) *core.OpDef {
		return core.Leaf[*ringbench.BlockToken, *ringbench.BlockToken](fmt.Sprintf("tp-forward-%d", hop),
			func(c *core.Ctx, in *ringbench.BlockToken) *ringbench.BlockToken { return in })
	}
	merge := core.Merge[*ringbench.BlockToken, *ringbench.RingDone]("tp-merge",
		func(c *core.Ctx, first *ringbench.BlockToken, next func() (*ringbench.BlockToken, bool)) *ringbench.RingDone {
			n := 0
			for _, ok := first, true; ok; _, ok = next() {
				n++
			}
			return &ringbench.RingDone{Blocks: n}
		})

	graphNodes := []*core.GraphNode{core.NewNode(split, single[0], core.MainRoute())}
	for i := 1; i < tpNodes; i++ {
		graphNodes = append(graphNodes, core.NewNode(forward(i), single[i], core.MainRoute()))
	}
	graphNodes = append(graphNodes, core.NewNode(merge, single[0], core.MainRoute()))
	g, err := app.NewFlowgraph("tp-ring", core.Path(graphNodes...))
	if err != nil {
		return nil, err
	}

	// Warm the connections (and the engine's lazy lanes) outside the timed
	// window, then measure.
	if _, err := g.Call(context.Background(), &ringbench.RingOrder{Blocks: 2, BlockSize: 64}); err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	warm := app.Stats().BytesSent

	sw := trace.StartStopwatch()
	out, err := g.Call(context.Background(), &ringbench.RingOrder{Blocks: blocks, BlockSize: blockSize})
	if err != nil {
		return nil, err
	}
	elapsed := sw.Elapsed()
	if got := out.(*ringbench.RingDone).Blocks; got != blocks {
		return nil, fmt.Errorf("throughput: %d of %d blocks arrived", got, blocks)
	}
	st := app.Stats()
	total := int64(blocks) * int64(blockSize)
	return &tpResult{
		tokensPerSec: float64(blocks) / elapsed.Seconds(),
		goodput:      trace.ThroughputMBs(total, elapsed),
		bytesSent:    st.BytesSent - warm,
		stats:        st,
	}, nil
}

// Throughput measures the wire path end to end over real TCP (loopback):
// tokens/sec and goodput of the 3-node ring at several payload sizes, with
// wire batching off and on, and with the fault-tolerance layer off and on.
// Unlike every simnet experiment, the numbers here are wall-clock — frame
// count, syscalls and serialization are what move them. Not in the paper;
// this is the regression harness for the batched wire path.
func Throughput(opt Options) (*Report, error) {
	total := 16 << 20
	sizes := []int{1 << 10, 64 << 10, 512 << 10}
	if opt.Quick {
		total = 4 << 20
		sizes = []int{1 << 10, 64 << 10}
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}

	type variant struct {
		name  string
		batch bool
		ft    bool
	}
	variants := []variant{
		{"plain", false, false},
		{"batch", true, false},
		{"ft", false, true},
		{"batch+ft", true, true},
	}

	t := &trace.Table{
		Title:  "Throughput: 3-node ring over real TCP loopback (wall-clock, not simnet)",
		Header: []string{"size[B]", "mode", "tokens/s", "MB/s", "egress/payload", "vs plain"},
	}
	agg := &core.Stats{}
	var notes []string
	for _, size := range sizes {
		blocks := total / size
		if blocks == 0 {
			blocks = 1
		}
		results := make(map[string]*tpResult, len(variants))
		for _, v := range variants {
			cfg := core.Config{Window: 64, Batch: v.batch}
			if v.ft {
				cfg.Checkpoint = 2 * time.Millisecond
			}
			res, err := runTCPRing(cfg, blocks, size, seed)
			if err != nil {
				return nil, fmt.Errorf("throughput size=%d %s: %w", size, v.name, err)
			}
			results[v.name] = res
			agg.Add(res.stats)
			payload := float64(blocks) * float64(size) * float64(tpNodes) // each block crosses 3 links
			speedup := res.tokensPerSec / results["plain"].tokensPerSec
			t.AddRow(
				fmt.Sprint(size),
				v.name,
				fmt.Sprintf("%.0f", res.tokensPerSec),
				fmt.Sprintf("%.1f", res.goodput),
				fmt.Sprintf("%.3f", float64(res.bytesSent)/payload),
				fmt.Sprintf("%.2fx", speedup),
			)
		}
		ftRatio := float64(results["ft"].bytesSent) / float64(results["plain"].bytesSent)
		ftBatchRatio := float64(results["batch+ft"].bytesSent) / float64(results["batch"].bytesSent)
		notes = append(notes, fmt.Sprintf(
			"size %d: batching %.2fx tokens/s; FT egress %.2fx of FT-off unbatched, %.2fx batched (regenerative checkpoints keep it near 1x)",
			size,
			results["batch"].tokensPerSec/results["plain"].tokensPerSec,
			ftRatio, ftBatchRatio))
	}
	notes = append(notes,
		"payloads are pseudorandom (incompressible): compression cannot flatter goodput.",
		"check: batching must speed up small-token streams (>=2x tokens/s at 1 KB) and never regress bulk sizes.",
		"check: FT egress must stay <=1.2x of FT-off at bulk sizes — the old full-log checkpoints cost ~2x.",
	)
	return &Report{
		ID:    "throughput",
		Table: t,
		Stats: agg,
		Notes: notes,
	}, nil
}
