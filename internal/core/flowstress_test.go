package core_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/flowctl"
	"repro/internal/serial"
)

// Flow-control stress: scenarios in the spirit of stress_test.go, each run
// under several flow-control configurations. Semantics must not depend on
// the window: per-instance FIFO ordering, progress while operations stall
// on flow control, and state consistency under concurrent graph calls.

// flowConfigs are the engine configurations every scenario runs under.
func flowConfigs() []core.Config {
	return []core.Config{
		{Window: 16},
		{Window: 32},
		{Window: 8}, // small window: frequent stalls and drainer handoffs
		{FlowPolicy: flowctl.Unbounded{}},
	}
}

func configName(cfg core.Config) string {
	if cfg.FlowPolicy != nil {
		return cfg.FlowPolicy.Name()
	}
	return fmt.Sprintf("window%d", cfg.Window)
}

// SeqToken carries a split-assigned sequence number.
type SeqToken struct {
	Seq int
}

var _ = serial.MustRegister[SeqToken]()

// TestFIFOPerInstance posts a numbered stream to one single-thread
// collection and checks the leaf observed the tokens in posting order —
// the per-instance FIFO guarantee.
func TestFIFOPerInstance(t *testing.T) {
	for _, cfg := range flowConfigs() {
		t.Run(configName(cfg), func(t *testing.T) {
			app := newLocalApp(t, cfg, "node0", "node1")
			main := core.MustCollection[struct{}](app, "main")
			if err := main.Map("node0"); err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var seen []int
			one := core.MustCollection[struct{}](app, "one")
			if err := one.Map("node1"); err != nil {
				t.Fatal(err)
			}
			split := core.Split[*CountToken, *SeqToken]("seq-split",
				func(c *core.Ctx, in *CountToken, post func(*SeqToken)) {
					for i := 0; i < in.N; i++ {
						post(&SeqToken{Seq: i})
					}
				})
			record := core.Leaf[*SeqToken, *SeqToken]("seq-record",
				func(c *core.Ctx, in *SeqToken) *SeqToken {
					mu.Lock()
					seen = append(seen, in.Seq)
					mu.Unlock()
					return in
				})
			merge := core.Merge[*SeqToken, *CountToken]("seq-merge",
				func(c *core.Ctx, first *SeqToken, next func() (*SeqToken, bool)) *CountToken {
					n := 0
					for _, ok := first, true; ok; _, ok = next() {
						n++
					}
					return &CountToken{N: n}
				})
			g, err := app.NewFlowgraph("seq", core.Path(
				core.NewNode(split, main, core.MainRoute()),
				core.NewNode(record, one, core.MainRoute()),
				core.NewNode(merge, main, core.MainRoute()),
			))
			if err != nil {
				t.Fatal(err)
			}
			const tokens = 2000
			out, err := callWithin(g, app.MasterNode(), &CountToken{N: tokens}, 120*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.(*CountToken).N; got != tokens {
				t.Fatalf("merged %d of %d", got, tokens)
			}
			mu.Lock()
			defer mu.Unlock()
			for i, v := range seen {
				if v != i {
					t.Fatalf("FIFO order violated at %d: got %d", i, v)
				}
			}
		})
	}
}

// TestDeepNestingUnderFlowControl is stress_test.go's nested construct
// chain under each flow configuration: blocked openers must hand their
// drainer role off or the nesting deadlocks.
func TestDeepNestingUnderFlowControl(t *testing.T) {
	for _, cfg := range flowConfigs() {
		t.Run(configName(cfg), func(t *testing.T) {
			app := newLocalApp(t, cfg, "node0", "node1")
			tc := core.MustCollection[struct{}](app, "tc")
			if err := tc.Map("node0 node1"); err != nil {
				t.Fatal(err)
			}
			mkSplit := func(name string, fan int) *core.OpDef {
				return core.Split[*CountToken, *CountToken](name,
					func(c *core.Ctx, in *CountToken, post func(*CountToken)) {
						for i := 0; i < fan; i++ {
							post(&CountToken{N: in.N})
						}
					})
			}
			mkMerge := func(name string) *core.OpDef {
				return core.Merge[*CountToken, *CountToken](name,
					func(c *core.Ctx, first *CountToken, next func() (*CountToken, bool)) *CountToken {
						sum := 0
						for in, ok := first, true; ok; in, ok = next() {
							sum += in.N
						}
						return &CountToken{N: sum}
					})
			}
			work := core.Leaf[*CountToken, *CountToken]("w3",
				func(c *core.Ctx, in *CountToken) *CountToken { return in })
			g, err := app.NewFlowgraph("deep", core.Path(
				core.NewNode(mkSplit("s1", 3), tc, core.MainRoute()),
				core.NewNode(mkSplit("s2", 4), tc, core.RoundRobin()),
				core.NewNode(mkSplit("s3", 5), tc, core.RoundRobin()),
				core.NewNode(work, tc, core.RoundRobin()),
				core.NewNode(mkMerge("m3"), tc, core.RoundRobin()),
				core.NewNode(mkMerge("m2"), tc, core.RoundRobin()),
				core.NewNode(mkMerge("m1"), tc, core.MainRoute()),
			))
			if err != nil {
				t.Fatal(err)
			}
			out, err := callWithin(g, app.MasterNode(), &CountToken{N: 1}, 60*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.(*CountToken).N; got != 60 {
				t.Fatalf("deep nesting sum = %d, want 60", got)
			}
		})
	}
}

// TestWideFanOutConcurrentCalls hammers a stateful collection with
// concurrent calls far beyond the flow-control window, verifying state
// consistency (serialized thread execution).
func TestWideFanOutConcurrentCalls(t *testing.T) {
	for _, cfg := range flowConfigs() {
		t.Run(configName(cfg), func(t *testing.T) {
			app := newLocalApp(t, cfg, "node0", "node1", "node2")
			workers := core.MustCollection[counterState](app, "workers")
			if err := workers.Map("node0 node1 node2"); err != nil {
				t.Fatal(err)
			}
			main := core.MustCollection[struct{}](app, "main")
			if err := main.Map("node0"); err != nil {
				t.Fatal(err)
			}
			split := core.Split[*CountToken, *CountToken]("wide-split",
				func(c *core.Ctx, in *CountToken, post func(*CountToken)) {
					for i := 0; i < in.N; i++ {
						post(&CountToken{N: i})
					}
				})
			add := core.Leaf[*CountToken, *CountToken]("wide-add",
				func(c *core.Ctx, in *CountToken) *CountToken {
					core.StateOf[counterState](c).mine++
					return in
				})
			merge := core.Merge[*CountToken, *SumToken]("wide-merge",
				func(c *core.Ctx, first *CountToken, next func() (*CountToken, bool)) *SumToken {
					n := 0
					for _, ok := first, true; ok; _, ok = next() {
						n++
					}
					return &SumToken{Calls: n}
				})
			g, err := app.NewFlowgraph("wide", core.Path(
				core.NewNode(split, main, core.MainRoute()),
				core.NewNode(add, workers, core.RoundRobin()),
				core.NewNode(merge, main, core.MainRoute()),
			))
			if err != nil {
				t.Fatal(err)
			}
			const calls, per = 8, 300
			var wg sync.WaitGroup
			for i := 0; i < calls; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					out, err := callWithin(g, app.MasterNode(), &CountToken{N: per}, 120*time.Second)
					if err != nil {
						t.Error(err)
						return
					}
					if got := out.(*SumToken).Calls; got != per {
						t.Errorf("merged %d of %d tokens", got, per)
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			// Read back the summed thread states: must equal calls*per.
			readSplit := core.Split[*CountToken, *CountToken]("read-split",
				func(c *core.Ctx, in *CountToken, post func(*CountToken)) {
					for i := 0; i < 3; i++ {
						post(&CountToken{N: i})
					}
				})
			report := core.Leaf[*CountToken, *SumToken]("read-state",
				func(c *core.Ctx, in *CountToken) *SumToken {
					return &SumToken{Sum: core.StateOf[counterState](c).mine}
				})
			total := core.Merge[*SumToken, *SumToken]("read-total",
				func(c *core.Ctx, first *SumToken, next func() (*SumToken, bool)) *SumToken {
					sum := 0
					for in, ok := first, true; ok; in, ok = next() {
						sum += in.Sum
					}
					return &SumToken{Sum: sum}
				})
			g2, err := app.NewFlowgraph("read-back", core.Path(
				core.NewNode(readSplit, main, core.MainRoute()),
				core.NewNode(report, workers, core.ByKey[*CountToken]("read-route", func(in *CountToken) int { return in.N })),
				core.NewNode(total, main, core.MainRoute()),
			))
			if err != nil {
				t.Fatal(err)
			}
			out, err := callWithin(g2, app.MasterNode(), &CountToken{}, 60*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.(*SumToken).Sum; got != calls*per {
				t.Fatalf("state total = %d, want %d", got, calls*per)
			}
		})
	}
}
