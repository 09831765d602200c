package dps

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/core/flowctl"
)

// FlowPolicy selects the flow-control discipline applied to each split
// group; see WindowPolicy and UnboundedPolicy.
type FlowPolicy = flowctl.Policy

// WindowPolicy is the paper's credit-window flow control: at most n tokens
// of one split–merge group unacknowledged at any time. n <= 0 selects the
// engine default.
func WindowPolicy(n int) FlowPolicy { return flowctl.Window{N: n} }

// UnboundedPolicy applies no backpressure: posts never block. Useful as a
// baseline and for workloads whose group sizes are intrinsically bounded.
func UnboundedPolicy() FlowPolicy { return flowctl.Unbounded{} }

// DeadlinePolicy is WindowPolicy with deadline-aware granting: when the
// window is exhausted, queued posters are granted slots in
// earliest-deadline-first order instead of wake-up order, so a saturated
// graph spends its window on the calls closest to expiry and the p99 of
// admitted calls stays bounded. Posters whose context carries no deadline
// age with a virtual deadline of arrival + patience (<= 0 selects the
// engine default) so urgent traffic cannot starve them. n <= 0 selects the
// engine's default window.
func DeadlinePolicy(n int, patience time.Duration) FlowPolicy {
	return flowctl.Deadline{N: n, Patience: patience}
}

// Option configures an application at construction time.
type Option func(*config) error

type config struct {
	nodes  []string
	engine core.Config
}

func buildConfig(opts []Option) (*config, error) {
	cfg := &config{}
	for _, opt := range opts {
		if err := opt(cfg); err != nil {
			return nil, err
		}
	}
	if cfg.engine.FailureDetect > 0 && cfg.engine.Checkpoint == 0 {
		return nil, fmt.Errorf("dps: WithFailureDetect requires WithCheckpoint (probing without the recovery layer would be inert)")
	}
	if cfg.engine.SuspectGrace > 0 && cfg.engine.Checkpoint == 0 {
		return nil, fmt.Errorf("dps: WithSuspectGrace requires WithCheckpoint (there is no failure detector to grace without the recovery layer)")
	}
	if cfg.engine.Compress && !cfg.engine.Batch {
		return nil, fmt.Errorf("dps: WithCompression requires WithBatch (only batch frame bodies are compressed)")
	}
	return cfg, nil
}

func (c *config) nodeNames() []string {
	if len(c.nodes) == 0 {
		return []string{"node0"}
	}
	return c.nodes
}

// WithNodes names the application's virtual cluster nodes, in attachment
// order (the first named node is the master node).
func WithNodes(names ...string) Option {
	return func(c *config) error {
		if len(names) == 0 {
			return fmt.Errorf("dps: WithNodes needs at least one node name")
		}
		c.nodes = append([]string(nil), names...)
		return nil
	}
}

// WithWindow bounds the number of tokens in circulation per split–merge
// pair (the paper's flow-control feedback). Zero keeps the engine default;
// it is ignored when WithFlowPolicy selects a policy explicitly.
func WithWindow(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("dps: negative flow-control window %d", n)
		}
		c.engine.Window = n
		return nil
	}
}

// WithFlowPolicy selects the flow-control discipline applied to each split
// group, overriding WithWindow.
func WithFlowPolicy(p FlowPolicy) Option {
	return func(c *config) error {
		c.engine.FlowPolicy = p
		return nil
	}
}

// WithMaxInFlightCalls bounds the graph calls admitted concurrently across
// the application. Beyond the budget, Call/CallAsync shed at admission with
// an error wrapping ErrOverload instead of queueing without bound — the
// caller backs off and retries. Zero admits without bound.
func WithMaxInFlightCalls(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("dps: negative in-flight call budget %d", n)
		}
		c.engine.MaxInFlightCalls = n
		return nil
	}
}

// WithRebalance bounds the quiesce phase of live thread migrations
// (Collection.Remap / RemapThread) when the caller's context carries no
// deadline: a thread stuck inside an operation or an open merge group longer
// than drain aborts the migration cleanly (placement unchanged, held tokens
// re-dispatched) instead of stalling the remap forever. Zero waits
// indefinitely.
func WithRebalance(drain time.Duration) Option {
	return func(c *config) error {
		if drain < 0 {
			return fmt.Errorf("dps: negative rebalance drain %v", drain)
		}
		c.engine.RemapDrain = drain
		return nil
	}
}

// WithCheckpoint enables the fault-tolerance layer and sets the interval
// at which thread instances checkpoint their state. With it on, every
// token is sequenced and retained by its sender until a checkpoint of its
// destination makes it durable; a node declared dead (FailNode, transport
// send errors, WithFailureDetect probes, kernel heartbeats) has its
// threads restored from their newest checkpoints on the surviving nodes,
// retained in-flight tokens are replayed, and receivers drop re-delivered
// duplicates — executing calls complete with exactly-once semantics.
//
// Checkpointable state follows the live-migration rule: stateless, or a
// registered fully-exported struct. Operations must be deterministic
// functions of (state, input) for re-execution to converge, and collector
// stages (merges, streams) should be placed on the master node, whose
// death is unrecoverable (it hosts calls, the checkpoint store and the
// recovery coordinator). Zero disables the layer entirely — the token hot
// paths and wire formats are then untouched.
func WithCheckpoint(interval time.Duration) Option {
	return func(c *config) error {
		if interval < 0 {
			return fmt.Errorf("dps: negative checkpoint interval %v", interval)
		}
		c.engine.Checkpoint = interval
		return nil
	}
}

// WithFailureDetect adds active liveness probing to the fault-tolerance
// layer: the master node probes every peer at this interval and a failing
// probe declares the peer suspect, triggering automatic failover. Without
// it, detection is passive (transport send errors of real traffic) or
// external (kernel heartbeats calling FailNode). Requires WithCheckpoint.
func WithFailureDetect(interval time.Duration) Option {
	return func(c *config) error {
		if interval < 0 {
			return fmt.Errorf("dps: negative failure-detect interval %v", interval)
		}
		c.engine.FailureDetect = interval
		return nil
	}
}

// WithSuspectGrace sets the detector's suspect→confirm grace window: a
// failing transport send (real traffic and WithFailureDetect probes alike)
// is retried with capped exponential backoff and jitter for up to this
// window before the destination may be declared dead. Transient faults — a
// peer process restarting, a refused dial, a partition that heals — are
// absorbed by the retries and never trigger a failover; a real crash
// exhausts the window and recovers as usual, delayed by at most the grace.
// Requires WithCheckpoint (without the recovery layer there is no detector
// to grace). Zero keeps the immediate-suspect behaviour.
func WithSuspectGrace(window time.Duration) Option {
	return func(c *config) error {
		if window < 0 {
			return fmt.Errorf("dps: negative suspect grace %v", window)
		}
		c.engine.SuspectGrace = window
		return nil
	}
}

// WithBatch turns on per-destination token coalescing on the wire path:
// outbound tokens and group-ends bound for the same node accumulate into
// one batch frame, flushed when it fills (maxBytes payload bytes or
// maxTokens entries), when delay elapses, or immediately when a
// latency-sensitive message (call result, ack, fence, checkpoint) needs the
// lane. With fault tolerance on, per-token sequence stamps fold into one
// batch header, collapsing the per-token framing overhead of bulk streams.
// Zero values select the engine defaults. Off by default: without this
// option every wire frame is byte-identical to the unbatched engine.
func WithBatch(maxBytes, maxTokens int, delay time.Duration) Option {
	return func(c *config) error {
		if maxBytes < 0 || maxTokens < 0 || delay < 0 {
			return fmt.Errorf("dps: negative batch bound (%d bytes, %d tokens, %v)", maxBytes, maxTokens, delay)
		}
		c.engine.Batch = true
		c.engine.BatchMaxBytes = maxBytes
		c.engine.BatchMaxTokens = maxTokens
		c.engine.BatchDelay = delay
		return nil
	}
}

// WithCompression DEFLATE-compresses batch frame bodies that shrink
// (incompressible payloads ride raw). Requires WithBatch — unbatched frames
// are never compressed.
func WithCompression() Option {
	return func(c *config) error {
		c.engine.Compress = true
		return nil
	}
}

// WithTraceSampling enables per-token distributed tracing for the given
// fraction of graph calls (0 traces nothing, 1 traces every call). A
// sampled call's trace ID (its call ID) rides its envelopes across splits,
// merges, node boundaries, migrations and failover replays; each node
// buffers the spans it observes (App.TraceSpans assembles the timeline).
// Unsampled calls pay one predicted branch per potential span site and
// allocate nothing; with rate zero the wire format is byte-identical to an
// untraced engine.
func WithTraceSampling(rate float64) Option {
	return func(c *config) error {
		if rate < 0 || rate > 1 {
			return fmt.Errorf("dps: trace sampling rate %v outside [0, 1]", rate)
		}
		c.engine.TraceSample = rate
		return nil
	}
}

// WithForceSerialize marshals and unmarshals tokens even for same-node
// transfers, exercising the full networking path inside one process — the
// paper's several-kernels-per-host debugging mode.
func WithForceSerialize(on bool) Option {
	return func(c *config) error {
		c.engine.ForceSerialize = on
		return nil
	}
}

// WithRegistry selects the token type registry; the process-wide default
// registry is used otherwise.
func WithRegistry(r *Registry) Option {
	return func(c *config) error {
		c.engine.Registry = r
		return nil
	}
}
