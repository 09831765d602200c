package core

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core/flowctl"
	"repro/internal/core/ft"
	"repro/internal/serial"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// Config tunes an application's runtime behaviour.
type Config struct {
	// Window bounds the number of tokens in circulation per split–merge
	// pair (the paper's flow-control feedback). Zero selects DefaultWindow.
	// It parameterizes the default flowctl.Window policy and is ignored
	// when FlowPolicy is set explicitly.
	Window int
	// FlowPolicy selects the flow-control discipline applied to each split
	// group; nil selects flowctl.Window{N: Window}.
	FlowPolicy flowctl.Policy
	// ForceSerialize marshals and unmarshals tokens even for same-node
	// transfers, exercising the full networking path inside one process —
	// the paper's several-kernels-per-host debugging mode.
	ForceSerialize bool
	// RemapDrain bounds the quiesce phase of live thread migrations
	// (ThreadCollection.Remap) when the caller's context carries no
	// deadline; zero waits indefinitely.
	RemapDrain time.Duration
	// Checkpoint enables the fault-tolerance layer (internal/core/ft) and
	// sets the interval at which thread instances checkpoint their state:
	// tokens are sequenced and retained for replay, receivers filter
	// duplicates, and a node declared dead (FailNode, transport send
	// errors, liveness probes, kernel heartbeats) has its threads restored
	// from their newest checkpoints on the surviving nodes with
	// exactly-once execution semantics. Zero disables the layer entirely;
	// the token hot paths and wire formats are then untouched.
	Checkpoint time.Duration
	// FailureDetect adds active liveness probing to the fault-tolerance
	// layer: the master node sends a tiny probe to every peer at this
	// interval and a failing probe send declares the peer suspect. Zero
	// relies on passive detection (send errors of real traffic) and
	// external detectors (kernel heartbeats calling FailNode). Ignored
	// unless Checkpoint is set (the dps façade rejects the combination).
	FailureDetect time.Duration
	// Batch turns on per-destination token coalescing on the wire path:
	// outbound tokens and group-ends bound for the same node accumulate
	// into one batch frame (msgBatch), flushed when it reaches BatchMaxBytes
	// or BatchMaxTokens, when BatchDelay elapses, or when a
	// latency-sensitive message (result, ack, fence, checkpoint, ...) needs
	// the lane. Off by default: with Batch false no msgBatch frame is ever
	// emitted and every wire frame stays byte-identical to the unbatched
	// engine.
	Batch bool
	// BatchMaxBytes bounds one batch frame's payload bytes; zero selects
	// DefaultBatchMaxBytes.
	BatchMaxBytes int
	// BatchMaxTokens bounds the entries coalesced into one batch frame;
	// zero selects DefaultBatchMaxTokens.
	BatchMaxTokens int
	// BatchDelay bounds how long a non-full batch may wait for more
	// traffic; zero selects DefaultBatchDelay.
	BatchDelay time.Duration
	// Compress DEFLATE-compresses batch frame bodies that shrink (counted
	// by Stats.CompressedBytes/UncompressedBytes). Requires Batch; it has
	// no effect on unbatched frames.
	Compress bool
	// MaxInFlightCalls is the admission budget: the number of graph calls
	// that may be pending (registered and unsettled) at any moment across
	// the application. At the budget new calls are shed at admission with
	// ErrOverload before any entry token posts — graceful degradation
	// instead of unbounded queueing. It transitively bounds the engine's
	// queues too: each admitted call contributes at most its flow-control
	// window of tokens. Zero admits everything.
	MaxInFlightCalls int
	// TraceSample enables per-token distributed tracing: each admitted call
	// is sampled with this probability (0..1), and a sampled call's
	// envelopes carry its trace ID — the call ID — across splits, merges,
	// batched lanes, migrations and failover replays, while every runtime
	// they touch records spans into its ring buffer (App.TraceSpans).
	// Unsampled calls pay one comparison per span point and nothing else,
	// and the wire stays byte-identical: only sampled envelopes travel in
	// the msgTraced wrapper (wire.go). Zero disables tracing entirely.
	TraceSample float64
	// SuspectGrace turns "first send error = death" into graceful
	// degradation: a failing transport send (including liveness probes) is
	// retried with capped exponential backoff and jitter for up to this
	// window before the failure detector may declare the destination
	// suspect. Transient faults — a peer restarting, a partition that
	// heals, an injected send error — are absorbed by the retries; a real
	// crash exhausts the window and fails over as before, delayed by at
	// most the grace. Zero keeps the immediate-suspect behaviour.
	SuspectGrace time.Duration
	// Registry is the token type registry; nil selects serial.DefaultRegistry.
	Registry *serial.Registry
}

// DefaultWindow is the default per-split flow-control window.
const DefaultWindow = flowctl.DefaultWindow

func (c Config) window() int {
	if c.Window > 0 {
		return c.Window
	}
	return DefaultWindow
}

func (c Config) flowPolicy() flowctl.Policy {
	if c.FlowPolicy != nil {
		return c.FlowPolicy
	}
	return flowctl.Window{N: c.window()}
}

func (c Config) registry() *serial.Registry {
	if c.Registry != nil {
		return c.Registry
	}
	return serial.DefaultRegistry
}

// App is a DPS application: a set of node runtimes plus the thread
// collections and flow graphs defined on them. In the paper each node runs
// an instance of the application process; here an App owns one Runtime per
// cluster node, attached to a shared transport fabric (in-process,
// simulated network, or TCP).
type App struct {
	cfg Config
	reg *serial.Registry

	mu          sync.Mutex
	runtimes    map[string]*Runtime
	nodeOrder   []string
	collections map[string]*ThreadCollection
	graphs      map[string]*Flowgraph

	callSeq atomic.Uint64
	// callreg is the sharded pending-call table (callreg.go): registration,
	// completion, cancellation and context lookups lock only the shard the
	// call ID stripes to, so concurrent callers don't convoy on one mutex.
	callreg callRegistry
	// canceled holds the IDs of calls whose context fired before the result
	// arrived (sync.Map: written once per cancellation, read lock-free on
	// the token hot paths). In-flight tokens of these calls are dropped —
	// with their flow-control accounting released — wherever the engine
	// next touches them. An ID is reaped when the graph still produces the
	// orphaned result; a call whose tokens were all dropped before reaching
	// the exit retains its 8-byte ID for the application's lifetime, the
	// price of not tracking per-call in-flight counts.
	canceled sync.Map
	// cancelActive counts outstanding canceled IDs: while zero — the
	// overwhelmingly common case — the hot paths skip the map entirely.
	cancelActive atomic.Int64

	failErr atomic.Value // errBox
	closed  atomic.Bool

	// migrateMu serializes live thread migrations; migrActive switches the
	// token posting paths from the lock-free fast route onto the per-key
	// route locks once the first migration starts (sticky; the in-flight
	// fast-path counts live on each Runtime — see migrate.go).
	migrateMu  sync.Mutex
	migrActive atomic.Int32

	// Fault-tolerance layer (Config.Checkpoint; see ftengine.go). ftOn is
	// immutable after NewApp; the goroutines start lazily via ftOnce.
	ftOn       bool
	ftDead     ft.Detector
	ftOnce     sync.Once
	ftStop     chan struct{}
	ftSuspects chan string
	ftCkptSeq  atomic.Uint64

	cleanup []func()
}

// CallResult is the outcome of one flow-graph invocation.
type CallResult struct {
	Value Token
	Err   error
}

// callEntry is one pending flow-graph invocation: the channel the result is
// delivered on, the caller's context (consulted by blocking engine points so
// cancellation unwinds in-flight work), the context watcher to detach once
// the call settles, and the origin runtime (where admission and expiry are
// attributed in Stats). Entries of synchronous calls are pooled; see
// callEntries in callreg.go for the ownership argument.
type callEntry struct {
	ch   chan CallResult
	ctx  context.Context
	stop func() bool
	rt   *Runtime
	// start is the admission clock (unix ns) backing the call-latency
	// histogram; sampled marks the call for distributed tracing
	// (Config.TraceSample), stamping its envelopes with the call ID.
	start   int64
	sampled bool
}

// NewApp creates an application with no nodes; attach transports with
// AttachTransport or use the NewLocalApp / NewSimApp conveniences.
func NewApp(cfg Config) *App {
	app := &App{
		cfg:         cfg,
		reg:         cfg.registry(),
		runtimes:    make(map[string]*Runtime),
		collections: make(map[string]*ThreadCollection),
		graphs:      make(map[string]*Flowgraph),
		ftOn:        cfg.Checkpoint > 0,
	}
	app.callreg.initCallRegistry()
	// Call IDs travel in token envelopes and are consulted on every
	// receiving node (cancellation drops). In a multi-process deployment
	// (TCP kernels) each process runs its own App; sequential IDs starting
	// at 1 would collide across processes and a canceled local call could
	// shadow a healthy remote one. A random starting point makes the ID
	// namespace effectively unique per App instance.
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err == nil {
		app.callSeq.Store(binary.LittleEndian.Uint64(seed[:]))
	}
	return app
}

// NewLocalApp creates an application whose nodes communicate through an
// in-process fabric with no modelled cost (the paper's single-host mode).
func NewLocalApp(cfg Config, nodeNames ...string) (*App, error) {
	app := NewApp(cfg)
	fabric := transport.NewInproc()
	for _, name := range nodeNames {
		n, err := fabric.Node(name)
		if err != nil {
			return nil, err
		}
		if _, err := app.AttachTransport(n); err != nil {
			return nil, err
		}
	}
	app.cleanup = append(app.cleanup, fabric.Close)
	return app, nil
}

// NewSimApp creates an application whose nodes are attached to a simulated
// cluster network; tokens crossing nodes are serialized and pay the
// modelled NIC and latency costs.
func NewSimApp(cfg Config, net *simnet.Network, nodeNames ...string) (*App, error) {
	app := NewApp(cfg)
	for _, name := range nodeNames {
		nd, err := net.AddNode(name)
		if err != nil {
			return nil, err
		}
		if _, err := app.AttachTransport(transport.NewSimNode(nd)); err != nil {
			return nil, err
		}
	}
	return app, nil
}

// AttachTransport adds a cluster node to the application. The transport's
// Local() name becomes the node name used in mapping strings.
func (app *App) AttachTransport(tr transport.Transport) (*Runtime, error) {
	app.mu.Lock()
	defer app.mu.Unlock()
	name := tr.Local()
	if _, ok := app.runtimes[name]; ok {
		return nil, fmt.Errorf("dps: node %q already attached", name)
	}
	rt := newRuntime(app, tr, len(app.nodeOrder))
	app.runtimes[name] = rt
	app.nodeOrder = append(app.nodeOrder, name)
	tr.SetHandler(rt.lnk.handle)
	return rt, nil
}

// NodeNames lists the application's nodes in attachment order.
func (app *App) NodeNames() []string {
	app.mu.Lock()
	defer app.mu.Unlock()
	return append([]string(nil), app.nodeOrder...)
}

// MasterNode returns the first attached node, conventionally hosting main
// threads and graph calls.
func (app *App) MasterNode() string {
	app.mu.Lock()
	defer app.mu.Unlock()
	if len(app.nodeOrder) == 0 {
		return ""
	}
	return app.nodeOrder[0]
}

// Graph returns a registered flow graph by name (the paper's named graphs,
// reusable by other applications).
func (app *App) Graph(name string) (*Flowgraph, bool) {
	app.mu.Lock()
	defer app.mu.Unlock()
	g, ok := app.graphs[name]
	return g, ok
}

// Collection returns a registered thread collection by name.
func (app *App) Collection(name string) (*ThreadCollection, bool) {
	app.mu.Lock()
	defer app.mu.Unlock()
	tc, ok := app.collections[name]
	return tc, ok
}

// errBox gives atomic.Value a consistent concrete type regardless of the
// stored error's dynamic type.
type errBox struct{ err error }

// Err reports the first unrecoverable runtime error, if any.
func (app *App) Err() error {
	if v := app.failErr.Load(); v != nil {
		return v.(errBox).err
	}
	return nil
}

// Close shuts the application down. Pending calls fail.
func (app *App) Close() {
	if app.closed.Swap(true) {
		return
	}
	app.ftStopAll()
	app.fail(fmt.Errorf("dps: application closed"))
	app.mu.Lock()
	rts := make([]*Runtime, 0, len(app.runtimes))
	for _, rt := range app.runtimes {
		rts = append(rts, rt)
	}
	cleanup := app.cleanup
	app.mu.Unlock()
	for _, rt := range rts {
		_ = rt.lnk.tr.Close()
	}
	for _, f := range cleanup {
		f()
	}
}

// fail records the first unrecoverable error, aborts all pending calls and
// wakes blocked operations so they unwind.
func (app *App) fail(err error) {
	app.failErr.CompareAndSwap(nil, errBox{err: err})
	first := app.Err()
	// ce.stop is written under the entry's shard lock (setCallStop);
	// drainAll holds each shard lock while evicting, so the reads here — on
	// entries no settler can reach any more — are ordered after the writes.
	pending := app.callreg.drainAll()
	for _, ce := range pending {
		if ce.stop != nil {
			ce.stop()
		}
	}
	for _, ce := range pending {
		select {
		case ce.ch <- CallResult{Err: first}:
		default:
		}
	}
	app.mu.Lock()
	rts := make([]*Runtime, 0, len(app.runtimes))
	for _, rt := range app.runtimes {
		rts = append(rts, rt)
	}
	app.mu.Unlock()
	for _, rt := range rts {
		rt.wakeBlocked()
	}
}

func (app *App) addCollection(tc *ThreadCollection) error {
	app.mu.Lock()
	defer app.mu.Unlock()
	if _, ok := app.collections[tc.name]; ok {
		return fmt.Errorf("dps: collection %q already exists", tc.name)
	}
	app.collections[tc.name] = tc
	return nil
}

func (app *App) addGraph(g *Flowgraph) error {
	app.mu.Lock()
	defer app.mu.Unlock()
	if _, ok := app.graphs[g.name]; ok {
		return fmt.Errorf("dps: graph %q already exists", g.name)
	}
	app.graphs[g.name] = g
	return nil
}

func (app *App) hasNode(name string) bool {
	app.mu.Lock()
	defer app.mu.Unlock()
	_, ok := app.runtimes[name]
	return ok
}

func (app *App) runtime(name string) (*Runtime, bool) {
	app.mu.Lock()
	defer app.mu.Unlock()
	rt, ok := app.runtimes[name]
	return rt, ok
}

// allRuntimes snapshots every node runtime in attachment order.
func (app *App) allRuntimes() []*Runtime {
	app.mu.Lock()
	defer app.mu.Unlock()
	rts := make([]*Runtime, 0, len(app.nodeOrder))
	for _, name := range app.nodeOrder {
		rts = append(rts, app.runtimes[name])
	}
	return rts
}

// replaceMapping swaps a collection's placement wholesale, rejecting the
// swap while calls execute. The check and the swap happen with every
// registry shard locked — the locks call registration takes — so a call
// racing the remap either registers first (lands in its shard before the
// sweep, and the swap is rejected) or registers after the new table is in
// place and routes consistently; no call can resolve half its tokens
// against each placement.
func (app *App) replaceMapping(tc *ThreadCollection, nodes []string) error {
	app.callreg.lockAll()
	defer app.callreg.unlockAll()
	//dpsvet:ignore lockheld lockAll above takes every shard lock; the rule cannot see through the loop
	if tc.place.Len() > 0 && app.callreg.pendingLocked() > 0 {
		return fmt.Errorf("dps: collection %q: cannot replace the mapping while calls are executing; use Remap for a live migration", tc.name)
	}
	tc.place.Set(nodes)
	return nil
}

// registerCall admits and registers a new pending call for the origin
// runtime. Admission is a single atomic add against the in-flight budget
// (Config.MaxInFlightCalls): over budget the add is rolled back and the
// caller gets ErrOverload with nothing registered and nothing posted.
func (app *App) registerCall(ctx context.Context, rt *Runtime) (uint64, *callEntry, error) {
	if max := app.cfg.MaxInFlightCalls; max > 0 {
		if app.callreg.pending.Add(1) > int64(max) {
			app.callreg.pending.Add(-1)
			rt.stats.callsRejected.Add(1)
			return 0, nil, ErrOverload
		}
	} else {
		app.callreg.pending.Add(1)
	}
	rt.stats.callsAdmitted.Add(1)
	id := app.callSeq.Add(1)
	ce := getCallEntry(ctx, rt)
	ce.start = time.Now().UnixNano()
	if p := app.cfg.TraceSample; p > 0 && (p >= 1 || mrand.Float64() < p) {
		ce.sampled = true
	}
	sh := app.callreg.shard(id)
	sh.mu.Lock()
	sh.calls[id] = ce //dpsvet:ignore poolown registration transfers ownership to the registry; the settler that removes the entry owns it
	sh.mu.Unlock()
	return id, ce, nil
}

// setCallStop attaches the context watcher to a pending call. If the call
// settled (result, failure or cancellation) while the watcher was being
// created, the watcher is detached immediately instead.
func (app *App) setCallStop(id uint64, stop func() bool) {
	sh := app.callreg.shard(id)
	sh.mu.Lock()
	ce, ok := sh.calls[id]
	if ok {
		ce.stop = stop
	}
	sh.mu.Unlock()
	if !ok {
		stop()
	}
}

func (app *App) completeCall(id uint64, res CallResult) {
	sh := app.callreg.shard(id)
	now := time.Now().UnixNano()
	sh.mu.Lock()
	ce, ok := sh.calls[id]
	delete(sh.calls, id)
	var stop func() bool
	if ok {
		stop = ce.stop
		if ce.start != 0 {
			sh.lat.Add(time.Duration(now - ce.start))
		}
	} else {
		// The orphaned result of a canceled call: reap the cancellation
		// record — no further tokens of this call can be in flight. Under
		// the shard lock, like cancelCall's record store, so the removal
		// and the record appear atomically to this call's other settlers.
		if _, wasCanceled := app.canceled.LoadAndDelete(id); wasCanceled {
			app.cancelActive.Add(-1)
		}
	}
	sh.mu.Unlock()
	if ok {
		app.callreg.pending.Add(-1)
		if stop != nil {
			stop()
		}
		if ce.sampled && ce.rt != nil {
			// Read before the channel send: a synchronous caller may recycle
			// the entry the moment it receives.
			ce.rt.traceSpan(id, "result", "", ce.start, now-ce.start)
		}
		ce.ch <- res
	}
}

// cancelCall aborts a pending call after its context fired: the caller gets
// cause delivered immediately, the entry leaves the pending table, and the
// call ID is recorded so the engine drops (and acknowledges) the call's
// in-flight tokens instead of letting them wedge flow-control windows.
// Blocked executions of the call are woken so they observe the cancellation
// and unwind.
func (app *App) cancelCall(id uint64, cause error) {
	sh := app.callreg.shard(id)
	sh.mu.Lock()
	ce, ok := sh.calls[id]
	if !ok {
		// The result won the race; the call completed normally.
		sh.mu.Unlock()
		return
	}
	delete(sh.calls, id)
	// Mutated under the shard lock (like completeCall's reap) so the entry
	// removal and the cancellation record appear atomically to this call's
	// other settlers — which, keyed by the same ID, use the same shard.
	app.canceled.Store(id, struct{}{})
	app.cancelActive.Add(1)
	sh.mu.Unlock()
	app.callreg.pending.Add(-1)
	if ce.rt != nil && errors.Is(cause, context.DeadlineExceeded) {
		ce.rt.stats.callsExpired.Add(1)
	}
	select {
	case ce.ch <- CallResult{Err: cause}:
	default:
	}
	app.mu.Lock()
	rts := make([]*Runtime, 0, len(app.runtimes))
	for _, rt := range app.runtimes {
		rts = append(rts, rt)
	}
	app.mu.Unlock()
	for _, rt := range rts {
		rt.wakeBlocked()
	}
}

// callAborted reports whether a call was canceled. The fast path is one
// atomic load; the lock-free map is consulted only while canceled calls
// are outstanding, so the token hot paths never touch the registry shards.
func (app *App) callAborted(id uint64) bool {
	if app.cancelActive.Load() == 0 {
		return false
	}
	_, ok := app.canceled.Load(id)
	return ok
}

// callContext returns the context a pending call was registered with, or
// nil when the call is no longer pending (completed or canceled).
func (app *App) callContext(id uint64) context.Context {
	sh := app.callreg.shard(id)
	sh.mu.Lock()
	ce, ok := sh.calls[id]
	var ctx context.Context
	if ok {
		// Read under the shard lock: a pooled entry's ctx is rewritten on
		// reuse, so it must not be loaded after the entry leaves the table.
		ctx = ce.ctx
	}
	sh.mu.Unlock()
	if !ok {
		return nil
	}
	return ctx
}
