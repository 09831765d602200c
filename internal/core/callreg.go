package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// ErrOverload is returned by graph calls shed at admission: the application's
// in-flight call budget (Config.MaxInFlightCalls) is exhausted and admitting
// another call would queue it without bound instead of executing it. Callers
// are expected to back off and retry (or surface 429/Retry-After at an
// ingress); the call had no effect — no entry token was posted.
var ErrOverload = errors.New("dps: overloaded: in-flight call budget exhausted")

// DefaultCallShards is the pending-call registry's lock striping. Wide
// enough that 10k concurrent callers spread registration, completion and
// context lookups over independent locks instead of convoying on one mutex;
// small enough that sweeping every shard (Close, replaceMapping's swap check)
// stays cheap. A power of two, so the stripe pick is a mask.
const DefaultCallShards = 32

// callShard is one stripe of the pending-call table. The shard lock is what
// callMu used to be, scoped to the IDs that hash here: entry removal and the
// canceled-ID record mutate under it so settlers of the same call observe
// them atomically (see cancel and complete).
type callShard struct {
	mu    sync.Mutex
	calls map[uint64]*callEntry
	// Pad to a cache line so neighbouring shard locks don't false-share
	// under saturation (mutex 8B + map header 8B → 48B of padding).
	_ [48]byte
	// lat accumulates the wall time (admission to result delivery) of the
	// calls completed on this shard, under mu — the lock completion already
	// holds. Merged across shards by App.CallLatency for /metrics.
	lat trace.Hist
}

// callRegistry is the sharded pending-call table: one stripe per ID residue
// class. Call IDs are sequential (callSeq), so consecutive registrations
// stripe round-robin across shards and concurrent callers contend only when
// they collide on the same residue.
type callRegistry struct {
	shards [DefaultCallShards]callShard
	// pending counts in-flight calls across all shards (registered and not
	// yet settled). It is the admission fast path — one atomic, no locks —
	// and is therefore maintained outside the shard locks: exact for
	// admission accounting, while instantaneous per-shard membership is
	// owned by the shard maps.
	pending atomic.Int64
}

// initCallRegistry allocates the shard maps.
func (r *callRegistry) initCallRegistry() {
	for i := range r.shards {
		r.shards[i].calls = make(map[uint64]*callEntry)
	}
}

func (r *callRegistry) shard(id uint64) *callShard {
	return &r.shards[id%DefaultCallShards]
}

// drainAll empties every shard and returns the evicted entries (application
// failure/close: all pending calls abort). Each shard gets a fresh map so a
// racing settler finds nothing rather than a half-swept table.
func (r *callRegistry) drainAll() []*callEntry {
	var all []*callEntry
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		evicted := sh.calls
		sh.calls = make(map[uint64]*callEntry)
		sh.mu.Unlock()
		for _, ce := range evicted {
			all = append(all, ce)
		}
	}
	r.pending.Add(-int64(len(all)))
	return all
}

// lockAll takes every shard lock in index order (the registry's only
// multi-shard lock order, so sweeps can't deadlock against each other);
// unlockAll releases them. Used by the placement-swap check, which must see
// a consistent cross-shard view of the pending count.
func (r *callRegistry) lockAll() {
	for i := range r.shards {
		r.shards[i].mu.Lock()
	}
}

func (r *callRegistry) unlockAll() {
	for i := range r.shards {
		r.shards[i].mu.Unlock()
	}
}

// pendingLocked sums the shard populations; callers hold all shard locks.
func (r *callRegistry) pendingLocked() int {
	n := 0
	for i := range r.shards {
		n += len(r.shards[i].calls)
	}
	return n
}

// callEntries recycles settled synchronous-call entries. Settlement is keyed
// by call ID — unique for the application's lifetime (random origin, never
// reused) — so a stale watcher or late result looks the ID up and finds
// nothing; it can never reach a recycled entry. Exactly one settler removes
// an entry from its shard and sends exactly one result on the buffered
// channel, so after the synchronous caller has received, nothing else holds
// the entry and CallFrom may recycle it. Async callers keep the channel, so
// their entries are never recycled (see recycleCallEntry).
var callEntries = sync.Pool{
	New: func() any { return &callEntry{ch: make(chan CallResult, 1)} },
}

func getCallEntry(ctx context.Context, rt *Runtime) *callEntry {
	ce := callEntries.Get().(*callEntry)
	ce.ctx = ctx
	ce.rt = rt
	return ce
}

// recycleCallEntry returns a settled entry to the pool after the synchronous
// caller consumed its result. The channel drain is a belt against a
// double-send bug upstream: a retained buffered value must never leak into
// the next call.
func recycleCallEntry(ce *callEntry) {
	ce.ctx = nil
	ce.stop = nil
	ce.rt = nil
	ce.start = 0
	ce.sampled = false
	select {
	case <-ce.ch:
	default:
	}
	callEntries.Put(ce)
}

// PendingCalls reports the number of in-flight graph calls (registered and
// not yet settled) across all registry shards. It is exact — the shard maps
// are consulted under their locks — making it suitable for drain assertions
// and ingress health endpoints; the admission fast path uses the atomic
// pending counter instead.
func (app *App) PendingCalls() int {
	app.callreg.lockAll()
	defer app.callreg.unlockAll()
	//dpsvet:ignore lockheld lockAll above takes every shard lock; the rule cannot see through the loop
	return app.callreg.pendingLocked()
}
