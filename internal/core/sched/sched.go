// Package sched is the intra-node scheduling layer of the DPS engine: it
// owns the per-thread-instance dispatch queues, the FIFO execution tickets
// that keep operation executions in token-arrival order, and the drainer
// goroutines that pop queued executions and run them.
//
// Each instance with queued work has one on-demand drainer goroutine. The
// paper's progress-while-stalled semantics hold: an operation that is about
// to block relinquishes the drainer role first (Instance.Relinquish), so
// queued executions keep flowing while it waits. Per-instance FIFO ordering
// is guaranteed by the tickets, which are reserved under the queue lock at
// enqueue time: queue order and lock grant order always agree.
//
// The dispatch queues are unbounded. Tokens in flight are bounded upstream,
// by each split's flow-control window and the engine's admission budget, so
// a queued entry (an item and its ticket) is all a backlog costs here.
package sched

import (
	"sync"
	"sync/atomic"
)

// Config tunes a Scheduler. The single execution path has no knobs; the
// empty type keeps New's signature stable for existing callers.
type Config struct{}

// RunFunc executes one queued item. tk is the item's FIFO execution ticket
// (the runner waits on it before entering the operation body); fromDrainer
// reports whether the calling goroutine holds the item's instance drainer
// role, and the return value reports whether it still does afterwards (an
// operation that blocked mid-execution hands the role off and returns
// false).
type RunFunc[T any] func(it T, tk Ticket, fromDrainer bool) bool

// Stats are cumulative counters of one scheduler.
type Stats struct {
	// QueueHighWater is the deepest per-instance dispatch queue observed.
	QueueHighWater int64
	// Handoffs counts drainer-role handoffs (an operation blocked and
	// relinquished the role before waiting).
	Handoffs int64
}

// Scheduler dispatches work items onto per-instance FIFO queues, each
// drained by its own on-demand goroutine.
type Scheduler[T any] struct {
	run RunFunc[T]

	queueHighWater atomic.Int64
	handoffs       atomic.Int64
	pending        atomic.Int64
}

// entry is one queued execution with its pre-reserved ticket.
type entry[T any] struct {
	it T
	tk Ticket
}

// Instance is the scheduling state of one thread instance: its dispatch
// queue and the FIFO lock serializing the operation bodies that run on it.
type Instance[T any] struct {
	sched *Scheduler[T]

	lock FIFOLock

	mu       sync.Mutex
	queue    []entry[T]
	draining bool // a goroutine owns the right to pop this queue
}

// New creates a scheduler executing items with run.
func New[T any](cfg Config, run RunFunc[T]) *Scheduler[T] {
	s := new(Scheduler[T])
	s.Init(run)
	return s
}

// Init initializes an embedded (zero-valued) scheduler in place.
func (s *Scheduler[T]) Init(run RunFunc[T]) {
	s.run = run
}

// Stats returns a snapshot of the scheduler's counters.
func (s *Scheduler[T]) Stats() Stats {
	return Stats{
		QueueHighWater: s.queueHighWater.Load(),
		Handoffs:       s.handoffs.Load(),
	}
}

// Pending reports the number of items currently sitting in the scheduler's
// dispatch queues: enqueued but not yet popped by a drainer. A live
// saturation gauge (not a cumulative counter) for exporters.
func (s *Scheduler[T]) Pending() int64 {
	return s.pending.Load()
}

// NewInstance creates an instance. The key is accepted for source
// compatibility and does not affect scheduling.
func (s *Scheduler[T]) NewInstance(key int) *Instance[T] {
	inst := new(Instance[T])
	s.InitInstance(inst)
	return inst
}

// InitInstance initializes an embedded (zero-valued) instance in place,
// avoiding a separate allocation for containers that hold one per thread.
func (s *Scheduler[T]) InitInstance(inst *Instance[T]) {
	inst.sched = s
}

// Lock acquires the instance's FIFO execution lock with a fresh reservation,
// behind every already-queued ticket. It is the reacquire half of a blocking
// point; the drainer role is deliberately not re-taken.
func (inst *Instance[T]) Lock() { inst.lock.Lock() }

// Unlock releases the instance's FIFO execution lock.
func (inst *Instance[T]) Unlock() { inst.lock.Unlock() }

// Enqueue reserves the execution ticket and queues the item, spawning a
// drainer if no goroutine currently holds the instance's drainer role.
func (inst *Instance[T]) Enqueue(it T) {
	s := inst.sched
	inst.mu.Lock()
	inst.queue = append(inst.queue, entry[T]{it: it, tk: inst.lock.Reserve()})
	s.pending.Add(1)
	s.noteDepth(int64(len(inst.queue)))
	spawn := !inst.draining
	inst.draining = true
	inst.mu.Unlock()
	if spawn {
		go s.drainLoop(inst)
	}
}

// Relinquish hands the drainer role off before the holder blocks: queued
// work continues on another goroutine, an empty queue just releases the role
// for the next enqueue. Callers must invoke it before releasing the
// instance's execution lock at a blocking point, and only while they hold
// the drainer role.
func (inst *Instance[T]) Relinquish() {
	s := inst.sched
	s.handoffs.Add(1)
	inst.mu.Lock()
	if len(inst.queue) == 0 {
		inst.draining = false
		inst.mu.Unlock()
		return
	}
	inst.mu.Unlock()
	go s.drainLoop(inst)
}

// drainLoop pops queued executions of one instance and runs them inline,
// starting with the drainer role held. It returns once the queue is empty,
// or once the calling goroutine lost the role to a successor (an operation
// blocked mid-execution and handed it off).
func (s *Scheduler[T]) drainLoop(inst *Instance[T]) {
	for {
		inst.mu.Lock()
		if len(inst.queue) == 0 {
			inst.draining = false
			inst.mu.Unlock()
			return
		}
		e := inst.queue[0]
		inst.queue[0] = entry[T]{}
		inst.queue = inst.queue[1:]
		inst.mu.Unlock()
		s.pending.Add(-1)
		if s.run(e.it, e.tk, true) {
			continue
		}
		// The operation blocked and handed the role off: reclaim it unless
		// the successor drainer is still active.
		inst.mu.Lock()
		if inst.draining {
			inst.mu.Unlock()
			return
		}
		inst.draining = true
		inst.mu.Unlock()
	}
}

// noteDepth records a queue-depth observation in the high-water mark.
func (s *Scheduler[T]) noteDepth(depth int64) {
	for {
		cur := s.queueHighWater.Load()
		if depth <= cur || s.queueHighWater.CompareAndSwap(cur, depth) {
			return
		}
	}
}
