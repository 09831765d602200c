package sched

import "sync"

// FIFOLock is a mutual-exclusion lock granting ownership in reservation
// order. DPS serializes the operation bodies executing on one thread; the
// dispatcher reserves a ticket synchronously when a token arrives so that
// executions start in arrival order, even though each may run in its own
// goroutine. Operations release the lock while blocked (merge Next, flow
// controlled Post, graph calls), which reproduces the paper's behaviour of
// a thread whose split is stalled still making progress on its merge.
type FIFOLock struct {
	mu      sync.Mutex
	locked  bool
	waiters []chan struct{}
}

// Ticket is a reservation for the lock.
type Ticket struct {
	ch <-chan struct{}
}

// grantedTicket is the shared already-closed channel returned by
// uncontended reservations, so the dispatch hot path reserves without
// allocating.
var grantedTicket = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Reserve enqueues a reservation. The returned ticket's Wait blocks until
// the lock is owned by the caller.
func (l *FIFOLock) Reserve() Ticket {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.locked && len(l.waiters) == 0 {
		l.locked = true
		return Ticket{ch: grantedTicket}
	}
	ch := make(chan struct{})
	l.waiters = append(l.waiters, ch)
	return Ticket{ch: ch}
}

// Wait blocks until the reservation is granted.
func (t Ticket) Wait() { <-t.ch }

// Lock reserves and waits.
func (l *FIFOLock) Lock() { l.Reserve().Wait() }

// Unlock passes ownership to the oldest waiter, if any.
func (l *FIFOLock) Unlock() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.locked {
		panic("sched: unlock of unlocked FIFOLock")
	}
	if len(l.waiters) > 0 {
		ch := l.waiters[0]
		l.waiters = l.waiters[1:]
		close(ch)
		return
	}
	l.locked = false
}
