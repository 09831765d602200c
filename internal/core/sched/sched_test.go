package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- FIFOLock ------------------------------------------------------------

func TestFIFOLockMutualExclusion(t *testing.T) {
	var l FIFOLock
	var inCrit atomic.Int32
	var max atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				l.Lock()
				if v := inCrit.Add(1); v > max.Load() {
					max.Store(v)
				}
				inCrit.Add(-1)
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if max.Load() > 1 {
		t.Fatalf("mutual exclusion violated: %d goroutines in critical section", max.Load())
	}
}

func TestFIFOLockOrder(t *testing.T) {
	var l FIFOLock
	l.Lock()
	const n = 20
	order := make([]int, 0, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	tickets := make([]Ticket, n)
	// Reserve in a known order while the lock is held.
	for i := 0; i < n; i++ {
		tickets[i] = l.Reserve()
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tickets[i].Wait()
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			l.Unlock()
		}(i)
	}
	l.Unlock()
	wg.Wait()
	for i, v := range order {
		if v != i {
			t.Fatalf("reservation order violated: %v", order)
		}
	}
}

func TestFIFOLockUnlockUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var l FIFOLock
	l.Unlock()
}

func TestFIFOLockImmediateGrant(t *testing.T) {
	var l FIFOLock
	done := make(chan struct{})
	go func() {
		l.Lock()
		l.Unlock()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("uncontended lock did not grant")
	}
}

// --- Scheduler -----------------------------------------------------------

// TestOrderDirect pushes items through one instance with an engine-style
// runner (wait ticket, record, unlock) and checks execution order matches
// enqueue order.
func TestOrderDirect(t *testing.T) {
	const n = 1000
	var mu sync.Mutex
	var got []int
	var wg sync.WaitGroup
	var inst *Instance[int]
	s := New(Config{}, func(it int, tk Ticket, fromDrainer bool) bool {
		tk.Wait()
		mu.Lock()
		got = append(got, it)
		mu.Unlock()
		inst.Unlock()
		wg.Done()
		return fromDrainer
	})
	inst = s.NewInstance(7)
	wg.Add(n)
	for i := 0; i < n; i++ {
		inst.Enqueue(i)
	}
	wg.Wait()
	for i, v := range got {
		if v != i {
			t.Fatalf("order violated at %d: got %v", i, got[i])
		}
	}
}

// TestRelinquishKeepsQueueDraining checks the drainer handoff: while an
// item is blocked mid-execution (after relinquishing, like a stalled
// split), later items of the same instance must keep running.
func TestRelinquishKeepsQueueDraining(t *testing.T) {
	release := make(chan struct{})
	otherRan := make(chan struct{})
	blockerDone := make(chan struct{})
	var inst *Instance[string]
	s := New(Config{}, func(it string, tk Ticket, fromDrainer bool) bool {
		tk.Wait()
		if it == "blocker" {
			// A blocking operation: hand the role off, release the
			// execution lock, wait, reacquire, finish.
			if fromDrainer {
				inst.Relinquish()
				fromDrainer = false
			}
			inst.Unlock()
			<-release
			inst.Lock()
			inst.Unlock()
			close(blockerDone)
			return fromDrainer
		}
		inst.Unlock()
		close(otherRan)
		return fromDrainer
	})
	inst = s.NewInstance(0)
	inst.Enqueue("blocker")
	inst.Enqueue("other")
	select {
	case <-otherRan:
	case <-time.After(5 * time.Second):
		t.Fatal("queue stalled behind a blocked operation")
	}
	close(release)
	select {
	case <-blockerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked operation never resumed")
	}
	if s.Stats().Handoffs == 0 {
		t.Fatal("expected a recorded drainer handoff")
	}
}

// TestQueueHighWater checks the depth counter rises with queued work.
func TestQueueHighWater(t *testing.T) {
	gate := make(chan struct{})
	var wg sync.WaitGroup
	var inst *Instance[int]
	s := New(Config{}, func(it int, tk Ticket, fromDrainer bool) bool {
		tk.Wait()
		<-gate
		inst.Unlock()
		wg.Done()
		return fromDrainer
	})
	inst = s.NewInstance(0)
	const n = 10
	wg.Add(n)
	for i := 0; i < n; i++ {
		inst.Enqueue(i)
	}
	close(gate)
	wg.Wait()
	if hw := s.Stats().QueueHighWater; hw < 2 {
		t.Fatalf("queue high-water %d, want >= 2", hw)
	}
}

// TestBacklogStaysQueued holds one instance's execution lock and enqueues
// a deep backlog: every item must wait in the queue, visible to Pending,
// at no goroutine per item, and must run in enqueue order once the lock
// frees.
func TestBacklogStaysQueued(t *testing.T) {
	const n = 4096
	var mu sync.Mutex
	var got []int
	var wg sync.WaitGroup
	var inst *Instance[int]
	s := New(Config{}, func(it int, tk Ticket, fromDrainer bool) bool {
		tk.Wait()
		mu.Lock()
		got = append(got, it)
		mu.Unlock()
		inst.Unlock()
		wg.Done()
		return fromDrainer
	})
	inst = s.NewInstance(0)
	inst.Lock() // an earlier operation holds the execution lock
	before := runtime.NumGoroutine()
	wg.Add(n)
	for i := 0; i < n; i++ {
		inst.Enqueue(i)
	}
	// The drainer pops the head and parks on its ticket; the rest stays
	// queued.
	deadline := time.Now().Add(5 * time.Second)
	for s.Pending() != n-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if p := s.Pending(); p != n-1 {
		t.Fatalf("Pending() = %d with %d items behind a held lock, want %d", p, n, n-1)
	}
	if grew := runtime.NumGoroutine() - before; grew > 8 {
		t.Fatalf("backlog of %d items grew the goroutine count by %d", n, grew)
	}
	inst.Unlock()
	wg.Wait()
	if p := s.Pending(); p != 0 {
		t.Fatalf("Pending() = %d after the backlog drained", p)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("backlog ran out of order at %d: %v", i, got[:i+1])
		}
	}
}
