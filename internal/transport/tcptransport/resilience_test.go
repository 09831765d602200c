package tcptransport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// TestErrorClassification pins the transient/fatal split Send's retry
// loop and the engine's suspect grace rely on.
func TestErrorClassification(t *testing.T) {
	cases := []struct {
		err       error
		transient bool
	}{
		{nil, false},
		{ErrClosed, false},
		{fmt.Errorf("send: %w", ErrClosed), false},
		{&FatalError{Err: errors.New("unknown node")}, false},
		{fmt.Errorf("wrap: %w", &FatalError{Err: errors.New("unknown node")}), false},
		{errors.New("connection refused"), true},
		{fmt.Errorf("retries exhausted: %w", errors.New("broken pipe")), true},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.transient {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.transient)
		}
	}
}

// TestSendRetriesThroughPeerRestart: the peer vanishes and comes back on
// the same address while a send is in flight; the in-Send redial loop
// must absorb the outage — the caller never sees an error.
func TestSendRetriesThroughPeerRestart(t *testing.T) {
	table := map[string]string{}
	resolver := StaticResolver(table)
	a, err := Listen("a", "127.0.0.1:0", resolver)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	b1, err := Listen("b", "127.0.0.1:0", resolver)
	if err != nil {
		t.Fatal(err)
	}
	table["a"] = a.Addr()
	table["b"] = b1.Addr()
	bAddr := b1.Addr()

	got := make(chan string, 4)
	b1.SetHandler(func(src string, payload []byte) { got <- string(payload) })
	if err := a.Send("b", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	<-got

	// Take the peer down. Sends now fail on the cached conn, then on
	// refused redials — all transient, all inside the retry budget.
	_ = b1.Close()
	sendDone := make(chan error, 1)
	go func() { sendDone <- a.Send("b", []byte("through the restart")) }()

	// Let the sender burn a few refused dials, then restart the peer on
	// the very same address.
	time.Sleep(50 * time.Millisecond)
	var b2 *Node
	for i := 0; ; i++ {
		b2, err = Listen("b", bAddr, resolver)
		if err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("rebind %s: %v", bAddr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Cleanup(func() { _ = b2.Close() })
	b2.SetHandler(func(src string, payload []byte) { got <- string(payload) })

	select {
	case err := <-sendDone:
		if err != nil {
			t.Fatalf("send across the restart surfaced an error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("send never returned")
	}
	select {
	case m := <-got:
		if m != "through the restart" {
			t.Fatalf("got %q", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("payload never arrived at the restarted peer")
	}
	if a.Retries() == 0 {
		t.Fatal("the outage was absorbed without a single recorded retry")
	}
}

// TestSessionEpochsAcrossRestarts: every reconnect of a (restarting)
// sender registers a strictly higher session epoch at the receiver, even
// though the new process knows nothing of the old one's counter.
func TestSessionEpochsAcrossRestarts(t *testing.T) {
	table := map[string]string{}
	resolver := StaticResolver(table)
	b, err := Listen("b", "127.0.0.1:0", resolver)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	table["b"] = b.Addr()
	got := make(chan string, 4)
	b.SetHandler(func(src string, payload []byte) { got <- string(payload) })

	var last uint64
	for i := 0; i < 3; i++ {
		a, err := Listen("a", "127.0.0.1:0", resolver)
		if err != nil {
			t.Fatal(err)
		}
		table["a"] = a.Addr()
		if err := a.Send("b", []byte(fmt.Sprintf("life %d", i))); err != nil {
			t.Fatal(err)
		}
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("send %d never arrived", i)
		}
		epoch := b.SessionEpoch("a")
		if epoch <= last {
			t.Fatalf("restart %d: epoch %d did not grow past %d", i, epoch, last)
		}
		last = epoch
		_ = a.Close() // the next loop iteration is the "restarted" process
	}
}

// TestStaleSessionFramesRejected: frames arriving on a connection whose
// session was superseded by a reconnect are dropped, never delivered
// interleaved with the new session's stream. A hello that carries flags
// after its epoch (the retired prefixed-framing request) is refused outright
// and supersedes nothing.
func TestStaleSessionFramesRejected(t *testing.T) {
	table := map[string]string{}
	resolver := StaticResolver(table)
	b, err := Listen("b", "127.0.0.1:0", resolver)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	table["b"] = b.Addr()
	got := make(chan string, 16)
	b.SetHandler(func(src string, payload []byte) { got <- string(payload) })

	// Hand-rolled client: open a session with epoch 5, then a second
	// connection claiming epoch 6 (the "restarted" process), then try to
	// push another frame down the old epoch-5 socket. flags, if any, trail
	// the epoch varint in the hello.
	dial := func(epoch uint64, flags ...byte) net.Conn {
		c, err := net.Dial("tcp", b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		var eb [binary.MaxVarintLen64]byte
		if err := writeFrame(c, []byte("a")); err != nil {
			t.Fatal(err)
		}
		hello := append(eb[:binary.PutUvarint(eb[:], epoch)], flags...)
		if err := writeFrame(c, hello); err != nil {
			t.Fatal(err)
		}
		return c
	}
	old := dial(5)
	defer old.Close()
	if err := writeFrame(old, []byte("old-1")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m != "old-1" {
			t.Fatalf("got %q", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame on live session dropped")
	}

	fresh := dial(6)
	defer fresh.Close()
	if err := writeFrame(fresh, []byte("new-1")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m != "new-1" {
			t.Fatalf("got %q", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame on new session dropped")
	}

	// The old session is dead; its frames must not surface. (The write may
	// even succeed locally — the receiver discards on read.)
	_ = writeFrame(old, []byte("old-2"))
	select {
	case m := <-got:
		t.Fatalf("stale-session frame %q delivered", m)
	case <-time.After(200 * time.Millisecond):
	}

	// A remnant connection with a LOWER epoch than the current session is
	// rejected at the handshake.
	remnant := dial(3)
	defer remnant.Close()
	_ = writeFrame(remnant, []byte("remnant"))
	select {
	case m := <-got:
		t.Fatalf("low-epoch remnant frame %q delivered", m)
	case <-time.After(200 * time.Millisecond):
	}

	// A higher-epoch hello with the retired prefixed-framing flag byte is
	// refused: the receiver closes it without reading its frames, and the
	// epoch-6 session stays live.
	flagged := dial(7, sessionFlagPrefixed)
	defer flagged.Close()
	_ = writeFrame(flagged, []byte("flagged"))
	_ = flagged.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	if _, err := flagged.Read(one[:]); err == nil {
		t.Fatal("flagged hello: receiver wrote on the connection instead of closing it")
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("flagged hello: receiver never closed the connection")
	}
	select {
	case m := <-got:
		t.Fatalf("frame %q on a flagged session delivered", m)
	case <-time.After(200 * time.Millisecond):
	}
	if e := b.SessionEpoch("a"); e != 6 {
		t.Fatalf("session epoch %d after a flagged hello, want 6 (the flagged session must not supersede)", e)
	}
	if err := writeFrame(fresh, []byte("new-2")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m != "new-2" {
			t.Fatalf("got %q", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("epoch-6 session stopped delivering after a flagged hello")
	}
}

// TestPeerRestartStorm: several senders hammer a receiver that restarts
// repeatedly on the same address. Every payload a sender's Send call
// reported as delivered-or-failed is accounted for: received frames are
// never duplicated and each sender's stream arrives in order (gaps are
// legal — frames lost with a dying session are the FT layer's job).
func TestPeerRestartStorm(t *testing.T) {
	table := map[string]string{}
	var tableMu sync.Mutex
	resolver := func(name string) (string, error) {
		tableMu.Lock()
		defer tableMu.Unlock()
		addr, ok := table[name]
		if !ok {
			return "", fmt.Errorf("unknown node %q", name)
		}
		return addr, nil
	}
	setAddr := func(name, addr string) {
		tableMu.Lock()
		table[name] = addr
		tableMu.Unlock()
	}

	const senders = 4
	const perSender = 200
	nodes := make([]*Node, senders)
	for i := range nodes {
		n, err := Listen(fmt.Sprintf("s%d", i), "127.0.0.1:0", resolver)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		setAddr(n.Local(), n.Addr())
		nodes[i] = n
	}

	type rec struct{ sender, seq int }
	var recMu sync.Mutex
	var received []rec
	handler := func(src string, payload []byte) {
		var s, q int
		if _, err := fmt.Sscanf(string(payload), "%d:%d", &s, &q); err != nil {
			t.Errorf("bad frame %q", payload)
			return
		}
		recMu.Lock()
		received = append(received, rec{s, q})
		recMu.Unlock()
	}

	r0, err := Listen("r", "127.0.0.1:0", resolver)
	if err != nil {
		t.Fatal(err)
	}
	r0.SetHandler(handler)
	setAddr("r", r0.Addr())
	rAddr := r0.Addr()

	var wg sync.WaitGroup
	for i := range nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for q := 0; q < perSender; q++ {
				// Errors are legal mid-restart (budget exhausted); the FT
				// layer would replay. The transport's own job is no dup, no
				// reorder.
				_ = nodes[i].Send("r", []byte(fmt.Sprintf("%d:%d", i, q)))
			}
		}(i)
	}

	// Restart the receiver three times mid-storm, same address.
	current := r0
	for restart := 0; restart < 3; restart++ {
		time.Sleep(30 * time.Millisecond)
		_ = current.Close()
		var next *Node
		for i := 0; ; i++ {
			next, err = Listen("r", rAddr, resolver)
			if err == nil {
				break
			}
			if i > 200 {
				t.Fatalf("rebind: %v", err)
			}
			time.Sleep(5 * time.Millisecond)
		}
		next.SetHandler(handler)
		current = next
	}
	t.Cleanup(func() { _ = current.Close() })

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("storm wedged")
	}
	time.Sleep(100 * time.Millisecond) // drain last in-flight frames

	recMu.Lock()
	defer recMu.Unlock()
	lastSeq := make([]int, senders)
	for i := range lastSeq {
		lastSeq[i] = -1
	}
	seen := make(map[rec]bool)
	for _, r := range received {
		if seen[r] {
			t.Fatalf("duplicate delivery of sender %d seq %d", r.sender, r.seq)
		}
		seen[r] = true
		if r.seq <= lastSeq[r.sender] {
			t.Fatalf("sender %d: seq %d after %d — reordered across the restarts", r.sender, r.seq, lastSeq[r.sender])
		}
		lastSeq[r.sender] = r.seq
	}
	if len(received) == 0 {
		t.Fatal("storm delivered nothing at all")
	}
	t.Logf("storm: %d/%d frames delivered across 3 restarts", len(received), senders*perSender)
}

// TestWriteDeadlineUnsticksHungPeer: a peer that accepts the connection
// and never reads must not block Send forever — the write deadline turns
// the stall into a bounded error.
func TestWriteDeadlineUnsticksHungPeer(t *testing.T) {
	hung, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hung.Close()
	go func() {
		for {
			c, err := hung.Accept()
			if err != nil {
				return
			}
			// Accept and never read: the classic wedged peer.
			defer c.Close()
		}
	}()

	resolver := StaticResolver(map[string]string{"h": hung.Addr().String()})
	a, err := Listen("a", "127.0.0.1:0", resolver,
		WithWriteTimeout(200*time.Millisecond), WithRetryBudget(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })

	// Fill the kernel buffers until the write deadline fires.
	payload := make([]byte, 1<<20)
	start := time.Now()
	var sendErr error
	for i := 0; i < 64; i++ {
		if sendErr = a.Send("h", payload); sendErr != nil {
			break
		}
	}
	if sendErr == nil {
		t.Fatal("sends to a never-reading peer kept succeeding")
	}
	if !IsTransient(sendErr) {
		t.Fatalf("a stalled write must classify transient, got %v", sendErr)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("unsticking took %v", elapsed)
	}
}
