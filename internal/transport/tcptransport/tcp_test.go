package tcptransport

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

func startPair(t *testing.T) (*Node, *Node) {
	t.Helper()
	table := map[string]string{}
	resolver := StaticResolver(table)
	a, err := Listen("a", "127.0.0.1:0", resolver)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Listen("b", "127.0.0.1:0", resolver)
	if err != nil {
		t.Fatal(err)
	}
	table["a"] = a.Addr()
	table["b"] = b.Addr()
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	return a, b
}

func TestSendReceive(t *testing.T) {
	a, b := startPair(t)
	got := make(chan string, 1)
	b.SetHandler(func(src string, payload []byte) { got <- src + ":" + string(payload) })
	a.SetHandler(func(src string, payload []byte) {})
	if err := a.Send("b", []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m != "a:over tcp" {
			t.Fatalf("got %q", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
}

func TestBidirectionalSingleConnection(t *testing.T) {
	a, b := startPair(t)
	fromA := make(chan []byte, 10)
	fromB := make(chan []byte, 10)
	a.SetHandler(func(src string, payload []byte) { fromB <- payload })
	b.SetHandler(func(src string, payload []byte) { fromA <- payload })

	if err := a.Send("b", []byte("ping")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-fromA:
		if string(m) != "ping" {
			t.Fatalf("got %q", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting at b")
	}
	// Reply should reuse the inbound connection (no dial of a needed: remove
	// a from the resolver table to prove it).
	if err := b.Send("a", []byte("pong")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-fromB:
		if string(m) != "pong" {
			t.Fatalf("got %q", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting at a")
	}
}

func TestFIFOOrder(t *testing.T) {
	a, b := startPair(t)
	const count = 500
	got := make(chan int, count)
	b.SetHandler(func(src string, payload []byte) { got <- int(payload[0])<<8 | int(payload[1]) })
	a.SetHandler(func(src string, payload []byte) {})
	for i := 0; i < count; i++ {
		if err := a.Send("b", []byte{byte(i >> 8), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < count; i++ {
		select {
		case v := <-got:
			if v != i {
				t.Fatalf("out of order: got %d want %d", v, i)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timeout")
		}
	}
}

func TestLargePayload(t *testing.T) {
	a, b := startPair(t)
	// An empty frame rides ahead of the bulk one: a zero-length body is a
	// legal frame on the socket path too.
	payloads := [][]byte{{}, bytes.Repeat([]byte{0xAB}, 4<<20)}
	got := make(chan []byte, len(payloads))
	b.SetHandler(func(src string, p []byte) { got <- p })
	a.SetHandler(func(src string, payload []byte) {})
	for _, payload := range payloads {
		if err := a.Send("b", payload); err != nil {
			t.Fatal(err)
		}
	}
	for i, payload := range payloads {
		select {
		case p := <-got:
			if !bytes.Equal(p, payload) {
				t.Fatalf("payload %d corrupted: %d bytes, want %d", i, len(p), len(payload))
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("payload %d: timeout", i)
		}
	}
}

func TestUnknownDestination(t *testing.T) {
	a, _ := startPair(t)
	if err := a.Send("ghost", []byte("x")); err == nil {
		t.Fatal("expected resolve error")
	}
}

func TestConcurrentSendersOneDest(t *testing.T) {
	table := map[string]string{}
	resolver := StaticResolver(table)
	dst, err := Listen("dst", "127.0.0.1:0", resolver)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	table["dst"] = dst.Addr()

	const senders = 6
	const per = 100
	var mu sync.Mutex
	counts := map[string]int{}
	done := make(chan struct{})
	total := 0
	dst.SetHandler(func(src string, payload []byte) {
		mu.Lock()
		counts[src]++
		total++
		if total == senders*per {
			close(done)
		}
		mu.Unlock()
	})

	// Register every sender before any goroutine starts: the resolver
	// closure reads the table concurrently once sends begin.
	nodes := make([]*Node, senders)
	for i := 0; i < senders; i++ {
		name := fmt.Sprintf("s%d", i)
		n, err := Listen(name, "127.0.0.1:0", resolver)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		table[name] = n.Addr()
		nodes[i] = n
	}
	for _, n := range nodes {
		go func(n *Node) {
			for j := 0; j < per; j++ {
				if err := n.Send("dst", []byte("m")); err != nil {
					t.Error(err)
					return
				}
			}
		}(n)
	}
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("timeout: %d received", total)
	}
	for src, c := range counts {
		if c != per {
			t.Errorf("%s: %d messages, want %d", src, c, per)
		}
	}
}

func TestSendAfterClose(t *testing.T) {
	a, _ := startPair(t)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", []byte("x")); err == nil {
		t.Fatal("expected error after close")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("a"), bytes.Repeat([]byte("xyz"), 1000)}
	for _, p := range payloads {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range payloads {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("got %q want %q", got, p)
		}
	}
}

// dynResolver is a mutable name→address table safe for concurrent use,
// standing in for the kernel name server in restart scenarios.
type dynResolver struct {
	mu    sync.Mutex
	table map[string]string
}

func (r *dynResolver) set(name, addr string) {
	r.mu.Lock()
	r.table[name] = addr
	r.mu.Unlock()
}

func (r *dynResolver) resolve(name string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	addr, ok := r.table[name]
	if !ok {
		return "", fmt.Errorf("dyn: unknown node %q", name)
	}
	return addr, nil
}

// TestPeerRestartRedialsViaResolver restarts a peer on a fresh address: the
// sender's cached connection dies, the failure is surfaced to the caller
// (not swallowed), and once the resolver learns the new address the next
// Send lazily re-dials — the paper's on-demand connection establishment
// applied to recovery.
func TestPeerRestartRedialsViaResolver(t *testing.T) {
	res := &dynResolver{table: map[string]string{}}
	a1, err := Listen("a", "127.0.0.1:0", res.resolve)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Listen("b", "127.0.0.1:0", res.resolve)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	res.set("a", a1.Addr())
	res.set("b", b.Addr())

	got := make(chan string, 16)
	h := func(src string, payload []byte) { got <- string(payload) }
	a1.SetHandler(h)
	b.SetHandler(func(string, []byte) {})

	if err := b.Send("a", []byte("before")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m != "before" {
			t.Fatalf("got %q", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout before restart")
	}

	// Peer goes away. The sender's next attempts must eventually return an
	// error: either the cached connection fails on write, or the re-dial of
	// the stale address is refused. A silent success after the reader
	// noticed EOF would mean the transport swallowed the failure.
	oldAddr := a1.Addr()
	_ = a1.Close()
	deadline := time.After(10 * time.Second)
	for {
		if err := b.Send("a", []byte("into the void")); err != nil {
			break // failure surfaced
		}
		select {
		case <-deadline:
			t.Fatal("sends to a closed peer kept succeeding; dial/write error was swallowed")
		case <-time.After(5 * time.Millisecond):
		}
	}

	// While the resolver still points at the dead address, Send must keep
	// reporting the dial failure rather than pretending delivery.
	if err := b.Send("a", []byte("still down")); err == nil {
		t.Fatal("send to dead address succeeded")
	}

	// The peer comes back on a NEW address; only the resolver knows. The
	// next Send must consult it and re-dial lazily.
	a2, err := Listen("a", "127.0.0.1:0", res.resolve)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a2.Close() })
	if a2.Addr() == oldAddr {
		t.Skipf("OS reused address %s; cannot distinguish re-dial", oldAddr)
	}
	a2.SetHandler(h)
	res.set("a", a2.Addr())

	var sendErr error
	redeadline := time.After(10 * time.Second)
	for {
		if sendErr = b.Send("a", []byte("after restart")); sendErr == nil {
			break
		}
		select {
		case <-redeadline:
			t.Fatalf("send after restart never succeeded: %v", sendErr)
		case <-time.After(5 * time.Millisecond):
		}
	}
	select {
	case m := <-got:
		if m != "after restart" {
			t.Fatalf("got %q after restart", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("restarted peer never received the re-dialed message")
	}
}
