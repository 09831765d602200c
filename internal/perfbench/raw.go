package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"
)

// rawRing is the paper's Figure 6 baseline on the real substrate: the same
// three loopback hops as the DPS ring (producer → hop 1 → hop 2 →
// consumer), moving 4-byte length-prefixed blocks over plain net.Conn, each
// hop forwarding a block as soon as it has read it. It reports the tokens
// per second the consumer received over span, after a short warm-up, and
// verifies the count and checksum of everything sent.
func rawRing(p *payload, span time.Duration) (tokensPerS float64, err error) {
	var ls [3]net.Listener
	for i := range ls {
		if ls[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			for _, l := range ls[:i] {
				l.Close()
			}
			return 0, err
		}
	}
	stopAt := time.Now().Add(warmup/4 + span + 10*time.Second)

	var wg sync.WaitGroup
	errs := make(chan error, 3) // one per hop goroutine
	// accept takes the single inbound connection of listener i.
	accept := func(i int) (net.Conn, error) {
		c, err := ls[i].Accept()
		ls[i].Close()
		if err == nil {
			err = c.SetDeadline(stopAt)
		}
		return c, err
	}
	dial := func(i int) (net.Conn, error) {
		c, err := net.Dial("tcp", ls[i].Addr().String())
		if err == nil {
			err = c.SetDeadline(stopAt)
		}
		return c, err
	}

	// Forwarding hops: listener i → listener i+1.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- forwardHop(accept, dial, i)
		}()
	}

	// Consumer on listener 2.
	type count struct {
		n   int64
		sum uint64
	}
	var got count
	var window int64
	measureFrom := time.Now().Add(warmup / 4)
	measureTo := measureFrom.Add(span)
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := accept(2)
		if err != nil {
			errs <- err
			return
		}
		defer c.Close()
		r := bufio.NewReaderSize(c, 256<<10)
		var buf []byte
		for {
			if buf, err = readFrame(r, buf); err != nil {
				if errors.Is(err, io.EOF) {
					err = nil
				}
				errs <- err
				return
			}
			got.n++
			got.sum += uint64(crc32.ChecksumIEEE(buf[4:]))
			if now := time.Now(); !now.Before(measureFrom) && now.Before(measureTo) {
				window++
			}
		}
	}()

	// Producer: writes prebuilt frames of the pool until the window ends.
	var sent count
	perr := func() error {
		c, err := dial(0)
		if err != nil {
			return err
		}
		defer c.Close()
		frames := make([][]byte, len(p.blocks))
		for i, b := range p.blocks {
			frames[i] = binary.BigEndian.AppendUint32(make([]byte, 0, 4+len(b)), uint32(len(b)))
			frames[i] = append(frames[i], b...)
		}
		for seq := int64(0); time.Now().Before(measureTo); seq++ {
			if _, err := c.Write(frames[seq%int64(len(frames))]); err != nil {
				return err
			}
			sent.n++
			sent.sum += p.sums[seq%int64(len(p.sums))]
		}
		return nil
	}()
	for _, l := range ls {
		l.Close() // unblocks hops still accepting if the producer failed
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		err = errors.Join(err, e)
	}
	if err = errors.Join(perr, err); err != nil {
		return 0, fmt.Errorf("raw ring: %w", err)
	}
	if got != sent {
		return 0, fmt.Errorf("raw ring: received %d blocks (checksum %d), sent %d (checksum %d)", got.n, got.sum, sent.n, sent.sum)
	}
	return float64(window) / span.Seconds(), nil
}

// forwardHop accepts on listener i, dials listener i+1 and forwards every
// block as soon as it arrives, closing downstream at end of stream.
func forwardHop(accept, dial func(int) (net.Conn, error), i int) error {
	in, err := accept(i)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := dial(i + 1)
	if err != nil {
		return err
	}
	defer out.Close()
	r := bufio.NewReaderSize(in, 256<<10)
	var buf []byte
	for {
		if buf, err = readFrame(r, buf); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if _, err := out.Write(buf); err != nil {
			return err
		}
	}
}

// readFrame reads one length-prefixed frame, prefix included, into buf.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if cap(buf) < 4+n {
		buf = make([]byte, 4+n)
	}
	buf = buf[:4+n]
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[4:]); err != nil {
		return buf, io.ErrUnexpectedEOF
	}
	return buf, nil
}
