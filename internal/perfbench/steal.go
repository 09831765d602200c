package main

import (
	"bytes"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// stealSampler records the machine's cumulative CPU steal time: time the
// hypervisor ran other tenants while this machine's CPUs had work. On a
// shared virtual machine it stretches every latency and cuts every rate of
// the chunk it hits, whatever the engine does. So each chunk's figures are
// rescaled to the CPU time the machine kept (share), and the medians use
// the chunks with the least steal (quietest).
type stealSampler struct {
	stop chan struct{}
	done chan struct{}

	mu    sync.Mutex
	at    []time.Time
	ticks []float64
}

// stealPeriod is the sampling interval; a /proc/stat read costs tens of µs.
const stealPeriod = 20 * time.Millisecond

func startSteal() *stealSampler {
	s := &stealSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(stealPeriod)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.sample()
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

// finish stops sampling and waits for the sampler to exit.
func (s *stealSampler) finish() {
	close(s.stop)
	<-s.done
}

func (s *stealSampler) sample() {
	v, ok := readSteal()
	if !ok {
		return
	}
	now := time.Now()
	s.mu.Lock()
	s.at = append(s.at, now)
	s.ticks = append(s.ticks, v)
	s.mu.Unlock()
}

// readSteal returns the steal field of /proc/stat's aggregate cpu line, in
// clock ticks summed over CPUs.
func readSteal() (float64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := bytes.Cut(b, []byte{'\n'})
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(f[8]), 64)
	return v, err == nil
}

// over returns the steal ticks counted across [t0, t1]: between the last
// sample at or before t0 and the first at or after t1. Zero without a
// sampler.
func (s *stealSampler) over(t0, t1 time.Time) float64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.at)
	if n == 0 {
		return 0
	}
	i0 := max(0, sort.Search(n, func(i int) bool { return s.at[i].After(t0) })-1)
	i1 := min(n-1, sort.Search(n, func(i int) bool { return !s.at[i].Before(t1) }))
	return s.ticks[i1] - s.ticks[i0]
}

// rate is over per second of [t0, t1]; 0 for an empty interval.
func (s *stealSampler) rate(t0, t1 time.Time) float64 {
	secs := t1.Sub(t0).Seconds()
	if secs <= 0 {
		return 0
	}
	return s.over(t0, t1) / secs
}

// quietest returns the indices of the values at or below their median: the
// half of the chunks or calls with the least steal, or all of them when
// none saw any.
func quietest(steal []float64) []int {
	cut := median(append([]float64(nil), steal...))
	var out []int
	for i, v := range steal {
		if v <= cut {
			out = append(out, i)
		}
	}
	return out
}

// maxSteal caps the steal share used to rescale a chunk, so a chunk the
// hypervisor nearly froze cannot blow a figure up.
const maxSteal = 0.9

// share is the fraction of the machine's CPU time stolen between t0 and
// t1, assuming Linux's 100 ticks a second.
func (s *stealSampler) share(t0, t1 time.Time) float64 {
	return min(maxSteal, s.rate(t0, t1)/100/float64(runtime.NumCPU()))
}
