package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentiles are the percentiles a tail is reported at, highest first.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

// tailPercentile returns the highest of tailPercentiles that leaves at least
// ten of n samples beyond it (nearest rank), so a tail figure always rests
// on ten observations; ok is false below twenty samples.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if n-nearestRank(p, n) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// summary is a latency distribution reported as its median, its p90, its
// tail at TailPct (see tailPercentile) and the sample count.
type summary struct {
	P50, P90, Tail, TailPct float64
	N                       int
}

// summarize sorts xs in place and summarizes it.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	sort.Float64s(xs)
	s := summary{P50: xs[nearestRank(50, len(xs))-1], P90: xs[nearestRank(90, len(xs))-1], N: len(xs)}
	if p, ok := tailPercentile(len(xs)); ok {
		s.TailPct = p
		s.Tail = xs[nearestRank(p, len(xs))-1]
	} else {
		s.TailPct = 100
		s.Tail = xs[len(xs)-1]
	}
	return s
}

// sample is one latency observation in ms and the interval it spanned.
type sample struct {
	ms       float64
	from, to time.Time
}

// minTailSamples is the fewest samples whose p99 has ten beyond it.
const minTailSamples = 1000

// chunkSummary summarizes xs, in the order they were taken, by consecutive
// chunks of minTailSamples. Each chunk's P50, P90 and tail are scaled to the
// share of CPU time the hypervisor left the machine during the chunk, and
// the medians over the half of the chunks with the least steal (see
// quietest) are reported. A burst of interference, stolen or not, then
// moves only the chunks it touched. With fewer than two chunks' worth it
// summarizes every sample unscaled. N counts the samples in the chunks
// used.
func chunkSummary(xs []sample, ss *stealSampler) summary {
	k := len(xs) / minTailSamples
	if k < 2 {
		v := make([]float64, len(xs))
		for i, x := range xs {
			v[i] = x.ms
		}
		return summarize(v)
	}
	p50s := make([]float64, k)
	p90s := make([]float64, k)
	tails := make([]float64, k)
	steal := make([]float64, k)
	pct := 100.0
	for i := range p50s {
		c := xs[i*minTailSamples : (i+1)*minTailSamples]
		v := make([]float64, len(c))
		end := c[0].to
		for j, x := range c {
			v[j] = x.ms
			if x.to.After(end) {
				end = x.to
			}
		}
		s := summarize(v)
		steal[i] = ss.share(c[0].from, end)
		kept := 1 - steal[i]
		p50s[i], p90s[i], tails[i], pct = s.P50*kept, s.P90*kept, s.Tail*kept, min(pct, s.TailPct)
	}
	quiet := quietest(steal)
	return summary{
		P50:     median(pick(p50s, quiet)),
		P90:     median(pick(p90s, quiet)),
		Tail:    median(pick(tails, quiet)),
		TailPct: pct,
		N:       len(quiet) * minTailSamples,
	}
}

// pick returns xs at the given indices.
func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// summarizeHist is summarize over a histogram, scaled by scale (e.g. 1e-3
// for ns → µs).
func summarizeHist(h *hist, scale float64) summary {
	n := int(h.n.Load())
	s := summary{N: n, P50: h.quantile(50) * scale}
	if p, ok := tailPercentile(n); ok {
		s.TailPct = p
		s.Tail = h.quantile(p) * scale
	} else {
		s.TailPct = 100
		s.Tail = h.quantile(100) * scale
	}
	return s
}

// median of xs (sorted in place); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
