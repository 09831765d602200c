package main

import (
	"math/rand"
	"time"
)

// arrivals is an open-loop Poisson arrival schedule at rate calls/s over
// span: offsets from the phase start, with exponential gaps drawn from
// seed alone, so the same seed always offers the same load.
func arrivals(seed int64, rate float64, span time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, 0, int(rate*span.Seconds()*1.1)+16)
	var t float64 // seconds
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= span {
			return out
		}
		out = append(out, off)
	}
}
