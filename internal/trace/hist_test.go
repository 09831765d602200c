package trace

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestHistZeroValue(t *testing.T) {
	var h Hist
	if h.Len() != 0 || h.Median() != 0 || h.Percentile(99) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistExactAggregates(t *testing.T) {
	var h Hist
	vals := []time.Duration{3 * time.Millisecond, time.Microsecond, 2 * time.Second, 40 * time.Microsecond}
	var sum time.Duration
	for _, v := range vals {
		h.Add(v)
		sum += v
	}
	if h.Len() != len(vals) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(vals))
	}
	if h.Min() != time.Microsecond || h.Max() != 2*time.Second {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if h.Sum() != sum || h.Mean() != sum/time.Duration(len(vals)) {
		t.Fatalf("sum/mean = %v/%v", h.Sum(), h.Mean())
	}
	if h.Percentile(0) != h.Min() || h.Percentile(100) != h.Max() {
		t.Fatal("extreme percentiles must be the exact min and max")
	}
}

// exactPercentile is the nearest-rank percentile of sorted samples: the
// value a histogram percentile approximates to within one bucket.
func exactPercentile(sorted []time.Duration, p float64) time.Duration {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func TestHistPercentileResolution(t *testing.T) {
	// Percentiles of a log-uniform stream must land within one bucket
	// (≈9% relative error) of the exact nearest-rank percentile.
	rng := rand.New(rand.NewSource(7))
	vals := make([]time.Duration, 20_000)
	for i := range vals {
		vals[i] = time.Duration(math.Pow(10, 3+4*rng.Float64())) // 1µs .. 10s in ns
	}
	checkPercentiles(t, vals, 50, 90, 99, 99.9)
}

// checkPercentiles asserts that each percentile of a Hist over vals lands
// within one bucket of the exact nearest-rank percentile of vals.
func checkPercentiles(t *testing.T, vals []time.Duration, ps ...float64) {
	t.Helper()
	var h Hist
	for _, v := range vals {
		h.Add(v)
	}
	sorted := append([]time.Duration(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, p := range ps {
		got, want := h.Percentile(p), exactPercentile(sorted, p)
		ratio := float64(got) / float64(want)
		if ratio < 0.85 || ratio > 1.15 {
			t.Fatalf("p%v: hist %v vs exact %v (ratio %.3f)", p, got, want, ratio)
		}
	}
}

// The median of an odd-count set is its middle sample.
func TestSamplesMedianOdd(t *testing.T) {
	ms := time.Millisecond
	vals := []time.Duration{5 * ms, 1 * ms, 3 * ms}
	checkPercentiles(t, vals, 50)
	var h Hist
	for _, v := range vals {
		h.Add(v)
	}
	if m := h.Median(); m < 2*ms || m > 4*ms {
		t.Fatalf("median = %v, want ≈3ms", m)
	}
}

// The median of an even-count set is the lower middle sample (nearest
// rank), never outside the two middle samples.
func TestSamplesMedianEven(t *testing.T) {
	ms := time.Millisecond
	vals := []time.Duration{10 * ms, 20 * ms, 30 * ms, 40 * ms}
	checkPercentiles(t, vals, 50)
	var h Hist
	for _, v := range vals {
		h.Add(v)
	}
	if m := h.Median(); m < 17*ms || m > 30*ms {
		t.Fatalf("median = %v, want between the middle samples 20ms and 30ms", m)
	}
}

func TestPercentileBounds(t *testing.T) {
	var h Hist
	for i := 1; i <= 100; i++ {
		h.Add(time.Duration(i) * time.Millisecond)
	}
	if h.Percentile(0) != time.Millisecond || h.Percentile(100) != 100*time.Millisecond {
		t.Fatalf("p0/p100 = %v/%v, want the exact min and max", h.Percentile(0), h.Percentile(100))
	}
	if p90 := h.Percentile(90); p90 < 85*time.Millisecond || p90 > 95*time.Millisecond {
		t.Fatalf("p90 = %v", p90)
	}
	// Percentiles never decrease with p and never leave [min, max].
	last := h.Min()
	for p := 0.0; p <= 100; p += 0.5 {
		v := h.Percentile(p)
		if v < last || v > h.Max() {
			t.Fatalf("p%v = %v after %v (max %v)", p, v, last, h.Max())
		}
		last = v
	}
}

// High percentiles saturate at the max: a nearest-rank index computed
// modulo the sample count wraps a high percentile over few samples around
// to the smallest sample instead.
func TestPercentileHighDoesNotWrap(t *testing.T) {
	var h Hist
	for _, v := range []time.Duration{10, 20, 30} {
		h.Add(v * time.Millisecond)
	}
	if got := h.Percentile(99); got != 30*time.Millisecond {
		t.Fatalf("p99 over 3 samples = %v, want 30ms (the max)", got)
	}
	var big Hist
	for i := 1; i <= 100; i++ {
		big.Add(time.Duration(i) * time.Millisecond)
	}
	if got := big.Percentile(99.999); got != 100*time.Millisecond {
		t.Fatalf("p99.999 over 100 samples = %v, want 100ms", got)
	}
}

func TestQuickMedianWithinRange(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		var h Hist
		min, max := time.Duration(vals[0])*time.Microsecond, time.Duration(vals[0])*time.Microsecond
		for _, v := range vals {
			d := time.Duration(v) * time.Microsecond
			h.Add(d)
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		m := h.Median()
		return m >= min && m <= max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, all Hist
	for i := 1; i <= 100; i++ {
		d := time.Duration(i) * time.Millisecond
		if i%2 == 0 {
			a.Add(d)
		} else {
			b.Add(d)
		}
		all.Add(d)
	}
	var merged Hist
	merged.Merge(&a)
	merged.Merge(&b)
	if merged != all {
		t.Fatal("merge of disjoint halves differs from recording everything into one histogram")
	}
	var empty Hist
	merged.Merge(&empty)
	if merged != all {
		t.Fatal("merging an empty histogram changed the receiver")
	}
}

func TestHistJSONRoundTrip(t *testing.T) {
	var h Hist
	for i := 0; i < 1000; i++ {
		h.Add(time.Duration(i) * 37 * time.Microsecond)
	}
	data, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	var back Hist
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatal("JSON round trip changed the histogram")
	}
	// The wire form carries derived percentiles for consumers.
	var wire map[string]any
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"count", "sum_ns", "p50_ns", "p99_ns", "p999_ns", "buckets"} {
		if _, ok := wire[k]; !ok {
			t.Fatalf("wire form missing %q: %s", k, data)
		}
	}
}

func TestHistUnmarshalRejectsBadBucket(t *testing.T) {
	var h Hist
	if err := json.Unmarshal([]byte(`{"count":1,"buckets":[[9999,1]]}`), &h); err == nil {
		t.Fatal("out-of-range bucket index accepted")
	}
}

func TestHistNegativeClamped(t *testing.T) {
	var h Hist
	h.Add(-time.Second)
	if h.Min() != 0 || h.Max() != 0 || h.Len() != 1 {
		t.Fatal("negative sample must clamp to zero")
	}
}

func TestHistBucketsIteration(t *testing.T) {
	var h Hist
	for _, d := range []time.Duration{time.Microsecond, time.Millisecond, time.Millisecond, time.Second} {
		h.Add(d)
	}
	var total int64
	var last time.Duration = -1
	h.Buckets(func(upper time.Duration, count int64) {
		if count <= 0 {
			t.Fatalf("bucket %v reported empty count %d", upper, count)
		}
		if upper <= last {
			t.Fatalf("bucket bounds not ascending: %v after %v", upper, last)
		}
		last = upper
		total += count
	})
	if total != int64(h.Len()) {
		t.Fatalf("bucket counts sum to %d, histogram holds %d", total, h.Len())
	}
}

func TestHistJSONCarriesP90(t *testing.T) {
	var h Hist
	for i := 1; i <= 100; i++ {
		h.Add(time.Duration(i) * time.Millisecond)
	}
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"p50_ns", "p90_ns", "p99_ns", "p999_ns"} {
		if _, ok := m[k]; !ok {
			t.Errorf("marshaled histogram missing %s: %s", k, data)
		}
	}
}
