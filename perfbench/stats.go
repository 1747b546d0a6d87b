package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p99 needs at least 1000 samples.
const minBeyond = 10

// samples holds exact per-operation durations in nanoseconds.
type samples struct {
	ns     []int64
	sorted bool
}

func (s *samples) add(d time.Duration) {
	s.ns = append(s.ns, int64(d))
	s.sorted = false
}

func (s *samples) merge(o *samples) {
	s.ns = append(s.ns, o.ns...)
	s.sorted = false
}

func (s *samples) n() int { return len(s.ns) }

// quantile returns the nearest-rank q-quantile in nanoseconds: the smallest
// sample with at least q of the samples at or below it. It is 0 when empty.
func (s *samples) quantile(q float64) float64 {
	if len(s.ns) == 0 {
		return 0
	}
	if !s.sorted {
		slices.Sort(s.ns)
		s.sorted = true
	}
	return float64(s.ns[rank(len(s.ns), q)-1])
}

// rank is the 1-based nearest rank of quantile q among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supports reports whether n samples leave at least minBeyond above the
// q-quantile.
func supports(n int, q float64) bool {
	return n-rank(n, q) >= minBeyond
}

// reported lists the percentiles printed for an operation's latency; each
// is printed only when the sample count supports it.
var reported = []float64{0.5, 0.9, 0.99, 0.999}

// summary prints the sample count and every supported percentile in
// microseconds.
func (s *samples) summary() string {
	out := fmt.Sprintf("%d samples", s.n())
	for _, q := range reported {
		if supports(s.n(), q) {
			out += fmt.Sprintf(", p%g %.3f us", q*100, s.quantile(q)/1e3)
		}
	}
	return out
}

// windowRates samples count every window until stop is closed and returns
// the rate, per second, of each whole window. The median of these rates
// shrugs off a garbage collection or a scheduling hiccup that a run's
// overall rate would absorb.
func windowRates(window time.Duration, count func() int64, stop <-chan struct{}) []float64 {
	t := time.NewTicker(window)
	defer t.Stop()
	var rates []float64
	prev, prevN := time.Now(), count()
	for {
		select {
		case <-stop:
			return rates
		case now := <-t.C:
			n := count()
			rates = append(rates, float64(n-prevN)/now.Sub(prev).Seconds())
			prev, prevN = now, n
		}
	}
}
