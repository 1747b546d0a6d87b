package main

import (
	"testing"
	"time"
)

func seq(n int) *samples {
	s := &samples{}
	for i := n; i >= 1; i-- { // reversed, so quantile must sort
		s.add(time.Duration(i))
	}
	return s
}

func TestQuantileNearestRank(t *testing.T) {
	s := seq(100)
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {0.001, 1}, {1, 100}} {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("quantile(%g) of 1..100 = %g, want %g", c.q, got, c.want)
		}
	}
	if got := (&samples{}).quantile(0.5); got != 0 {
		t.Errorf("quantile of no samples = %g, want 0", got)
	}
}

// A percentile is reported only when at least ten samples lie beyond it.
func TestSupportsNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, {999, 0.99, false},
		{100, 0.9, true}, {99, 0.9, false},
		{10000, 0.999, true}, {9999, 0.999, false},
	} {
		if got := supports(c.n, c.q); got != c.want {
			t.Errorf("supports(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestSummaryStatesCountAndSupportedPercentiles(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{
		{5, "5 samples"},
		{100, "100 samples, p50 0.050 us, p90 0.090 us"},
		{1000, "1000 samples, p50 0.500 us, p90 0.900 us, p99 0.990 us"},
	} {
		if got := seq(c.n).summary(); got != c.want {
			t.Errorf("summary of %d samples = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestMergeKeepsEverySample(t *testing.T) {
	a, b := seq(10), seq(30)
	a.quantile(0.5) // sorts a
	a.merge(b)
	if a.n() != 40 {
		t.Fatalf("merged count %d, want 40", a.n())
	}
	if got := a.quantile(1); got != 30 {
		t.Errorf("max after merge = %g, want 30", got)
	}
}
