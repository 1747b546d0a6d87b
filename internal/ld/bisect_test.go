package ld

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
)

// refMgfDeriv is Lambda'(s) as RateFunction computed it with a fixed step
// count: the largest exponent is found by scanning the support at every s.
func refMgfDeriv(d Dist, s float64) float64 {
	m := math.Inf(-1)
	for i, p := range d.P {
		if p > 0 && s*d.X[i] > m {
			m = s * d.X[i]
		}
	}
	var num, den float64
	for i, p := range d.P {
		if p > 0 {
			w := p * math.Exp(s*d.X[i]-m)
			num += d.X[i] * w
			den += w
		}
	}
	return num / den
}

// refRateFunction is RateFunction with exactly 200 bisection halvings. It
// also returns the number of halvings after which the bracket stopped
// changing (0 when the bisection never ran).
func refRateFunction(d Dist, a float64) (float64, int) {
	mean := d.Mean()
	if a <= mean {
		return 0, 0
	}
	max := d.Max()
	if a > max {
		return math.Inf(1), 0
	}
	if a == max {
		var pmax float64
		for i, p := range d.P {
			if p > 0 && d.X[i] == max {
				pmax += p
			}
		}
		return -math.Log(pmax), 0
	}
	lo, hi := 0.0, 1.0
	if max > 0 {
		hi = 1 / max
	}
	for iter := 0; refMgfDeriv(d, hi) < a; iter++ {
		hi *= 2
		if iter > 200 {
			return math.Inf(1), 0
		}
	}
	steps := 0
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		plo, phi := lo, hi
		if refMgfDeriv(d, mid) < a {
			lo = mid
		} else {
			hi = mid
		}
		if lo != plo || hi != phi {
			steps = iter + 1
		}
	}
	s := (lo + hi) / 2
	return s*a - d.LogMGF(s), steps
}

// refCapacityForTail is CapacityForTail with exactly 100 halvings over the
// fixed-count rate function.
func refCapacityForTail(d Dist, n int, target float64) float64 {
	if target >= 1 {
		return d.Mean()
	}
	tail := func(a float64) float64 {
		v, _ := refRateFunction(d, a)
		return math.Exp(-float64(n) * v)
	}
	lo, hi := d.Mean(), d.Max()
	if lo >= hi {
		return hi
	}
	if tail(hi) > target {
		return hi
	}
	for iter := 0; iter < 100; iter++ {
		mid := (lo + hi) / 2
		if tail(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// randomDist draws 1-30 levels spread over about 12 decades, roughly one in
// seven of them with zero probability.
func randomDist(r *rand.Rand) Dist {
	n := 1 + r.IntN(30)
	d := Dist{P: make([]float64, n), X: make([]float64, n)}
	var sum float64
	for i := range d.P {
		d.X[i] = math.Pow(10, 12*r.Float64())
		if r.IntN(7) > 0 {
			d.P[i] = r.Float64()
			sum += d.P[i]
		}
	}
	if sum == 0 {
		d.P[0], sum = 1, 1
	}
	for i := range d.P {
		d.P[i] /= sum
	}
	return d
}

// TestRateFunctionMatchesFixedCountBisection pins the early stop of both
// bisections: over a seeded corpus the results equal the fixed-count
// loops' to the bit. Each distribution is probed uniformly inside
// (mean, max), just above the mean (the most halvings) and just below the
// max.
func TestRateFunctionMatchesFixedCountBisection(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 95))
	const dists = 34_000
	// Halvings until the bracket stopped moving, per probe, over the cases
	// that bisected.
	probes := [3]string{"uniform", "above mean", "below max"}
	var solved, steps [3]int
	for k := 0; k < dists; k++ {
		d := randomDist(r)
		mean, max := d.Mean(), d.Max()
		for j, a := range [3]float64{
			mean + r.Float64()*(max-mean),
			math.Nextafter(mean, math.Inf(1)),
			math.Nextafter(max, math.Inf(-1)),
		} {
			want, n := refRateFunction(d, a)
			if got := d.RateFunction(a); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("RateFunction(%v) on %+v = %v, fixed-count bisection gives %v", a, d, got, want)
			}
			if n > 0 {
				solved[j]++
				steps[j] += n
			}
		}
		if k%200 == 0 {
			n := 1 + r.IntN(1000)
			target := math.Pow(10, -1-8*r.Float64())
			want := refCapacityForTail(d, n, target)
			if got := d.CapacityForTail(n, target); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("CapacityForTail(%d, %v) on %+v = %v, fixed-count bisection gives %v", n, target, d, got, want)
			}
		}
	}
	for j, name := range probes {
		t.Logf("a %s: %d of %d cases bisected, bracket fixed after %.1f halvings on average",
			name, solved[j], dists, float64(steps[j])/float64(solved[j]))
	}
}

// FuzzRateFunction checks the same bit-equality on fuzzer-built
// distributions: each 3-byte group of raw is one level (a weight byte, zero
// meaning zero probability, and a 16-bit position on a 12-decade log
// scale), and u places a inside (mean, max); a u outside [0, 1] probes just
// above the mean.
func FuzzRateFunction(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 0xFF, 0xFF}, 0.5)
	f.Add([]byte{9, 0x10, 0, 1, 0x40, 0, 0, 0x80, 0, 3, 0xC0, 0}, 2.0)
	f.Add([]byte{200, 0x55, 0x55, 1, 0xAA, 0xAA}, 0.999)
	f.Fuzz(func(t *testing.T, raw []byte, u float64) {
		n := min(len(raw)/3, 30)
		if n == 0 {
			return
		}
		d := Dist{P: make([]float64, n), X: make([]float64, n)}
		var sum float64
		for i := range d.P {
			d.P[i] = float64(raw[3*i])
			sum += d.P[i]
			d.X[i] = math.Pow(10, 12*float64(binary.BigEndian.Uint16(raw[3*i+1:]))/math.MaxUint16)
		}
		if sum == 0 {
			return
		}
		for i := range d.P {
			d.P[i] /= sum
		}
		mean, max := d.Mean(), d.Max()
		a := math.Nextafter(mean, math.Inf(1))
		if u >= 0 && u <= 1 {
			a = mean + u*(max-mean)
		}
		want, _ := refRateFunction(d, a)
		if got := d.RateFunction(a); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("RateFunction(%v) on %+v = %v, fixed-count bisection gives %v", a, d, got, want)
		}
	})
}
