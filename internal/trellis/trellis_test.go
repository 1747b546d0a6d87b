package trellis

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"rcbr/internal/core"
	"rcbr/internal/stats"
	"rcbr/internal/trace"
)

// bruteForce enumerates every rate sequence and returns the minimal cost, or
// +Inf if no sequence is feasible. Used to verify optimality on tiny cases.
func bruteForce(tr *trace.Trace, opt Options) float64 {
	slot := tr.SlotSeconds()
	K := len(opt.Levels)
	T := tr.Len()
	caps := bufferCaps(tr, opt)
	best := math.Inf(1)
	seq := make([]int, T)
	var rec func(t int, q, cost float64)
	rec = func(t int, q, cost float64) {
		if cost >= best {
			return
		}
		if t == T {
			best = cost
			return
		}
		for k := 0; k < K; k++ {
			nq := q + float64(tr.FrameBits[t]) - opt.Levels[k]*slot
			if nq < 0 {
				nq = 0
			}
			if nq > caps[t] {
				continue
			}
			c := cost + opt.Cost.Beta*opt.Levels[k]*slot
			if t > 0 && seq[t-1] != k {
				c += opt.Cost.Alpha
			}
			seq[t] = k
			rec(t+1, nq, c)
		}
	}
	rec(0, 0, 0)
	return best
}

func smallOptions(levels []float64, B, alpha, beta float64) Options {
	return Options{
		Levels:     levels,
		BufferBits: B,
		Cost:       core.CostModel{Alpha: alpha, Beta: beta},
	}
}

func TestOptimalMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		T := 5 + r.Intn(4)
		bits := make([]int64, T)
		for i := range bits {
			bits[i] = int64(r.Intn(20))
		}
		tr := trace.New(bits, 1)
		levels := []float64{5, 12, 25}
		B := float64(5 + r.Intn(30))
		alpha := float64(r.Intn(40))
		beta := 0.5 + r.Float64()
		opt := smallOptions(levels, B, alpha, beta)

		want := bruteForce(tr, opt)
		sch, st, err := Optimize(tr, opt)
		if math.IsInf(want, 1) {
			return errors.Is(err, ErrInfeasible)
		}
		if err != nil {
			return false
		}
		if math.Abs(st.Cost-want) > 1e-9*(1+want) {
			t.Logf("seed %d: trellis cost %v, brute force %v", seed, st.Cost, want)
			return false
		}
		// Reported cost must equal the cost model evaluated on the schedule.
		if cm := opt.Cost.Cost(sch); math.Abs(cm-st.Cost) > 1e-9*(1+want) {
			t.Logf("seed %d: schedule cost %v != stats cost %v", seed, cm, st.Cost)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAllPruningsAgree(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		T := 6 + r.Intn(4)
		bits := make([]int64, T)
		for i := range bits {
			bits[i] = int64(r.Intn(15))
		}
		tr := trace.New(bits, 1)
		opt := smallOptions([]float64{4, 9, 16}, 20, float64(r.Intn(20)), 1)

		var costs [3]float64
		for i, pr := range []Pruning{PruneFull, PruneSameRate, PruneExact} {
			opt.Pruning = pr
			_, st, err := Optimize(tr, opt)
			if err != nil {
				return errors.Is(err, ErrInfeasible)
			}
			costs[i] = st.Cost
		}
		return math.Abs(costs[0]-costs[1]) < 1e-9 && math.Abs(costs[1]-costs[2]) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConstantTrace(t *testing.T) {
	bits := make([]int64, 50)
	for i := range bits {
		bits[i] = 10
	}
	tr := trace.New(bits, 1)
	opt := smallOptions([]float64{5, 10, 20}, 100, 10, 1)
	opt.RequireDrained = true
	sch, st, err := Optimize(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sch.Renegotiations() != 0 {
		t.Fatalf("constant trace got %d renegotiations", sch.Renegotiations())
	}
	if sch.Segments[0].Rate != 10 {
		t.Fatalf("rate = %v, want 10", sch.Segments[0].Rate)
	}
	if math.Abs(st.Cost-500) > 1e-9 {
		t.Fatalf("cost = %v, want 500", st.Cost)
	}
}

func TestBufferParkingWithoutDrainConstraint(t *testing.T) {
	// Without the terminal constraint the optimizer legitimately fills the
	// buffer at a cheap rate and leaves it full, saving beta*B: the paper's
	// formulation (eq. 2) has no terminal condition.
	bits := make([]int64, 50)
	for i := range bits {
		bits[i] = 10
	}
	tr := trace.New(bits, 1)
	opt := smallOptions([]float64{5, 10, 20}, 100, 10, 1)
	_, free, err := Optimize(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.RequireDrained = true
	_, drained, err := Optimize(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if free.Cost >= drained.Cost {
		t.Fatalf("parking should be cheaper: free %v, drained %v", free.Cost, drained.Cost)
	}
}

func TestBufferAbsorbsBurst(t *testing.T) {
	// A single burst small enough for the buffer should not force a rate
	// change when renegotiation is expensive.
	bits := []int64{10, 10, 30, 10, 10, 10, 10, 10}
	tr := trace.New(bits, 1)
	sch, _, err := Optimize(tr, smallOptions([]float64{10, 15, 30}, 25, 1000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if sch.Renegotiations() != 0 {
		t.Fatalf("burst within buffer still caused %d renegotiations", sch.Renegotiations())
	}
	// The constant rate must exceed 10 to drain the burst eventually... or
	// stay at 10 and keep 20 bits in the 25-bit buffer, which is cheaper.
	if sch.Segments[0].Rate != 10 {
		t.Fatalf("rate = %v, want 10 (buffer absorbs the burst)", sch.Segments[0].Rate)
	}
}

func TestCheapRenegotiationTracks(t *testing.T) {
	// With free renegotiation and tiny buffer, the schedule must track the
	// source rate closely.
	bits := []int64{5, 5, 25, 25, 5, 5}
	tr := trace.New(bits, 1)
	sch, _, err := Optimize(tr, smallOptions([]float64{5, 25}, 1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	rates := sch.Rates()
	want := []float64{5, 5, 25, 25, 5, 5}
	for i := range want {
		if rates[i] != want[i] {
			t.Fatalf("rates = %v, want %v", rates, want)
		}
	}
}

func TestInfeasible(t *testing.T) {
	tr := trace.New([]int64{100, 100, 100}, 1)
	_, _, err := Optimize(tr, smallOptions([]float64{1, 2}, 10, 1, 1))
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestValidation(t *testing.T) {
	tr := trace.New([]int64{1, 2}, 1)
	bad := []Options{
		{},                                     // no levels
		{Levels: []float64{2, 1}},              // not ascending
		{Levels: []float64{1, 1}},              // not strict
		{Levels: []float64{-1, 1}},             // negative level
		{Levels: []float64{1}, BufferBits: -1}, // negative buffer
		{Levels: []float64{1}, Cost: core.CostModel{Alpha: -1}},
		{Levels: []float64{1}, DelayBoundSlots: -1},
	}
	for i, opt := range bad {
		if _, _, err := Optimize(tr, opt); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
	if _, _, err := Optimize(trace.New(nil, 1), smallOptions([]float64{1}, 1, 1, 1)); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestScheduleAlwaysFeasible(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		tr := trace.SyntheticStarWarsFrames(seed, 480)
		levels := stats.UniformLevels(48e3, 3e6, 8)
		B := 100e3 + 400e3*r.Float64()
		opt := smallOptions(levels, B, 1e5*r.Float64(), 1)
		sch, _, err := Optimize(tr, opt)
		if err != nil {
			return errors.Is(err, ErrInfeasible)
		}
		return sch.Run(tr, B).LostBits == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestAlphaTradeoff(t *testing.T) {
	// Raising the renegotiation price must not increase the renegotiation
	// count and must not increase bandwidth efficiency (Fig. 2 shape).
	tr := trace.SyntheticStarWarsFrames(5, 1200) // 50 s
	levels := stats.UniformLevels(48e3, 3e6, 10)
	prevRenegs := math.MaxInt
	prevEff := 2.0
	for _, alpha := range []float64{0, 1e4, 1e6, 1e8} {
		sch, _, err := Optimize(tr, Options{
			Levels: levels, BufferBits: 300e3,
			BufferGridBits: 300e3 / 2048,
			Cost:           core.CostModel{Alpha: alpha, Beta: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		renegs := sch.Renegotiations()
		eff := sch.BandwidthEfficiency(tr)
		if renegs > prevRenegs {
			t.Fatalf("alpha %g: renegotiations rose to %d", alpha, renegs)
		}
		if eff > prevEff+1e-9 {
			t.Fatalf("alpha %g: efficiency rose to %v", alpha, eff)
		}
		prevRenegs, prevEff = renegs, eff
	}
	if prevRenegs == 0 {
		t.Log("note: even the largest alpha yielded a constant schedule")
	}
}

func TestDelayBound(t *testing.T) {
	tr := trace.SyntheticStarWarsFrames(9, 600)
	d := 12 // half a second at 24 fps
	opt := Options{
		Levels:          stats.UniformLevels(48e3, 3e6, 10),
		BufferBits:      1e6,
		DelayBoundSlots: d,
		Cost:            core.CostModel{Alpha: 1e4, Beta: 1},
	}
	sch, _, err := Optimize(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Verify eq. (5) directly: data entering slot t has left by t+d, i.e.
	// occupancy at the end of slot s never exceeds arrivals of the last d
	// slots.
	rates := sch.Rates()
	slot := tr.SlotSeconds()
	var q, window float64
	for s := 0; s < tr.Len(); s++ {
		a := float64(tr.FrameBits[s])
		window += a
		if s >= d {
			window -= float64(tr.FrameBits[s-d])
		}
		q += a - rates[s]*slot
		if q < 0 {
			q = 0
		}
		if q > window+1e-6 {
			t.Fatalf("slot %d: occupancy %v exceeds %d-slot arrival window %v",
				s, q, d, window)
		}
	}
}

func TestDelayBoundTightensCost(t *testing.T) {
	tr := trace.SyntheticStarWarsFrames(10, 600)
	base := Options{
		Levels:     stats.UniformLevels(48e3, 3e6, 10),
		BufferBits: 1e6,
		Cost:       core.CostModel{Alpha: 1e4, Beta: 1},
	}
	_, unconstrained, err := Optimize(tr, base)
	if err != nil {
		t.Fatal(err)
	}
	base.DelayBoundSlots = 6
	_, constrained, err := Optimize(tr, base)
	if err != nil {
		t.Fatal(err)
	}
	if constrained.Cost < unconstrained.Cost-1e-6 {
		t.Fatalf("delay bound lowered cost: %v < %v",
			constrained.Cost, unconstrained.Cost)
	}
}

func TestMaxFrontierTruncation(t *testing.T) {
	tr := trace.SyntheticStarWarsFrames(11, 600)
	opt := Options{
		Levels:      stats.UniformLevels(48e3, 3e6, 12),
		BufferBits:  300e3,
		Cost:        core.CostModel{Alpha: 1e5, Beta: 1},
		MaxFrontier: 4,
	}
	sch, st, err := Optimize(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxFrontier > 4 {
		t.Fatalf("frontier %d exceeded cap", st.MaxFrontier)
	}
	// Truncated results must still be feasible schedules.
	if !sch.Feasible(tr, opt.BufferBits) {
		t.Fatal("truncated schedule infeasible")
	}
}

func TestStatsPopulated(t *testing.T) {
	tr := trace.SyntheticStarWarsFrames(12, 480)
	_, st, err := Optimize(tr, Options{
		Levels:     stats.UniformLevels(48e3, 3e6, 8),
		BufferBits: 300e3,
		Cost:       core.CostModel{Alpha: 1e4, Beta: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.NodesExpanded == 0 || st.MaxFrontier == 0 || st.Cost <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Truncated {
		t.Fatal("unexpected truncation")
	}
}

func TestBufferGridNearOptimal(t *testing.T) {
	tr := trace.SyntheticStarWarsFrames(14, 960)
	opt := Options{
		Levels:     stats.UniformLevels(48e3, 3e6, 10),
		BufferBits: 300e3,
		Cost:       core.CostModel{Alpha: 1e5, Beta: 1},
	}
	schExact, exact, err := Optimize(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.BufferGridBits = 300e3 / 2048
	schGrid, grid, err := Optimize(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Conservative quantization can only raise the cost, and only slightly.
	if grid.Cost < exact.Cost-1e-6 {
		t.Fatalf("grid cost %v below exact %v", grid.Cost, exact.Cost)
	}
	if grid.Cost > exact.Cost*1.02 {
		t.Fatalf("grid cost %v more than 2%% above exact %v", grid.Cost, exact.Cost)
	}
	// Quantized schedules must remain truly feasible.
	if !schGrid.Feasible(tr, opt.BufferBits) || !schExact.Feasible(tr, opt.BufferBits) {
		t.Fatal("schedule infeasible")
	}
	if grid.MaxFrontier > exact.MaxFrontier {
		t.Fatalf("grid frontier %d larger than exact %d", grid.MaxFrontier, exact.MaxFrontier)
	}
}

func TestRequireDrainedInfeasibleSlack(t *testing.T) {
	// A final burst that cannot drain in time makes RequireDrained fail
	// while the unconstrained problem stays solvable.
	tr := trace.New([]int64{1, 1, 1, 100}, 1)
	opt := smallOptions([]float64{1, 10}, 200, 1, 1)
	if _, _, err := Optimize(tr, opt); err != nil {
		t.Fatalf("unconstrained: %v", err)
	}
	opt.RequireDrained = true
	if _, _, err := Optimize(tr, opt); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	// With enough slack it succeeds again.
	opt.FinalSlackBits = 95
	if _, _, err := Optimize(tr, opt); err != nil {
		t.Fatalf("slack 95: %v", err)
	}
}

func TestFullPruningShrinksFrontier(t *testing.T) {
	tr := trace.SyntheticStarWarsFrames(13, 480)
	opt := Options{
		Levels:     stats.UniformLevels(48e3, 3e6, 8),
		BufferBits: 300e3,
		Cost:       core.CostModel{Alpha: 1e4, Beta: 1},
	}
	_, full, err := Optimize(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Pruning = PruneSameRate
	_, same, err := Optimize(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if full.MaxFrontier > same.MaxFrontier {
		t.Fatalf("full pruning frontier %d > same-rate %d",
			full.MaxFrontier, same.MaxFrontier)
	}
	if math.Abs(full.Cost-same.Cost) > 1e-6*(1+full.Cost) {
		t.Fatalf("pruning changed cost: %v vs %v", full.Cost, same.Cost)
	}
}

// TestSteadyStateAllocations is the regression test for the scratch-slice
// reuse: with a single level there are no rate switches (so no per-segment
// event allocations beyond slot 0), and once the pooled arenas are warm a
// whole Optimize call must not allocate per slot. The sort-based global
// merge this replaced allocated on every slot, which this bound catches.
func TestSteadyStateAllocations(t *testing.T) {
	bits := make([]int64, 2000)
	for i := range bits {
		bits[i] = 10
	}
	tr := trace.New(bits, 1)
	opt := Options{
		Levels:     []float64{10},
		BufferBits: 100,
		Cost:       core.CostModel{Alpha: 5, Beta: 1},
	}
	// Warm the pool so the measured runs reuse the arena.
	if _, _, err := Optimize(tr, opt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := Optimize(tr, opt); err != nil {
			t.Fatal(err)
		}
	})
	// Per-call overhead: caps slice, schedule + segments, the pool
	// round-trip and a few fixed-size headers — nothing proportional to
	// the 2000 slots.
	if allocs > 25 {
		t.Fatalf("Optimize allocated %.0f times for a 2000-slot trace; "+
			"per-slot scratch is regrowing", allocs)
	}
}

// TestMultiLevelAllocationsScaleWithSegments checks the multi-rate steady
// state. A surviving rate-switch state legitimately allocates one event
// node (that is the documented one-node-per-segment-candidate design), so
// the zero-growth assertion needs a workload whose steady state accepts no
// switch candidates at all: with levels {1, 10}, 10 bits/slot and B = 5,
// every switch down to rate 1 lands at occupancy 9 > B and is rejected on
// the buffer cap before any entry or event exists. What remains per slot is
// the global merge and the cross-rate prune — exactly the machinery whose
// sort- and scratch-allocations this PR removed — and they must cost
// nothing as the trace doubles.
func TestMultiLevelAllocationsScaleWithSegments(t *testing.T) {
	allocsAt := func(T int) float64 {
		bits := make([]int64, T)
		for i := range bits {
			bits[i] = 10
		}
		tr := trace.New(bits, 1)
		opt := Options{
			Levels:     []float64{1, 10},
			BufferBits: 5,
			Cost:       core.CostModel{Alpha: 50, Beta: 1},
		}
		if _, _, err := Optimize(tr, opt); err != nil { // warm pool
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, _, err := Optimize(tr, opt); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocsAt(500), allocsAt(1000)
	if grow := long - short; grow > 50 {
		t.Fatalf("allocations grew by %.0f over 500 extra slots (%.0f -> %.0f)",
			grow, short, long)
	}
}
