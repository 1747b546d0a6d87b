package main

import (
	"fmt"
	"runtime"
	"time"

	"rcbr/internal/core"
	"rcbr/internal/experiments"
	"rcbr/internal/heuristic"
	"rcbr/internal/trace"
	"rcbr/internal/trellis"
)

// The optimize workload runs the paper's Section IV-A optimal offline
// schedule: trellis.Optimize calls back to back, closed loop, on serial
// default options. The options are BenchmarkTrellisLevels20's: 20 feasible
// levels, B = 300 kb, buffer grid B/2048, alpha = 1e6, beta = 1. A call's
// cost varies about 2x with the trace's scenes, so a run cycles through a
// pool of 256 seeded 240-frame (10 s) traces in whole passes, and its
// figures average over the pool rather than hang on one trace.
const (
	optTraces    = 256
	optFrames    = 240
	optBuffer    = 300e3
	optLevels    = 20
	optHeurDelta = 100e3 // heuristic granularity for the cost comparison
)

var optimizeWorkload = workload{
	name:    "optimize",
	summary: "closed loop, 1 caller: trellis.Optimize over a pool of 256 Star Wars traces of 240 frames, 20 levels, B=300 kb; op = one Optimize call",
	tree:    map[string]string{"Optimize": ""},
	setups:  101,
	measure: measureOptimize,
}

// optInput is one pool trace with its options and reference cost.
type optInput struct {
	tr       *trace.Trace
	opts     trellis.Options
	heurCost float64
	first    *trellis.Stats // the first call's result, which later calls must repeat
}

func optimizeInputs(seed uint64) ([]*optInput, error) {
	var in []*optInput
	for i := 0; i < optTraces; i++ {
		trc := experiments.StarWars(seed*1000+uint64(i), optFrames)
		opts := trellis.Options{
			Levels:         experiments.FeasibleLevels(trc, optBuffer, optLevels),
			BufferBits:     optBuffer,
			BufferGridBits: optBuffer / 2048,
			Cost:           core.CostModel{Alpha: 1e6, Beta: 1},
		}
		heur, err := heuristic.Run(trc, optBuffer, heuristic.DefaultParams(optHeurDelta), heuristic.AlwaysGrant{})
		if err != nil {
			return nil, fmt.Errorf("heuristic reference: %w", err)
		}
		in = append(in, &optInput{tr: trc, opts: opts, heurCost: opts.Cost.Cost(heur.Schedule)})
	}
	return in, nil
}

func measureOptimize(cfg config, p pass) (*outcome, error) {
	pool, err := optimizeInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	o := &outcome{layer: map[string]float64{}}
	var req int64
	var infeasible, costlier, differ int
	call := func(in *optInput) (time.Duration, error) {
		var t0 int64
		if p.tr != nil {
			t0 = p.tr.now()
		}
		start := time.Now()
		sch, st, err := trellis.Optimize(in.tr, in.opts)
		d := time.Since(start)
		if p.tr != nil {
			p.tr.record("Optimize", req, t0, p.tr.now())
		}
		req++
		o.attempted++
		if err != nil {
			o.failed++
			return d, err
		}
		switch {
		case in.first == nil:
			in.first = &st
			if st.Truncated || !sch.Feasible(in.tr, optBuffer) {
				infeasible++
				o.failed++
			}
			if st.Cost > in.heurCost {
				costlier++
			}
		case st != *in.first:
			differ++
			o.failed++
		}
		return d, nil
	}

	// Set-up: the optimizer keeps pooled scratch arenas, so a cold call
	// (after two GCs empty the pools) pays the set-up a fresh process pays.
	// Successive set-ups take successive pool traces, so their median does
	// not hang on one trace's cost.
	for i := 0; i < p.reps(); i++ {
		runtime.GC()
		runtime.GC()
		d, err := call(pool[i%len(pool)])
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, d.Seconds())
	}

	alloc0, gc0 := allocSnapshot()
	deadline := time.Now().Add(time.Duration(p.seconds * float64(time.Second)))
	var wall time.Duration
	var calls int
	var rates []float64 // calls per second, per pass over the pool
	for len(rates) == 0 || time.Now().Before(deadline) {
		var passWall time.Duration
		for _, in := range pool {
			d, err := call(in)
			if err != nil {
				return nil, err
			}
			passWall += d
			calls++
			o.ops.add(d)
		}
		wall += passWall
		rates = append(rates, float64(len(pool))/passWall.Seconds())
	}
	alloc1, gc1 := allocSnapshot()
	o.allocBytes, o.gcCycles, o.opsForAlloc = alloc1-alloc0, gc1-gc0, float64(calls)
	o.opsPerSec = median(rates)

	var nodes, optCost, heurCost float64
	frontier := 0
	for _, in := range pool {
		nodes += float64(in.first.NodesExpanded)
		frontier = max(frontier, in.first.MaxFrontier)
		optCost += in.first.Cost
		heurCost += in.heurCost
	}
	o.checkf(infeasible == 0, "schedules feasible", "%d of %d traces infeasible or truncated", infeasible, len(pool))
	o.checkf(costlier == 0, "cost <= heuristic", "%d of %d traces cost more than the heuristic", costlier, len(pool))
	o.checkf(differ == 0, "repeat calls identical", "%d of %d calls differ from the trace's first", differ, calls)

	o.figure("optimize_s", o.ops.quantile(0.5)/1e9, "s")
	o.figure("optimal_cost_mean", optCost/optTraces, "cost")
	o.figure("heuristic_cost_mean", heurCost/optTraces, "cost")
	o.figure("passes", float64(calls/optTraces), "count")
	o.layer["trellis.nodes_expanded"] = nodes / optTraces
	o.layer["trellis.max_frontier"] = float64(frontier)
	o.layer["trellis.ns_per_node"] = float64(wall.Nanoseconds()) / (nodes * float64(calls) / optTraces)
	return o, nil
}
