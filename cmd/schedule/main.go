// Command schedule computes RCBR renegotiation schedules for a trace: the
// optimal offline schedule (Section IV-A) or the causal online heuristic
// (Section IV-B).
//
// Usage:
//
//	schedule -mode offline [-in trace] [-alpha A] [-beta B] [-buffer BITS]
//	         [-levels K] [-delay SLOTS] [-drained] [-dump]
//	schedule -mode online  [-in trace] [-delta RATE] [-gopaware] [-dump]
//
// Without -in, a synthetic Star-Wars-class trace is generated (-frames,
// -seed control it).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"text/tabwriter"

	"rcbr/internal/core"
	"rcbr/internal/experiments"
	"rcbr/internal/heuristic"
	"rcbr/internal/trace"
	"rcbr/internal/trellis"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "schedule:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("schedule", flag.ContinueOnError)
	var (
		mode    = fs.String("mode", "offline", "offline (optimal) or online (AR1 heuristic)")
		in      = fs.String("in", "", "trace file (empty: synthesize)")
		frames  = fs.Int("frames", 28800, "synthetic trace frames")
		seed    = fs.Uint64("seed", 1, "synthetic trace seed")
		buffer  = fs.Float64("buffer", 300e3, "source buffer B (bits)")
		alpha   = fs.Float64("alpha", 1e6, "offline: cost per renegotiation")
		beta    = fs.Float64("beta", 1, "offline: cost per bit of allocation")
		levels  = fs.Int("levels", 20, "offline: number of bandwidth levels")
		delay   = fs.Int("delay", 0, "offline: delay bound in slots (0 = none)")
		drained = fs.Bool("drained", false, "offline: require the buffer drained at the end")
		delta   = fs.Float64("delta", 64e3, "online: bandwidth granularity (bits/s)")
		gop     = fs.Bool("gopaware", false, "online: use the GOP-aware predictor")
		dump    = fs.Bool("dump", false, "print every segment")
		cpuprof = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprof = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintln(os.Stderr, "schedule: memprofile:", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "schedule: memprofile:", err)
			}
			f.Close()
		}()
	}

	var tr *trace.Trace
	var err error
	if *in != "" {
		tr, err = trace.Load(*in)
	} else {
		tr = experiments.StarWars(*seed, *frames)
	}
	if err != nil {
		return err
	}
	sum, err := tr.Summarize()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "trace:", sum)

	var sch *core.Schedule
	switch *mode {
	case "offline":
		opts := trellis.Options{
			Levels:          experiments.FeasibleLevels(tr, *buffer, *levels),
			BufferBits:      *buffer,
			BufferGridBits:  *buffer / 2048,
			DelayBoundSlots: *delay,
			Cost:            core.CostModel{Alpha: *alpha, Beta: *beta},
			RequireDrained:  *drained,
			FinalSlackBits:  *buffer / 100,
		}
		var st trellis.Stats
		sch, st, err = trellis.Optimize(tr, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "optimal cost: %.4g (nodes expanded %d, max frontier %d)\n",
			st.Cost, st.NodesExpanded, st.MaxFrontier)
	case "online":
		p := heuristic.DefaultParams(*delta)
		if *gop {
			p.Predictor = &heuristic.GOP{Len: 12, Coeff: p.ARCoeff}
		}
		res, err := heuristic.Run(tr, *buffer, p, nil)
		if err != nil {
			return err
		}
		sch = res.Schedule
		fmt.Fprintf(out, "online run: attempts=%d failures=%d lost=%.0f bits maxOcc=%.0f bits\n",
			res.Attempts, res.Failures, res.LostBits, res.MaxOccupancy)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}

	fmt.Fprintf(out, "schedule: segments=%d renegotiations=%d interval=%.2fs\n",
		len(sch.Segments), sch.Renegotiations(), sch.MeanRenegIntervalSec())
	fmt.Fprintf(out, "rates: mean=%.0f peak=%.0f b/s, bandwidth efficiency=%.4f\n",
		sch.MeanRate(), sch.PeakRate(), sch.BandwidthEfficiency(tr))
	res := sch.Run(tr, *buffer)
	fmt.Fprintf(out, "replay: lost=%.0f bits (%.2e of arrivals), max occupancy=%.0f bits\n",
		res.LostBits, res.LossFraction(), res.MaxOccupancy)

	if *dump {
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "start(s)\trate(kb/s)")
		for _, ev := range sch.Events() {
			fmt.Fprintf(w, "%.2f\t%.0f\n", ev.TimeSec, ev.Rate/1e3)
		}
		return w.Flush()
	}
	return nil
}
