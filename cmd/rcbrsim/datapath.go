package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"text/tabwriter"
	"time"

	"rcbr/internal/datapath"
	"rcbr/internal/heuristic"
	"rcbr/internal/mesh"
	"rcbr/internal/metrics"
	"rcbr/internal/switchfab"
	"rcbr/internal/trace"
)

// datapathRun replays real 53-byte cells through a chain of
// datapath.Forwarder switches. Each of N video sources first runs the RCBR
// heuristic offline to obtain its granted-rate schedule; the replay then
// offers the trace's *raw frame-rate* cell stream to the first hop while
// every hop's per-VC shaper enforces the *granted* rate, retargeting live
// at each schedule change. Policed drops therefore measure exactly the
// traffic a source that skipped its smoothing buffer would lose — the
// paper's policing argument, observed on forwarded cells rather than
// modeled — and delivered cells carry measured end-to-end delay in cell
// slots. Emits a per-second loss/delay CSV plus a wall-clock cells/sec
// figure for the forwarding loop itself.
func datapathRun(args []string) error {
	fs := flag.NewFlagSet("datapath", flag.ExitOnError)
	frames, seed := commonFlags(fs)
	n := fs.Int("n", 4, "number of sources sharing the chain")
	hopCount := fs.Int("hops", 3, "forwarders on the chain")
	hopDelay := fs.Int64("hopdelay", 2, "per-link propagation delay in cell slots")
	buffer := fs.Float64("buffer", 300e3, "per-source heuristic buffer (bits)")
	delta := fs.Float64("delta", 64e3, "heuristic granularity (bits/s)")
	capFrac := fs.Float64("capfrac", 1.2, "link capacity as a multiple of aggregate mean rate")
	depth := fs.Int("depth", 64, "per-VC shaper depth (cells)")
	ring := fs.Int("ring", 1024, "ring capacity per port (cells)")
	csvOut := fs.String("csv", "datapath.csv", "per-second loss/delay CSV (- for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *frames <= 0 || *frames > 14400 {
		*frames = 2400 // cell-level replay; keep it short
	}
	if *n < 1 {
		*n = 1
	}
	if *hopCount < 1 {
		return fmt.Errorf("need at least one forwarder, got -hops %d", *hopCount)
	}
	if *hopDelay < 0 {
		return fmt.Errorf("negative -hopdelay %d", *hopDelay)
	}

	report := io.Writer(os.Stdout)
	if *csvOut == "-" {
		report = os.Stderr
	}

	// Phase 1: the control plane, offline. Each source runs the heuristic
	// over its own trace to produce the granted-rate schedule the shapers
	// will enforce.
	type source struct {
		tr    *trace.Trace
		rates []float64 // granted bits/s per frame slot
		id    switchfab.VCID
	}
	srcs := make([]*source, *n)
	var aggregate float64
	p := heuristic.DefaultParams(*delta)
	for i := range srcs {
		tr := buildTrace(*frames, *seed+uint64(i))
		res, err := heuristic.Run(tr, *buffer, p, heuristic.AlwaysGrant{})
		if err != nil {
			return err
		}
		srcs[i] = &source{
			tr:    tr,
			rates: res.Schedule.Rates(),
			id:    switchfab.MakeVCID(1, uint16(100+i)),
		}
		aggregate += tr.MeanRate()
	}
	linkCellRate := aggregate * *capFrac / datapath.CellPayloadBits
	slotNanos := int64(1e9 / linkCellRate)
	frameSec := srcs[0].tr.SlotSeconds()
	ticksPerFrame := frameSec * linkCellRate
	if ticksPerFrame < 1 {
		return fmt.Errorf("link rate %.0f cells/s is under one cell per frame", linkCellRate)
	}

	// Phase 2: the data plane. A chain of forwarders, ingress port 0 and
	// egress port 1 each, every source's VC installed at every hop at its
	// initial granted rate.
	reg := metrics.NewRegistry()
	fws := make([]*datapath.Forwarder, *hopCount)
	hops := make([]mesh.CellHop, *hopCount)
	for k := range fws {
		fw := datapath.New(
			datapath.WithRingCells(*ring),
			datapath.WithDepthCells(*depth),
			datapath.WithMetrics(reg),
		)
		if _, err := fw.AddPort(0); err != nil {
			return err
		}
		if _, err := fw.AddPort(1); err != nil {
			return err
		}
		for _, s := range srcs {
			if err := fw.AddVC(s.id, 1, s.rates[0]); err != nil {
				return err
			}
		}
		fws[k] = fw
		hops[k] = mesh.CellHop{FW: fw, In: 0, Out: 1, DelaySlots: *hopDelay}
	}
	cp, err := mesh.NewCellPath(hops, slotNanos)
	if err != nil {
		return err
	}

	fmt.Fprintf(report, "datapath: %d sources, %d-hop forwarder chain, link %.0f cells/s (%.2fx aggregate mean)\n",
		*n, *hopCount, linkCellRate, *capFrac)
	fmt.Fprintf(report, "replaying raw frame-rate cells against granted-rate shapers (depth %d cells)\n", *depth)

	out := os.Stdout
	if *csvOut != "-" {
		f, err := os.Create(*csvOut)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	w := csv.NewWriter(out)
	if err := w.Write([]string{
		"seconds", "offered", "policed", "overflow", "delivered",
		"queue_cells", "mean_delay_slots",
	}); err != nil {
		return err
	}

	// Phase 3: the replay. Virtual time advances one cell slot per tick;
	// each source offers cells by the drift-free cumulative law on its raw
	// frame bits, and each frame boundary retargets the shapers to the
	// granted rate in force.
	ticks := int64(float64(*frames) * ticksPerFrame)
	ticksPerSec := int64(linkCellRate)
	offered := make([]int64, *n)   // cells injected so far per source
	cumBits := make([]float64, *n) // trace bits fully elapsed per source
	curRate := make([]float64, *n) // granted rate currently installed
	for i, s := range srcs {
		curRate[i] = s.rates[0]
	}
	curFrame := -1
	retargets := 0
	var offTotal, lastOff, lastPol, lastOvf, lastDel int64
	start := time.Now()
	for tick := int64(0); tick < ticks; tick++ {
		if f := int(float64(tick) / ticksPerFrame); f > curFrame {
			// Frame boundary: bank the finished frames' bits and apply any
			// schedule changes to every hop's shaper.
			for i, s := range srcs {
				for fr := curFrame; fr >= 0 && fr < f && fr < s.tr.Len(); fr++ {
					cumBits[i] += float64(s.tr.FrameBits[fr])
				}
				if f < len(s.rates) && s.rates[f] != curRate[i] {
					for _, fw := range fws {
						if err := fw.SetVCRate(s.id, s.rates[f]); err != nil {
							return err
						}
					}
					curRate[i] = s.rates[f]
					retargets++
				}
			}
			curFrame = f
		}
		frac := float64(tick+1)/ticksPerFrame - float64(curFrame)
		for i, s := range srcs {
			if curFrame >= s.tr.Len() {
				continue
			}
			bits := cumBits[i] + frac*float64(s.tr.FrameBits[curFrame])
			if target := int64(bits / datapath.CellPayloadBits); target > offered[i] {
				for ; offered[i] < target; offered[i]++ {
					cp.InjectStamped(s.id, tick)
					offTotal++
				}
			}
		}
		cp.Step(tick)
		if (tick+1)%ticksPerSec == 0 {
			st := cp.Stats()
			var pol, ovf int64
			var queued int
			for k := range fws {
				in, outP := cp.Hop(k)
				ps := in.Stats()
				pol += ps.Policed
				ovf += ps.Overflow
				queued += in.InLen() + outP.OutLen()
			}
			if err := w.Write([]string{
				strconv.FormatInt((tick+1)/ticksPerSec, 10),
				strconv.FormatInt(offTotal-lastOff, 10),
				strconv.FormatInt(pol-lastPol, 10),
				strconv.FormatInt(ovf-lastOvf, 10),
				strconv.FormatInt(st.Delivered-lastDel, 10),
				strconv.Itoa(queued),
				strconv.FormatFloat(st.MeanDelaySlots(), 'f', 2, 64),
			}); err != nil {
				return err
			}
			lastOff, lastPol, lastOvf, lastDel = offTotal, pol, ovf, st.Delivered
		}
	}
	// Drain the pipeline: no new arrivals, rings and links empty out.
	for tick := ticks; cp.InFlight() > 0 || chainQueued(cp, len(fws)) > 0; tick++ {
		cp.Step(tick)
		if tick > ticks+int64(*ring)*int64(*hopCount)*4 {
			return fmt.Errorf("drain did not converge")
		}
	}
	elapsed := time.Since(start)
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}

	st := cp.Stats()
	var pol, ovf int64
	for k := range fws {
		in, _ := cp.Hop(k)
		ps := in.Stats()
		pol += ps.Policed
		ovf += ps.Overflow
	}
	fmt.Fprintf(report, "offered %d cells, delivered %d (%.2f%% lost: %d policed, %d overflow, %d link drops)\n",
		offTotal, st.Delivered, 100*float64(offTotal-st.Delivered)/float64(max64(offTotal, 1)),
		pol, ovf, st.LinkDrops)
	fmt.Fprintf(report, "delay: mean %.1f slots (%.2f ms), max %d slots; shaper retargets: %d\n",
		st.MeanDelaySlots(), st.MeanDelaySlots()*float64(slotNanos)/1e6,
		st.MaxDelaySlots, retargets)
	snap := reg.Snapshot()
	hot := snap.Counters[datapath.MetricCellsForwarded] + snap.Counters[datapath.MetricCellsTransmitted]
	fmt.Fprintf(report, "forwarding loop: %d cell moves in %v wall clock = %.2f Mcells/s/core\n",
		hot, elapsed.Round(time.Millisecond), float64(hot)/elapsed.Seconds()/1e6)
	tw := tabwriter.NewWriter(report, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue")
	for _, name := range []string{
		datapath.MetricCellsArrived, datapath.MetricCellsForwarded,
		datapath.MetricCellsPoliced, datapath.MetricCellsOverflow,
		datapath.MetricCellsTransmitted, datapath.MetricForwardBatches,
	} {
		fmt.Fprintf(tw, "%s\t%d\n", name, snap.Counters[name])
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if *csvOut != "-" {
		fmt.Fprintf(report, "time series: %s\n", *csvOut)
	}
	return nil
}

// chainQueued sums the cells still sitting in any ring on the path.
func chainQueued(cp *mesh.CellPath, hops int) int {
	n := 0
	for k := 0; k < hops; k++ {
		in, out := cp.Hop(k)
		n += in.InLen() + out.OutLen()
	}
	return n
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
