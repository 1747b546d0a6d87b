package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"rcbr/internal/datapath"
	"rcbr/internal/experiments"
	"rcbr/internal/heuristic"
	"rcbr/internal/mesh"
	"rcbr/internal/metrics"
	"rcbr/internal/switchfab"
	"rcbr/internal/trace"
)

// The cellpath workload replays real 53-byte cells through a 3-hop
// mesh.CellPath, closed loop in virtual time on one goroutine. Each hop's
// default datapath.Forwarder is the data plane of that hop's switch in a
// mesh.Mesh, so every frame's schedule change retargets the shapers through
// mesh.Path.Renegotiate. 16 sources offer their raw frame-rate cell stream
// by the cell law of `rcbrsim datapath` while the shapers enforce the
// heuristic's granted schedule. A run replays the same input in rounds until
// its time is up; every round must produce identical virtual-time results.
const (
	cpSources  = 16
	cpHops     = 3
	cpFrames   = 2400 // 100 s of video per source per round
	cpHopDelay = 2    // link propagation delay, cell slots
	cpBuffer   = 300e3
	cpDelta    = 64e3
	cpCapFrac  = 1.2 // link rate as a multiple of the aggregate mean rate
	cpStride   = 64  // a traced pass traces one slot in this many
)

var cellpathWorkload = workload{
	name:    "cellpath",
	summary: "closed loop in virtual time, 1 goroutine: 16 Star Wars sources over a 3-hop mesh.CellPath, shapers retargeted by Path.Renegotiate; op = one frame interval of the replay",
	tree: map[string]string{
		"slot": "", "InjectStamped": "slot", "Step": "slot", "Path.Renegotiate": "slot",
		"DataPlane.OnRateChange": "Path.Renegotiate",
	},
	setups:  201,
	measure: measureCellPath,
}

// cpSource is one source's generated input.
type cpSource struct {
	tr    *trace.Trace
	rates []float64 // heuristic granted rate per frame
	id    switchfab.VCID
}

// cpInput is the generated input of a run.
type cpInput struct {
	srcs      []cpSource
	linkBits  float64 // link capacity, bits/s
	slotNanos int64
	perFrame  float64 // cell slots per frame
}

func cellPathInput(seed uint64) (*cpInput, error) {
	in := &cpInput{}
	var aggregate float64
	p := heuristic.DefaultParams(cpDelta)
	for i := 0; i < cpSources; i++ {
		tr := experiments.StarWars(seed*1000+uint64(i), cpFrames)
		res, err := heuristic.Run(tr, cpBuffer, p, heuristic.AlwaysGrant{})
		if err != nil {
			return nil, err
		}
		in.srcs = append(in.srcs, cpSource{tr: tr, rates: res.Schedule.Rates(), id: switchfab.MakeVCID(1, uint16(100+i))})
		aggregate += tr.MeanRate()
	}
	in.linkBits = aggregate * cpCapFrac
	cellRate := in.linkBits / datapath.CellPayloadBits
	in.slotNanos = int64(1e9 / cellRate)
	in.perFrame = in.srcs[0].tr.SlotSeconds() * cellRate
	if in.perFrame < 1 {
		return nil, fmt.Errorf("link rate %.0f cells/s is under one cell per frame", cellRate)
	}
	return in, nil
}

// cpNet is one built mesh with its cell path.
type cpNet struct {
	reg   *metrics.Registry
	fws   []*datapath.Forwarder
	paths []*mesh.Path
	cp    *mesh.CellPath
	cur   int64 // traced slot, or -1
}

func buildCellPath(ctx context.Context, in *cpInput, tr *tracer) (*cpNet, error) {
	n := &cpNet{reg: metrics.NewRegistry(), cur: -1}
	events := metrics.NewEventLog(256)
	m := mesh.New(mesh.WithDelayScale(0), mesh.WithMetrics(n.reg), mesh.WithEvents(events))
	names := []string{"s0", "s1", "s2", "sink"}
	cellHops := make([]mesh.CellHop, cpHops)
	for k := 0; k < cpHops; k++ {
		fw := datapath.New(datapath.WithMetrics(n.reg))
		for _, port := range []int{0, 1} {
			if _, err := fw.AddPort(port); err != nil {
				return nil, err
			}
		}
		var dp switchfab.DataPlane = fw
		if tr != nil {
			dp = &dataPlaneProbe{inner: fw, tr: tr, reqOf: func(int, switchfab.VCID) int64 { return n.cur }}
		}
		sw := switchfab.New(switchfab.WithMetrics(n.reg), switchfab.WithEventTrace(events), switchfab.WithDataPlane(dp))
		if err := m.AddSwitch(names[k], sw); err != nil {
			return nil, err
		}
		n.fws = append(n.fws, fw)
		cellHops[k] = mesh.CellHop{FW: fw, In: 0, Out: 1, DelaySlots: cpHopDelay}
	}
	if err := m.AddHost("sink"); err != nil {
		return nil, err
	}
	for k := 0; k < cpHops; k++ {
		if err := m.AddLink(names[k], names[k+1], 1, in.linkBits, time.Millisecond); err != nil {
			return nil, err
		}
	}
	route, err := m.Route(names...)
	if err != nil {
		return nil, err
	}
	for _, s := range in.srcs {
		p, err := m.SetupPath(ctx, s.id, route, s.rates[0])
		if err != nil {
			return nil, err
		}
		n.paths = append(n.paths, p)
	}
	if n.cp, err = mesh.NewCellPath(cellHops, in.slotNanos); err != nil {
		return nil, err
	}
	return n, nil
}

// cpRound is one replay's results.
type cpRound struct {
	stats      mesh.CellPathStats
	policed    int64
	overflow   int64
	unroutable int64
	badHeader  int64
	denials    int64
	ringInMax  int
	ringOutMax int
	conserved  bool
	wall       time.Duration
	frames     samples // wall time per frame interval
}

// replay runs the whole input through the path once. Virtual time advances
// one cell slot per tick; each source offers cells by the drift-free
// cumulative law on its raw frame bits, and each frame boundary asks the
// source's path for the rate its schedule grants. Only a traced replay
// samples the ring high-water marks, so an untraced replay's timed loop
// holds no benchmark bookkeeping.
func (n *cpNet) replay(ctx context.Context, in *cpInput, tr *tracer) (cpRound, error) {
	var r cpRound
	ns := len(in.srcs)
	offered := make([]int64, ns)
	cumBits := make([]float64, ns)
	curRate := make([]float64, ns)
	for i, s := range in.srcs {
		curRate[i] = s.rates[0]
	}
	ticks := int64(float64(cpFrames) * in.perFrame)
	curFrame := -1
	start := time.Now()
	prev := start
	traceSlot := func(tick int64) bool { return tr != nil && tick%cpStride == 0 }
	span := func(name string, tick int64, t0 int64) {
		if traceSlot(tick) {
			tr.record(name, tick, t0, tr.now())
		}
	}
	now := func(tick int64) int64 {
		if traceSlot(tick) {
			return tr.now()
		}
		return 0
	}
	for tick := int64(0); ; tick++ {
		draining := tick >= ticks
		if draining && n.cp.InFlight() == 0 && n.queued() == 0 {
			break
		}
		if tick > ticks+int64(datapath.DefaultRingCells)*cpHops*4 {
			return r, fmt.Errorf("path did not drain")
		}
		slot0 := now(tick)
		if traceSlot(tick) {
			n.cur = tick
		}
		if f := int(float64(tick) / in.perFrame); !draining && f > curFrame {
			if curFrame >= 0 {
				t := time.Now()
				r.frames.add(t.Sub(prev))
				prev = t
			}
			for i, s := range in.srcs {
				for fr := curFrame; fr >= 0 && fr < f; fr++ {
					cumBits[i] += float64(s.tr.FrameBits[fr])
				}
				if f < len(s.rates) && s.rates[f] != curRate[i] {
					t0 := now(tick)
					_, err := n.paths[i].Renegotiate(ctx, s.rates[f])
					span("Path.Renegotiate", tick, t0)
					var rerr *mesh.RateError
					if err != nil && !errors.As(err, &rerr) {
						return r, err
					}
					if err != nil {
						r.denials++
					}
					curRate[i] = s.rates[f]
				}
			}
			curFrame = f
		}
		if !draining {
			frac := float64(tick+1)/in.perFrame - float64(curFrame)
			for i, s := range in.srcs {
				bits := cumBits[i] + frac*float64(s.tr.FrameBits[curFrame])
				for target := int64(bits / datapath.CellPayloadBits); offered[i] < target; offered[i]++ {
					t0 := now(tick)
					n.cp.InjectStamped(s.id, tick)
					span("InjectStamped", tick, t0)
				}
			}
		}
		t0 := now(tick)
		n.cp.Step(tick)
		span("Step", tick, t0)
		if traceSlot(tick) {
			tr.record("slot", tick, slot0, tr.now())
			n.cur = -1
		}
		if tr != nil {
			for k := range n.fws {
				in, out := n.cp.Hop(k)
				r.ringInMax = max(r.ringInMax, in.InLen())
				r.ringOutMax = max(r.ringOutMax, out.OutLen())
			}
		}
	}
	r.wall = time.Since(start)
	r.stats = n.cp.Stats()
	r.conserved = n.conservation(&r)
	return r, nil
}

// queued sums the cells still in any ring on the path.
func (n *cpNet) queued() int {
	q := 0
	for k := range n.fws {
		in, out := n.cp.Hop(k)
		q += in.InLen() + out.OutLen()
	}
	return q
}

// conservation checks, hop by hop, that every cell a hop received was
// forwarded, policed or dropped, every forwarded cell was transmitted, and
// every transmitted cell reached the next hop, a link drop, or the sink.
func (n *cpNet) conservation(r *cpRound) bool {
	ok := true
	received := r.stats.Injected
	var lost int64
	for k := range n.fws {
		in, out := n.cp.Hop(k)
		is, os := in.Stats(), out.Stats()
		r.policed += is.Policed
		r.overflow += is.Overflow
		r.unroutable += is.Unroutable
		r.badHeader += is.BadHeader
		lost += received - is.Arrived
		ok = ok && is.Arrived == is.Forwarded+is.Policed+is.Overflow+is.Unroutable+is.BadHeader+int64(is.InQueued)
		ok = ok && os.Enqueued == is.Forwarded && os.Transmitted == os.Enqueued && os.OutQueued == 0
		received = os.Transmitted
	}
	lost += received - r.stats.Delivered
	ok = ok && lost == r.stats.LinkDrops
	return ok && r.stats.Injected == r.stats.Delivered+r.policed+r.overflow+r.stats.LinkDrops
}

func measureCellPath(cfg config, p pass) (*outcome, error) {
	tr := p.tr
	ctx := context.Background()
	in, err := cellPathInput(cfg.seed)
	if err != nil {
		return nil, err
	}
	o := &outcome{layer: map[string]float64{}}
	for i := 0; i < p.reps(); i++ {
		runtime.GC() // each set-up starts from the same heap state
		start := time.Now()
		if _, err := buildCellPath(ctx, in, tr); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(start).Seconds())
	}

	var rounds []cpRound
	var rates []float64 // offered cells per second of replay, per round
	alloc0, gc0 := allocSnapshot()
	deadline := time.Now().Add(time.Duration(p.seconds * float64(time.Second)))
	var sweepCells, sweeps float64
	for len(rounds) == 0 || time.Now().Before(deadline) {
		runtime.GC() // free the last round's mesh, so peak memory is one round's
		n, err := buildCellPath(ctx, in, tr)
		if err != nil {
			return nil, err
		}
		r, err := n.replay(ctx, in, tr)
		if err != nil {
			return nil, err
		}
		if len(rounds) == 0 {
			snap := n.reg.Snapshot()
			if h, ok := snap.Histograms[datapath.MetricBatchCells]; ok {
				sweepCells, sweeps = h.Sum, float64(h.Count)
			}
		}
		rounds = append(rounds, r)
		rates = append(rates, float64(r.stats.Injected)/r.wall.Seconds())
		o.ops.merge(&r.frames)
	}
	alloc1, gc1 := allocSnapshot()
	o.allocBytes, o.gcCycles, o.opsForAlloc = alloc1-alloc0, gc1-gc0, float64(o.ops.n())
	o.opsPerSec = median(rates)

	first := rounds[0]
	same := true
	for _, r := range rounds[1:] {
		same = same && r.stats == first.stats && r.policed == first.policed && r.overflow == first.overflow
	}
	for _, r := range rounds {
		o.attempted += r.stats.Injected
		if !r.conserved {
			o.failed += r.stats.Injected
		}
	}
	st := first.stats
	o.checkf(first.conserved, "cells conserved per hop", "injected %d = delivered %d + policed %d + overflow %d + link drops %d",
		st.Injected, st.Delivered, first.policed, first.overflow, st.LinkDrops)
	o.checkf(first.unroutable == 0 && first.badHeader == 0, "no unroutable or bad cells", "%d unroutable, %d bad header", first.unroutable, first.badHeader)
	o.checkf(same, "rounds identical", "%d rounds of the same input", len(rounds))

	lost := first.policed + first.overflow + st.LinkDrops
	o.figure("cells_per_s", o.opsPerSec, "cells/s")
	o.figure("cell_loss_frac", float64(lost)/float64(st.Injected), "ratio")
	o.figure("cell_delay_mean_slots", st.MeanDelaySlots(), "slots")
	o.figure("cell_delay_max_slots", float64(st.MaxDelaySlots), "slots")
	o.figure("cells_offered_per_round", float64(st.Injected), "cells")
	o.figure("path_denials_per_round", float64(first.denials), "count")
	o.figure("rounds", float64(len(rounds)), "count")
	o.layer["datapath.policed"] = float64(first.policed)
	o.layer["datapath.overflow"] = float64(first.overflow)
	if tr != nil {
		o.layer["datapath.ring_in_max_cells"] = float64(first.ringInMax)
		o.layer["datapath.ring_out_max_cells"] = float64(first.ringOutMax)
	}
	if sweeps > 0 {
		o.layer["datapath.cells_per_sweep"] = sweepCells / sweeps
	}
	return o, nil
}
