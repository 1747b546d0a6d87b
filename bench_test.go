// Benchmarks regenerating the paper's evaluation at reduced scale: one
// benchmark per figure, plus the design ablations called out in DESIGN.md
// (trellis pruning rules, buffer quantization, flush term, event-driven vs
// per-frame call simulation). Full-scale runs live in cmd/rcbrsim.
package rcbr_test

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"rcbr/internal/admission"
	"rcbr/internal/bookahead"
	"rcbr/internal/callsim"
	"rcbr/internal/cell"
	"rcbr/internal/core"
	"rcbr/internal/datapath"
	"rcbr/internal/experiments"
	"rcbr/internal/heuristic"
	"rcbr/internal/ld"
	"rcbr/internal/markov"
	"rcbr/internal/mesh"
	"rcbr/internal/mux"
	"rcbr/internal/queue"
	"rcbr/internal/shaper"
	"rcbr/internal/smg"
	"rcbr/internal/stats"
	"rcbr/internal/switchfab"
	"rcbr/internal/trace"
	"rcbr/internal/trellis"
)

// benchFrames keeps the benchmark workload small: 50 s of video.
const benchFrames = 1200

func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	return experiments.StarWars(1, benchFrames)
}

func benchSchedule(b *testing.B, tr *trace.Trace) *core.Schedule {
	b.Helper()
	sch, err := experiments.OptimalSchedule(tr, 300e3, 3e5,
		experiments.FeasibleLevels(tr, 300e3, 12))
	if err != nil {
		b.Fatal(err)
	}
	return sch
}

// --- Fig. 2: renegotiation frequency vs bandwidth efficiency ---

func BenchmarkFig2OPT(b *testing.B) {
	tr := benchTrace(b)
	levels := experiments.FeasibleLevels(tr, 300e3, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := trellis.Optimize(tr, trellis.Options{
			Levels:         levels,
			BufferBits:     300e3,
			BufferGridBits: 300e3 / 2048,
			Cost:           core.CostModel{Alpha: 1e6, Beta: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2AR1(b *testing.B) {
	tr := benchTrace(b)
	p := heuristic.DefaultParams(100e3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heuristic.Run(tr, 300e3, p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 5: the (c, B) curve ---

func BenchmarkFig5CBCurve(b *testing.B) {
	tr := benchTrace(b)
	buffers := queue.LogSpace(100e3, 20e6, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		queue.CBCurve(tr, buffers, 1e-4)
	}
}

// --- Fig. 6: per-stream capacity of the three scenarios ---

func fig6Config(b *testing.B) smg.Config {
	tr := benchTrace(b)
	return smg.Config{
		Trace:      tr,
		Schedule:   benchSchedule(b, tr),
		BufferBits: 300e3,
		LossTarget: 1e-4,
		MinReps:    3,
		MaxReps:    6,
		CIFrac:     0.3,
		Seed:       1,
	}
}

func BenchmarkFig6CBR(b *testing.B) {
	cfg := fig6Config(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		smg.CBRRate(cfg.Trace, cfg.BufferBits, cfg.LossTarget)
	}
}

func BenchmarkFig6Shared(b *testing.B) {
	cfg := fig6Config(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := smg.SharedRate(cfg, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6RCBR(b *testing.B) {
	cfg := fig6Config(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := smg.RCBRRate(cfg, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figs. 7/8 and the Fig. 9 extension: MBAC call simulation ---

func benchMBAC(b *testing.B, scheme string) {
	tr := benchTrace(b)
	sch := benchSchedule(b, tr)
	levels := experiments.FeasibleLevels(tr, 300e3, 12)
	desc := sch.Descriptor(levels)
	dist := ld.Dist{P: desc.Probabilities(), X: desc.Levels()}
	capacity := 10 * sch.MeanRate()
	lam := callsim.OfferedLoad(1.0, capacity, sch.MeanRate(), sch.DurationSec())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ctrl admission.Controller
		var err error
		switch scheme {
		case "perfect":
			ctrl, err = admission.NewPerfectKnowledge(dist, capacity, 1e-3)
		case "memoryless":
			ctrl, err = admission.NewMemoryless(levels, capacity, 1e-3)
		case "memory":
			ctrl, err = admission.NewMemory(levels, capacity, 1e-3)
		}
		if err != nil {
			b.Fatal(err)
		}
		_, err = callsim.Run(callsim.Config{
			Schedule:      sch,
			Capacity:      capacity,
			ArrivalRate:   lam,
			Controller:    ctrl,
			TargetFailure: 1e-3,
			MinBatches:    3,
			MaxBatches:    6,
			CIFrac:        0.3,
			Seed:          uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7MemorylessMBAC(b *testing.B) { benchMBAC(b, "memoryless") }
func BenchmarkFig8PerfectMBAC(b *testing.B)    { benchMBAC(b, "perfect") }
func BenchmarkFig9MemoryMBAC(b *testing.B)     { benchMBAC(b, "memory") }

// --- Section IV-A runtime claim: cost of more bandwidth levels ---

func benchTrellisLevels(b *testing.B, k int) {
	tr := benchTrace(b)
	levels := experiments.FeasibleLevels(tr, 300e3, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := trellis.Optimize(tr, trellis.Options{
			Levels:         levels,
			BufferBits:     300e3,
			BufferGridBits: 300e3 / 2048,
			Cost:           core.CostModel{Alpha: 1e6, Beta: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrellisLevels5(b *testing.B)  { benchTrellisLevels(b, 5) }
func BenchmarkTrellisLevels10(b *testing.B) { benchTrellisLevels(b, 10) }
func BenchmarkTrellisLevels20(b *testing.B) { benchTrellisLevels(b, 20) }
func BenchmarkTrellisLevels50(b *testing.B) { benchTrellisLevels(b, 50) }

// Full-length StarWars optimization. Two hours of video is too heavy for
// the CI smoke run, so this only fires when RCBR_FULL_BENCH is set.
func BenchmarkTrellisFullTraceSerial(b *testing.B) {
	if os.Getenv("RCBR_FULL_BENCH") == "" {
		b.Skip("set RCBR_FULL_BENCH=1 to run the full-trace benchmark")
	}
	tr := experiments.StarWars(1, 0)
	levels := experiments.FeasibleLevels(tr, 300e3, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := trellis.Optimize(tr, trellis.Options{
			Levels:         levels,
			BufferBits:     300e3,
			BufferGridBits: 300e3 / 2048,
			Cost:           core.CostModel{Alpha: 1e6, Beta: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: Lemma-1 pruning rules ---

func benchTrellisPruning(b *testing.B, pr trellis.Pruning, frames int) {
	tr := experiments.StarWars(1, frames)
	levels := experiments.FeasibleLevels(tr, 300e3, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := trellis.Optimize(tr, trellis.Options{
			Levels:         levels,
			BufferBits:     300e3,
			BufferGridBits: 300e3 / 2048,
			Cost:           core.CostModel{Alpha: 1e6, Beta: 1},
			Pruning:        pr,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrellisPruneFull(b *testing.B) {
	benchTrellisPruning(b, trellis.PruneFull, benchFrames)
}
func BenchmarkTrellisPruneSameRate(b *testing.B) {
	benchTrellisPruning(b, trellis.PruneSameRate, benchFrames)
}
func BenchmarkTrellisPruneExact(b *testing.B) {
	// The textbook rule explodes; keep the horizon very short.
	benchTrellisPruning(b, trellis.PruneExact, 120)
}

// --- Ablation: buffer quantization grid ---

func BenchmarkTrellisExactBuffer(b *testing.B) {
	tr := benchTrace(b)
	levels := experiments.FeasibleLevels(tr, 300e3, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := trellis.Optimize(tr, trellis.Options{
			Levels:     levels,
			BufferBits: 300e3,
			Cost:       core.CostModel{Alpha: 1e6, Beta: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: heuristic flush term ---

func benchHeuristicFlush(b *testing.B, disable bool) {
	tr := benchTrace(b)
	p := heuristic.DefaultParams(100e3)
	p.DisableFlushTerm = disable
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heuristic.Run(tr, 600e3, p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeuristicWithFlushTerm(b *testing.B)    { benchHeuristicFlush(b, false) }
func BenchmarkHeuristicWithoutFlushTerm(b *testing.B) { benchHeuristicFlush(b, true) }

// --- Ablation: event-driven vs per-frame call simulation (footnote 4) ---

func BenchmarkCallSimEventDriven(b *testing.B) {
	tr := benchTrace(b)
	sch := benchSchedule(b, tr)
	capacity := 10 * sch.MeanRate()
	lam := callsim.OfferedLoad(0.8, capacity, sch.MeanRate(), sch.DurationSec())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := callsim.Run(callsim.Config{
			Schedule:    sch,
			Capacity:    capacity,
			ArrivalRate: lam,
			Controller:  admission.Unlimited{},
			MinBatches:  3,
			MaxBatches:  3,
			CIFrac:      0.3,
			Seed:        uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCallSimPerFrame(b *testing.B) {
	// The naive alternative the paper's footnote 4 avoids: walk every
	// frame slot of every active call. Modeled as the same number of
	// batches over the expanded per-slot rate vectors.
	tr := benchTrace(b)
	sch := benchSchedule(b, tr)
	rates := sch.Rates()
	const activeCalls = 8
	r := stats.NewRNG(7)
	offsets := make([]int, activeCalls)
	for i := range offsets {
		offsets[i] = r.Intn(len(rates))
	}
	capacity := 10 * sch.MeanRate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var failures int
		for batch := 0; batch < 3; batch++ {
			for t := 0; t < len(rates); t++ {
				var demand float64
				for _, off := range offsets {
					demand += rates[(t+off)%len(rates)]
				}
				if demand > capacity {
					failures++
				}
			}
		}
		_ = failures
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkEffectiveBandwidth(b *testing.B) {
	m := markov.PaperExample(1000, 1e-4)
	flat, err := m.Flatten()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ld.EffectiveBandwidth(flat, 1e-3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChernoffAdmission(b *testing.B) {
	d := ld.Dist{P: []float64{0.7, 0.2, 0.1}, X: []float64{1e5, 3e5, 9e5}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.MaxCalls(1e7, 1e-3)
	}
}

func BenchmarkQueueRun(b *testing.B) {
	tr := benchTrace(b)
	arr := queue.Arrivals(tr)
	slot := tr.SlotSeconds()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		queue.Run(arr, slot, 500e3, 300e3)
	}
}

func BenchmarkSyntheticTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.StarWars(uint64(i+1), benchFrames)
	}
}

// --- Section II baseline: token-bucket characterization ---

func BenchmarkSection2Burstiness(b *testing.B) {
	tr := benchTrace(b)
	rates := []float64{1.05, 1.5, 2, 3, 4}
	for i := range rates {
		rates[i] *= tr.MeanRate()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shaper.BurstinessCurve(tr, rates)
	}
}

// --- Section III data plane: cell-level multiplexer ---

func BenchmarkMuxCBR(b *testing.B) {
	rates := make([]float64, 8)
	for i := range rates {
		rates[i] = 448e3
	}
	flows := mux.CBRFlowsForRates(rates, 384)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mux.RunCBR(flows, 12000, 256, 1.0)
	}
}

func BenchmarkMuxFrameBursts(b *testing.B) {
	tr := experiments.StarWars(1, 240)
	shifts := []int{0, 60, 120, 180}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mux.RunFrameBursts(tr, shifts, 12000, 1<<20, 384)
	}
}

// --- Section III-A.2: book-ahead admission ---

func BenchmarkBookaheadBook(b *testing.B) {
	tr := benchTrace(b)
	sch := benchSchedule(b, tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cal := bookahead.NewCalendar(20 * sch.MeanRate())
		for k := 0; k < 16; k++ {
			_, _ = cal.Book(float64(k)*7, sch)
		}
	}
}

// --- Section III-C: multi-hop renegotiation and signaling latency ---

// benchMeshRenegotiate measures an end-to-end increase/decrease pair over a
// chain of nHops switches (delay scaling off, so the cost is the signaling
// walk itself, not modeled propagation).
func benchMeshRenegotiate(b *testing.B, nHops int) {
	m := mesh.New(mesh.WithDelayScale(0))
	names := make([]string, nHops+1)
	for i := 0; i < nHops; i++ {
		names[i] = "s" + strconv.Itoa(i)
		if err := m.AddSwitch(names[i], switchfab.New()); err != nil {
			b.Fatal(err)
		}
	}
	names[nHops] = "sink"
	if err := m.AddHost("sink"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < nHops; i++ {
		if err := m.AddLink(names[i], names[i+1], 1, 10e6, time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
	hops, err := m.Route(names...)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	p, err := m.SetupPath(ctx, switchfab.MakeVCID(0, 1), hops, 100e3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Renegotiate(ctx, 500e3); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Renegotiate(ctx, 100e3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeshRenegotiate1(b *testing.B) { benchMeshRenegotiate(b, 1) }
func BenchmarkMeshRenegotiate4(b *testing.B) { benchMeshRenegotiate(b, 4) }
func BenchmarkMeshRenegotiate8(b *testing.B) { benchMeshRenegotiate(b, 8) }

func BenchmarkHeuristicWithSignalDelay(b *testing.B) {
	tr := benchTrace(b)
	p := heuristic.DefaultParams(100e3)
	p.SignalDelaySlots = 12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heuristic.Run(tr, 600e3, p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Signaling plane micro-benchmarks ---

func BenchmarkRMCellRoundTrip(b *testing.B) {
	h := cell.Header{VCI: 42}
	m := cell.RM{ER: 128e3, Seq: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := cell.Build(h, m)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := cell.Parse(raw[:]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Sharded fabric at scale (tracked subset of internal/switchfab) ---

// benchFabricSwitch builds a fabric with vcs established circuits striped
// over 64 ports; shards 0 means the default shard count, 1 the legacy
// single-lock layout.
func benchFabricSwitch(b *testing.B, shards, vcs int) *switchfab.Switch {
	b.Helper()
	var opts []switchfab.Option
	if shards > 0 {
		opts = append(opts, switchfab.WithShards(shards))
	}
	sw := switchfab.New(opts...)
	const ports = 64
	for p := 0; p < ports; p++ {
		if err := sw.AddPort(p, 1e12); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < vcs; i++ {
		id := switchfab.MakeVCID(uint8(i>>16), uint16(i))
		if err := sw.SetupID(id, i%ports, 100e3); err != nil {
			b.Fatal(err)
		}
	}
	return sw
}

func benchFabricRM(b *testing.B, shards, vcs int) {
	sw := benchFabricSwitch(b, shards, vcs)
	m := cell.RM{Resync: true, ER: 100e3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % vcs
		id := switchfab.MakeVCID(uint8(idx>>16), uint16(idx))
		h := cell.Header{VPI: id.VPI(), VCI: id.VCI()}
		if _, err := sw.HandleRM(h, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFabricRMSharded64k(b *testing.B) { benchFabricRM(b, 0, 65536) }
func BenchmarkFabricRMLegacy64k(b *testing.B)  { benchFabricRM(b, 1, 65536) }

func BenchmarkFabricRMBatch(b *testing.B) {
	const vcs = 16384
	sw := benchFabricSwitch(b, 0, vcs)
	const k = 32
	items := make([]switchfab.RMItem, k)
	for i := range items {
		id := switchfab.MakeVCID(0, uint16(i*37%vcs))
		items[i] = switchfab.RMItem{ID: id, M: cell.RM{Resync: true, ER: 100e3}}
	}
	out := make([]switchfab.RMItem, 0, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += k {
		out = sw.HandleRMBatch(items, out[:0])
		if len(out) != k {
			b.Fatalf("%d replies, want %d", len(out), k)
		}
	}
}

func BenchmarkSwitchHandleRM(b *testing.B) {
	sw := switchfab.New()
	if err := sw.AddPort(1, 155e6); err != nil {
		b.Fatal(err)
	}
	if err := sw.SetupID(1, 1, 374e3); err != nil {
		b.Fatal(err)
	}
	h := cell.Header{VCI: 1}
	up := cell.RM{ER: 64e3}
	down := cell.RM{ER: 64e3, Decrease: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.HandleRM(h, up); err != nil {
			b.Fatal(err)
		}
		if _, err := sw.HandleRM(h, down); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Call-scale churn: the setup path after the global-mutex removal ---

// benchChurnSwitch is a fabric sized for setup benchmarks: capacity out of
// the way so the measured cost is the signaling path, not blocking.
func benchChurnSwitch(b *testing.B, opts ...switchfab.Option) *switchfab.Switch {
	b.Helper()
	sw := switchfab.New(opts...)
	for p := 0; p < 64; p++ {
		if err := sw.AddPort(p, 1e12); err != nil {
			b.Fatal(err)
		}
	}
	return sw
}

// BenchmarkSetupChurnSerial measures one setup/teardown pair on a single
// goroutine — the per-call floor of the concurrent setup path.
func BenchmarkSetupChurnSerial(b *testing.B) {
	sw := benchChurnSwitch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := switchfab.MakeVCID(uint8(i>>16), uint16(i))
		if err := sw.SetupID(id, i%64, 100e3); err != nil {
			b.Fatal(err)
		}
		if err := sw.TeardownID(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSetupChurnParallel runs setup/teardown pairs from concurrent
// goroutines striped across ports and shards. Before the per-port admission
// refactor every pair serialized on one switch-wide mutex; now contention is
// only among pairs landing on the same port.
func BenchmarkSetupChurnParallel(b *testing.B) {
	sw := benchChurnSwitch(b, switchfab.WithShards(1024))
	var next atomic.Uint32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := next.Add(1)
			id := switchfab.VCID(i % (1 << 24))
			if err := sw.SetupID(id, int(i)%64, 100e3); err != nil {
				b.Fatal(err)
			}
			if err := sw.TeardownID(id); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSetupChurnMemoryAdmit is the serial pair with the live
// memory-based MBAC in the loop: setup cost including the Chernoff admit
// decision and the lifecycle bookkeeping.
func BenchmarkSetupChurnMemoryAdmit(b *testing.B) {
	ad, err := switchfab.NewMemoryAdmitter([]float64{64e3, 512e3, 1e6, 2e6, 4e6}, 1e-3)
	if err != nil {
		b.Fatal(err)
	}
	sw := benchChurnSwitch(b, switchfab.WithAdmitter(ad))
	rates := []float64{64e3, 512e3, 1e6, 2e6, 4e6}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := switchfab.MakeVCID(uint8(i>>16), uint16(i))
		if err := sw.SetupID(id, i%64, rates[i%len(rates)]); err != nil {
			b.Fatal(err)
		}
		if err := sw.TeardownID(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdmitDecisionMemoryLive isolates the admit decision itself with
// 10,000 calls of history in the pool — the O(levels) incremental estimate
// that replaces Memory's O(calls) scan. Its 1e12 b/s link gives each call
// 1e8 b/s, above the 4e6 peak level, so the Chernoff test short-cuts to
// +Inf without solving; BenchmarkAdmitDecisionMemoryLiveInterior times the
// solve.
func BenchmarkAdmitDecisionMemoryLive(b *testing.B) {
	levels := []float64{64e3, 512e3, 1e6, 2e6, 4e6}
	ctl, err := admission.NewLiveMemory(levels, 1e12, 1e-3)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		ctl.OnAdmit(i, float64(i)*0.01, levels[i%len(levels)])
	}
	now := 10_000 * 0.01
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.Admit(now+float64(i)*1e-6, 64e3)
	}
}

// interiorLevels, interiorPortCap and interiorCalls model one of the
// setup-churn workload's ports: 1.5 Gb/s carrying about 780 calls (200k
// VCs over 256 ports), nine in ten of them voice at 64 kb/s and the rest
// video spread over the four video levels.
var interiorLevels = []float64{64e3, 512e3, 1e6, 2e6, 4e6}

const (
	interiorPortCap = 1.5e9
	interiorCalls   = 780
)

// interiorLevel is the index of the level call i holds in the interior
// pool.
func interiorLevel(i int) int {
	if i%10 != 0 {
		return 0
	}
	return 1 + i/10%4
}

// interiorLiveMemory builds the interior pool, one admission every 10 ms,
// and returns it with the time of the last admission.
func interiorLiveMemory(tb testing.TB) (*admission.LiveMemory, float64) {
	ctl, err := admission.NewLiveMemory(interiorLevels, interiorPortCap, 1e-3)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < interiorCalls; i++ {
		ctl.OnAdmit(i, float64(i)*0.01, interiorLevels[interiorLevel(i)])
	}
	return ctl, interiorCalls * 0.01
}

// TestAdmitDecisionInteriorSolves guards the interior benchmark: the next
// call's capacity share C/(n+1) must lie strictly between the pooled mean
// and the highest level with weight, or the Chernoff test returns early
// and the benchmark stops timing the solve.
func TestAdmitDecisionInteriorSolves(t *testing.T) {
	_, now := interiorLiveMemory(t)
	w := make([]float64, len(interiorLevels))
	var total float64
	for i := 0; i < interiorCalls; i++ {
		dwell := now - float64(i)*0.01
		w[interiorLevel(i)] += dwell
		total += dwell
	}
	var mean, max float64
	for l, x := range interiorLevels {
		mean += w[l] / total * x
		if w[l] > 0 {
			max = x
		}
	}
	perCall := interiorPortCap / (interiorCalls + 1)
	if !(mean < perCall && perCall < max) {
		t.Fatalf("per-call capacity %g outside (pooled mean %g, top level %g)", perCall, mean, max)
	}
}

// BenchmarkAdmitDecisionMemoryLiveInterior times the admit decision on a
// setup-churn-like port, where the per-call capacity falls inside the
// pooled distribution's support and the rate function is solved.
func BenchmarkAdmitDecisionMemoryLiveInterior(b *testing.B) {
	ctl, now := interiorLiveMemory(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.Admit(now+float64(i)*1e-6, 64e3)
	}
}

// BenchmarkChurnBytesPerVC reports the retained switch-side bytes per
// established VC (heap growth across b.N setups after forced collections,
// divided by b.N) as a custom "bytes/vc" metric alongside the setup rate.
func BenchmarkChurnBytesPerVC(b *testing.B) {
	sw := benchChurnSwitch(b, switchfab.WithShards(1024))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := switchfab.VCID(i % (1 << 24))
		if err := sw.SetupID(id, i%64, 100e3); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	// Without this the switch is unreachable after its last loop use and the
	// forced GC collects every VC before the measurement.
	runtime.KeepAlive(sw)
	if after.HeapInuse > before.HeapInuse {
		b.ReportMetric(float64(after.HeapInuse-before.HeapInuse)/float64(min(b.N, 1<<24)), "bytes/vc")
	}
}

// --- Wire-speed cell data path (internal/datapath) ---

// benchDataPathForward measures the steady-state forwarding loop: every
// cycle injects a fixed batch of prebuilt data cells striped across the
// ports, runs one Forward sweep, and drains every egress ring. Shaper rates
// are set far above the offered load so the hot path runs end to end
// (header parse, VC lookup, token accounting, egress push) without
// policing, and the reported cells/s is pure forwarding throughput.
func benchDataPathForward(b *testing.B, ports, vcs int) {
	f := datapath.New()
	pl := make([]*datapath.Port, ports)
	for p := 0; p < ports; p++ {
		var err error
		if pl[p], err = f.AddPort(p); err != nil {
			b.Fatal(err)
		}
	}
	cells := make([]datapath.Cell, vcs)
	for i := 0; i < vcs; i++ {
		id := switchfab.MakeVCID(uint8(i>>16), uint16(i))
		if err := f.AddVC(id, (i+1)%ports, 1e12); err != nil {
			b.Fatal(err)
		}
		h := cell.Header{VPI: id.VPI(), VCI: id.VCI()}
		if err := cell.PutData(&cells[i], h, nil); err != nil {
			b.Fatal(err)
		}
	}
	const perPort = 64
	batch := perPort * ports
	now := int64(0)
	vc := 0
	var moved int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += int64(time.Millisecond)
		for j := 0; j < batch; j++ {
			if !f.Inject(pl[vc%ports], &cells[vc]) {
				b.Fatal("ingress ring full")
			}
			vc++
			if vc == vcs {
				vc = 0
			}
		}
		moved += int64(f.Forward(now))
		for _, p := range pl {
			f.Transmit(p, batch)
		}
	}
	b.StopTimer()
	if moved != int64(b.N)*int64(batch) {
		b.Fatalf("moved %d of %d cells (policed or stuck)", moved, int64(b.N)*int64(batch))
	}
	b.ReportMetric(float64(moved)/b.Elapsed().Seconds(), "cells/s")
}

func BenchmarkDataPathForward1Port1kVC(b *testing.B)   { benchDataPathForward(b, 1, 1024) }
func BenchmarkDataPathForward4Port1kVC(b *testing.B)   { benchDataPathForward(b, 4, 1024) }
func BenchmarkDataPathForward8Port1kVC(b *testing.B)   { benchDataPathForward(b, 8, 1024) }
func BenchmarkDataPathForward1Port100kVC(b *testing.B) { benchDataPathForward(b, 1, 100_000) }
func BenchmarkDataPathForward4Port100kVC(b *testing.B) { benchDataPathForward(b, 4, 100_000) }
func BenchmarkDataPathForward8Port100kVC(b *testing.B) { benchDataPathForward(b, 8, 100_000) }

// --- Data-cell codec (tracked subset of internal/cell) ---

func BenchmarkFabricCellAppend(b *testing.B) {
	h := cell.Header{VPI: 3, VCI: 42}
	payload := make([]byte, cell.PayloadSize)
	buf := make([]byte, 0, cell.Size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = cell.AppendData(buf[:0], h, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFabricCellParse(b *testing.B) {
	var raw [cell.Size]byte
	if err := cell.PutData(&raw, cell.Header{VPI: 3, VCI: 42}, []byte("x")); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cell.ParseData(raw[:]); err != nil {
			b.Fatal(err)
		}
	}
}
