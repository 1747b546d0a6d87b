package main

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rcbr/internal/churn"
	"rcbr/internal/datapath"
	"rcbr/internal/metrics"
	"rcbr/internal/switchfab"
)

// The setup-churn workload drives the switch directly, with no socket in the
// way: GOMAXPROCS generator goroutines, each owning the ports p with
// p % workers == its index, ramp a 256-port switch with the live memory MBAC
// and a data plane to 200,000 concurrent VCs, churn it with the
// churn.DefaultClasses call mix, then drain it. The working set is far
// beyond cache, unlike reneg-udp's 4,096 VCs.
const (
	churnPorts   = 256
	churnVCs     = 200_000
	churnPortCap = 1.5e9 // bits/s per port, rcbrsim churn's default: ~3.5x the ramped load
	churnTarget  = 1e-3  // memory admitter failure target
	churnStride  = 16    // a traced pass traces one operation in this many
	churnSample  = 8     // the churn phase times one operation in this many
	churnWindow  = 250 * time.Millisecond
)

var churnWorkload = workload{
	name:    "setup-churn",
	summary: "closed loop, GOMAXPROCS generators calling the switch: ramp to 200k VCs on 256 ports, churn.DefaultClasses mix; op = one SetupID/RenegotiateID/TeardownID",
	tree: map[string]string{
		"SetupID": "", "TeardownID": "", "RenegotiateID": "",
		"Admitter.AdmitCall": "SetupID", "Admitter.OnAdmit": "SetupID", "DataPlane.OnSetup": "SetupID",
		"Admitter.OnDepart": "TeardownID", "DataPlane.OnTeardown": "TeardownID",
		"Admitter.OnRateChange": "RenegotiateID", "DataPlane.OnRateChange": "RenegotiateID",
	},
	setups:  5,
	measure: measureChurn,
}

// callMix turns churn classes into the equilibrium proportions of the three
// operations. Class c holds a live share proportional to weight*hold, leaves
// at rate live/hold (proportional to weight) and renegotiates at live/reneg.
type callMix struct {
	classes []churn.Class
	// arrive, live and depart are cumulative class shares.
	arrive, live, depart []float64
	// pSetup == pTeardown; renegotiation takes the rest.
	pSetup float64
}

func newCallMix(classes []churn.Class) callMix {
	m := callMix{classes: classes}
	var wSum, whSum float64
	for _, c := range classes {
		wSum += c.Weight
		whSum += c.Weight * c.MeanHold
	}
	var a, l, dep, reneg float64
	for _, c := range classes {
		a += c.Weight / wSum
		l += c.Weight * c.MeanHold / whSum
		dep += c.Weight / wSum
		m.arrive = append(m.arrive, a)
		m.live = append(m.live, l)
		m.depart = append(m.depart, dep)
		if c.MeanReneg > 0 {
			reneg += c.Weight * c.MeanHold / whSum / c.MeanReneg
		}
	}
	d := wSum / whSum // departures per live VC per second
	m.pSetup = d / (2*d + reneg)
	return m
}

func pick(cum []float64, u float64) int {
	for i, c := range cum {
		if u < c {
			return i
		}
	}
	return len(cum) - 1
}

type liveVC struct {
	id    switchfab.VCID
	level int
}

// paddedReq is one generator's current traced operation, or -1.
type paddedReq struct {
	v int64
	_ [56]byte
}

// churnWorker is one generator: its ports, its live calls by class, and
// its operation counts.
type churnWorker struct {
	idx, workers int
	sw           *switchfab.Switch
	mix          callMix
	rng          *rand.Rand
	ports        []int
	live         [][]liveVC
	free         []switchfab.VCID
	next         uint32
	cur          *paddedReq
	tr           *tracer
	seq          int64

	setups, blocked, teardowns, renegs, denials, failed int64
	lat                                                 samples
	timed                                               bool
	// done counts operations for the throughput monitor.
	done atomic.Int64
}

func (w *churnWorker) nLive() int {
	n := 0
	for _, l := range w.live {
		n += len(l)
	}
	return n
}

func (w *churnWorker) newID() switchfab.VCID {
	if n := len(w.free); n > 0 {
		id := w.free[n-1]
		w.free = w.free[:n-1]
		return id
	}
	w.next++
	return switchfab.VCID(uint32(w.idx) + uint32(w.workers)*w.next)
}

// begin starts an operation, timing it one time in churnSample during the
// churn phase and tracing it one time in churnStride in a traced pass.
func (w *churnWorker) begin() (req int64, t0 int64, start time.Time) {
	w.seq++
	req = -1
	if w.tr != nil && w.seq%churnStride == 0 {
		req = int64(w.idx)<<40 | w.seq
		t0 = w.tr.now()
	}
	w.cur.v = req
	if w.timed && w.seq%churnSample == 0 {
		start = time.Now()
	}
	return req, t0, start
}

func (w *churnWorker) end(name string, req, t0 int64, start time.Time) {
	if !start.IsZero() {
		w.lat.add(time.Since(start))
	}
	if req >= 0 {
		w.tr.record(name, req, t0, w.tr.now())
	}
	w.cur.v = -1
}

func (w *churnWorker) setup(class int) {
	c := w.mix.classes[class]
	level := w.rng.IntN(len(c.Levels))
	id := w.newID()
	port := w.ports[w.rng.IntN(len(w.ports))]
	req, t0, start := w.begin()
	err := w.sw.SetupID(id, port, c.Levels[level])
	w.end("SetupID", req, t0, start)
	switch {
	case err == nil:
		w.setups++
		w.live[class] = append(w.live[class], liveVC{id: id, level: level})
	case switchfab.IsReject(err):
		w.blocked++
		w.free = append(w.free, id)
	default:
		w.failed++
		w.free = append(w.free, id)
	}
}

func (w *churnWorker) teardown(class, i int) {
	l := w.live[class]
	vc := l[i]
	req, t0, start := w.begin()
	err := w.sw.TeardownID(vc.id)
	w.end("TeardownID", req, t0, start)
	if err != nil {
		w.failed++
		return
	}
	w.teardowns++
	l[i] = l[len(l)-1]
	w.live[class] = l[:len(l)-1]
	w.free = append(w.free, vc.id)
}

func (w *churnWorker) renegotiate(class int) {
	l := w.live[class]
	c := w.mix.classes[class]
	vc := &l[w.rng.IntN(len(l))]
	level := (vc.level + 1 + w.rng.IntN(len(c.Levels)-1)) % len(c.Levels)
	req, t0, start := w.begin()
	_, ok, err := w.sw.RenegotiateID(vc.id, c.Levels[level])
	w.end("RenegotiateID", req, t0, start)
	switch {
	case err != nil:
		w.failed++
	case ok:
		w.renegs++
		vc.level = level
	default:
		w.renegs++
		w.denials++
	}
}

// ramp sets calls up until the generator holds its share of the
// population, drawing classes by their equilibrium live share.
func (w *churnWorker) ramp(target int) {
	for tries := 0; w.nLive() < target && tries < 4*target; tries++ {
		w.setup(pick(w.mix.live, w.rng.Float64()))
	}
}

// step runs one call-mix operation.
func (w *churnWorker) step() {
	u := w.rng.Float64()
	switch {
	case u < w.mix.pSetup:
		w.setup(pick(w.mix.arrive, w.rng.Float64()))
	case u < 2*w.mix.pSetup:
		class := pick(w.mix.depart, w.rng.Float64())
		if len(w.live[class]) == 0 {
			return
		}
		w.teardown(class, w.rng.IntN(len(w.live[class])))
	default:
		var vbr []int
		for i, c := range w.mix.classes {
			if len(c.Levels) > 1 && len(w.live[i]) > 0 {
				vbr = append(vbr, i)
			}
		}
		if len(vbr) == 0 {
			return
		}
		w.renegotiate(vbr[w.rng.IntN(len(vbr))])
	}
}

func (w *churnWorker) drain() {
	for class := range w.live {
		for len(w.live[class]) > 0 {
			before := w.failed
			w.teardown(class, len(w.live[class])-1)
			if w.failed != before {
				return
			}
		}
	}
}

// churnFabric is one built switch with its probes.
type churnFabric struct {
	reg     *metrics.Registry
	sw      *switchfab.Switch
	fw      *datapath.Forwarder
	adm     *admitterProbe
	workers []*churnWorker
}

func buildChurn(cfg config, tr *tracer) (*churnFabric, error) {
	classes := churn.DefaultClasses()
	n := runtime.GOMAXPROCS(0)
	f := &churnFabric{reg: metrics.NewRegistry()}
	cur := make([]paddedReq, n)
	reqOf := func(port int, _ switchfab.VCID) int64 { return cur[port%n].v }
	mem, err := switchfab.NewMemoryAdmitter(churn.LevelSet(classes), churnTarget)
	if err != nil {
		return nil, err
	}
	f.adm = newAdmitterProbe(mem, churnPorts, tr, reqOf)
	f.fw = datapath.New(datapath.WithMetrics(f.reg))
	var dp switchfab.DataPlane = f.fw
	if tr != nil {
		dp = &dataPlaneProbe{inner: f.fw, tr: tr, reqOf: reqOf}
	}
	f.sw = switchfab.New(switchfab.WithMetrics(f.reg), switchfab.WithEventTrace(metrics.NewEventLog(256)),
		switchfab.WithAdmitter(f.adm), switchfab.WithDataPlane(dp))
	for p := 0; p < churnPorts; p++ {
		if _, err := f.fw.AddPort(p); err != nil {
			return nil, err
		}
		if err := f.sw.AddPort(p, churnPortCap); err != nil {
			return nil, err
		}
	}
	mix := newCallMix(classes)
	for i := 0; i < n; i++ {
		w := &churnWorker{idx: i, workers: n, sw: f.sw, mix: mix, cur: &cur[i], tr: tr,
			rng: rand.New(rand.NewPCG(cfg.seed, uint64(i))), live: make([][]liveVC, len(classes))}
		for p := i; p < churnPorts; p += n {
			w.ports = append(w.ports, p)
		}
		f.workers = append(f.workers, w)
	}
	return f, nil
}

// parallel runs fn on every generator and waits for all of them.
func (f *churnFabric) parallel(fn func(w *churnWorker)) {
	var wg sync.WaitGroup
	for _, w := range f.workers {
		wg.Add(1)
		go func(w *churnWorker) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

func (f *churnFabric) population() int {
	n := 0
	for _, w := range f.workers {
		n += w.nLive()
	}
	return n
}

func measureChurn(cfg config, p pass) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	var f *churnFabric
	var heapPerVC float64
	for i := 0; i < p.reps(); i++ {
		f = nil
		runtime.GC()
		t := time.Now()
		var err error
		if f, err = buildChurn(cfg, p.tr); err != nil {
			return nil, err
		}
		build := time.Since(t)
		heap0 := liveHeap()
		t = time.Now()
		f.parallel(func(w *churnWorker) { w.ramp(churnVCs / len(f.workers)) })
		o.setup = append(o.setup, (build + time.Since(t)).Seconds())
		heapPerVC = (liveHeap() - heap0) / float64(f.population())
	}
	ramped := f.population()

	before := f.ops()
	alloc0, gc0 := allocSnapshot()
	deadline := time.Now().Add(time.Duration(p.seconds * float64(time.Second)))
	start := time.Now()
	stop := make(chan struct{})
	rates := make(chan []float64, 1)
	go func() {
		rates <- windowRates(churnWindow, func() int64 {
			var n int64
			for _, w := range f.workers {
				n += w.done.Load()
			}
			return n
		}, stop)
	}()
	f.parallel(func(w *churnWorker) {
		w.timed = true
		w.lat.ns = make([]int64, 0, int(p.seconds*200_000/churnSample))
		for time.Now().Before(deadline) {
			for k := 0; k < 256; k++ {
				w.step()
			}
			w.done.Add(256)
		}
		w.timed = false
	})
	wall := time.Since(start)
	close(stop)
	windows := <-rates
	alloc1, gc1 := allocSnapshot()
	ops := f.ops() - before
	atEnd := f.population()
	f.parallel(func(w *churnWorker) { w.drain() })

	var setups, blocked, teardowns, renegs, denials, failed int64
	for _, w := range f.workers {
		o.ops.merge(&w.lat)
		setups += w.setups
		blocked += w.blocked
		teardowns += w.teardowns
		renegs += w.renegs
		denials += w.denials
		failed += w.failed
	}
	o.attempted = setups + blocked + teardowns + renegs + failed
	o.failed = failed
	o.opsPerSec = median(windows)
	o.allocBytes, o.gcCycles, o.opsForAlloc = alloc1-alloc0, gc1-gc0, float64(ops)

	adm := f.adm.totals()
	st := f.sw.Stats()
	o.checkf(failed == 0, "no operation errors", "%d errors other than capacity or admission refusal", failed)
	o.checkf(ramped >= churnVCs*99/100, "ramp reached target", "%d of %d VCs", ramped, churnVCs)
	o.checkf(adm.onAdmit == setups && st.Setups == setups, "admits == setups", "admitter %d, switch %d, generator %d", adm.onAdmit, st.Setups, setups)
	o.checkf(adm.onDepart == teardowns && st.Teardowns == teardowns, "departs == teardowns", "admitter %d, switch %d, generator %d", adm.onDepart, st.Teardowns, teardowns)
	o.checkf(f.sw.VCCount() == 0 && f.fw.VCCount() == 0, "drained to 0 VCs", "switch %d, forwarder %d", f.sw.VCCount(), f.fw.VCCount())
	var residue int
	for p := 0; p < churnPorts; p++ {
		if r, _, err := f.sw.PortLoad(p); err != nil || r != 0 {
			residue++
		}
	}
	o.checkf(residue == 0, "ports reserve exactly 0", "%d ports with residue", residue)
	o.checkf(st.ReservedClamps == 0, "no reserved clamps", "%d clamps", st.ReservedClamps)

	o.figure("churn_ops_per_s", o.opsPerSec, "ops/s")
	o.figure("churn_ops_per_s_overall", float64(ops)/wall.Seconds(), "ops/s")
	o.figure("bytes_per_vc", heapPerVC, "B")
	o.figure("ramped_vcs", float64(ramped), "VCs")
	o.figure("vcs_at_churn_end", float64(atEnd), "VCs")
	o.figure("setups", float64(setups), "count")
	o.figure("blocked_setups", float64(blocked), "count")
	o.figure("teardowns", float64(teardowns), "count")
	o.figure("renegotiations", float64(renegs), "count")
	o.figure("reneg_denials", float64(denials), "count")
	if adm.calls > 0 {
		o.layer["admission.admit_frac"] = float64(adm.admitted) / float64(adm.calls)
	}
	snap := f.reg.Snapshot()
	if n := snap.Counters[switchfab.MetricRenegs]; n > 0 {
		o.layer["switchfab.grant_frac"] = float64(snap.Counters[switchfab.MetricGrants]) / float64(n)
	}
	return o, nil
}

// ops counts the generators' operations so far.
func (f *churnFabric) ops() int64 {
	var n int64
	for _, w := range f.workers {
		n += w.setups + w.blocked + w.teardowns + w.renegs + w.failed
	}
	return n
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}
