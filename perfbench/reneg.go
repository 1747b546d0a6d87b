package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rcbr/internal/datapath"
	"rcbr/internal/experiments"
	"rcbr/internal/heuristic"
	"rcbr/internal/metrics"
	"rcbr/internal/netproto"
	"rcbr/internal/switchfab"
)

// The reneg-udp workload is the renegotiation path end to end: an
// in-process rcbrd-equivalent switch (netproto.Server on 127.0.0.1:0 over a
// switchfab.Switch with its data plane) and at most GOMAXPROCS client
// sockets. All traffic crosses the host's loopback interface, not a real
// link. 4,096 VCs are set up over the wire on one port sized below their
// aggregate demand, so denials occur. Requests replay renegotiation streams
// precomputed with heuristic.Run over seeded Star Wars traces, open loop:
// each request is due at a fixed time, is timed from then, and waits only
// for its own VC's previous request.
const (
	renegVCs     = 4096
	renegTraces  = 64 // VC v replays trace v % 64 from its own phase
	renegFrames  = 2880
	renegDelta   = 100e3 // heuristic granularity and set-up rate, bits/s
	renegBuffer  = 600e3
	renegCapFrac = 0.8 // port capacity as a share of the aggregate mean schedule
	renegPort    = 1
	renegNominal = 10_000.0         // requests/s of the measured latency phase
	renegLimit   = time.Millisecond // median latency limit of a ladder step
	// renegBacklog is how much offered work, in time, may be pending when a
	// step's last request is due: a collector pause leaves less, a 10%
	// overload for a whole step leaves more.
	renegBacklog = 50 * time.Millisecond
	renegGrowth  = 1.5 // ladder step
	renegRefine  = 4   // bisections between the last passing and first failing rate
	renegWorkers = 256 // request goroutines: the in-flight bound, far above need
)

var renegWorkload = workload{
	name:    "reneg-udp",
	summary: "open loop over loopback UDP (not a real link), GOMAXPROCS client sockets, 4,096 VCs: 10k/s, then a geometric ladder of offered rates; op = one Client.Renegotiate from due time",
	tree: map[string]string{
		"request": "", "Client.Renegotiate": "request", "server.residence": "Client.Renegotiate",
		"DataPlane.OnRateChange": "server.residence",
	},
	setups:  15,
	measure: measureReneg,
}

// renegStreams precomputes each trace's renegotiation stream: the
// successive distinct rates the heuristic asks for. capacity is the port
// size.
func renegStreams(seed uint64) (streams [][]float64, capacity float64, err error) {
	p := heuristic.DefaultParams(renegDelta)
	var meanSum float64
	for i := 0; i < renegTraces; i++ {
		tr := experiments.StarWars(seed*1000+uint64(i), renegFrames)
		res, err := heuristic.Run(tr, renegBuffer, p, heuristic.AlwaysGrant{})
		if err != nil {
			return nil, 0, err
		}
		var s []float64
		for _, r := range res.Schedule.Rates() {
			if len(s) == 0 || r != s[len(s)-1] {
				s = append(s, r)
			}
		}
		streams = append(streams, s)
		meanSum += res.Schedule.MeanRate()
	}
	return streams, renegCapFrac * meanSum / renegTraces * renegVCs, nil
}

// renegVC is one source: its stream position and the rate the client was
// last granted. mu keeps one request per VC in flight.
type renegVC struct {
	mu      sync.Mutex
	vci     uint16
	cl      *netproto.Client
	stream  []float64
	pos     int
	granted float64
}

// renegRig is one built switch, server and client set.
type renegRig struct {
	reg     *metrics.Registry
	sw      *switchfab.Switch
	srv     *netproto.Server
	served  chan error
	clients []*netproto.Client
	vcs     []*renegVC
	// cur holds, per VCI, the traced request in flight or -1.
	cur []atomic.Int64
}

func buildReneg(ctx context.Context, streams [][]float64, capacity float64, tr *tracer) (*renegRig, error) {
	r := &renegRig{reg: metrics.NewRegistry(), cur: make([]atomic.Int64, renegVCs+1)}
	for i := range r.cur {
		r.cur[i].Store(-1)
	}
	reqOf := func(_ int, id switchfab.VCID) int64 {
		if v := int(id.VCI()); v < len(r.cur) {
			return r.cur[v].Load()
		}
		return -1
	}
	fw := datapath.New(datapath.WithMetrics(r.reg))
	if _, err := fw.AddPort(renegPort); err != nil {
		return nil, err
	}
	var dp switchfab.DataPlane = fw
	if tr != nil {
		dp = &dataPlaneProbe{inner: fw, tr: tr, reqOf: reqOf}
	}
	r.sw = switchfab.New(switchfab.WithMetrics(r.reg), switchfab.WithEventTrace(metrics.NewEventLog(256)),
		switchfab.WithDataPlane(dp))
	if err := r.sw.AddPort(renegPort, capacity); err != nil {
		return nil, err
	}
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var pc net.PacketConn = conn
	if tr != nil {
		pc = newConnProbe(conn, tr, func(vci uint16) int64 { return reqOf(0, switchfab.VCID(vci)) })
	}
	r.srv = netproto.NewServerWithConn(pc, r.sw, netproto.WithServerMetrics(r.reg))
	r.served = make(chan error, 1)
	go func() { r.served <- r.srv.Serve() }()
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		cl, err := netproto.DialContext(ctx, r.srv.Addr().String(), netproto.WithClientMetrics(r.reg))
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, cl)
	}
	for v := 0; v < renegVCs; v++ {
		s := streams[v%len(streams)]
		r.vcs = append(r.vcs, &renegVC{vci: uint16(v + 1), cl: r.clients[v%len(r.clients)], stream: s,
			pos: (v / len(streams) * 7) % len(s), granted: renegDelta})
	}
	// Set-up over the wire, one goroutine per client socket.
	errs := make(chan error, len(r.clients))
	for c := range r.clients {
		go func(c int) {
			for v := c; v < renegVCs; v += len(r.clients) {
				vc := r.vcs[v]
				if err := vc.cl.Setup(ctx, vc.vci, renegPort, renegDelta); err != nil {
					errs <- fmt.Errorf("setup vci %d: %w", vc.vci, err)
					return
				}
			}
			errs <- nil
		}(c)
	}
	for range r.clients {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// close stops the clients and the server and waits for the server to exit.
func (r *renegRig) close() {
	for _, cl := range r.clients {
		cl.Close()
	}
	r.srv.Close()
	<-r.served
}

// stepResult is one phase at a fixed offered rate.
type stepResult struct {
	rate float64
	sent int64
	tally
	lat, late samples // from due time to reply, and to the call
	// dispatch is how late the dispatcher handed each request over: the
	// generator's own lateness.
	dispatch samples
	// backlog is how many requests were due but unanswered when the
	// phase's last request was dispatched.
	backlog int64
}

// passes applies the ladder's stop rule to one phase: no failures, a
// generator that kept to its schedule, median latency within the limit and
// no backlog left growing. The tail is reported, not gated: on a 2-CPU host
// each garbage collection stalls requests for about a millisecond, so a
// tail limit there measures GC timing, not capacity.
func (s *stepResult) passes() (bool, string) {
	switch {
	case s.failed > 0:
		return false, fmt.Sprintf("%d failed", s.failed)
	case s.lat.n() == 0:
		return false, "no requests"
	case s.dispatch.quantile(0.5) > float64(renegLimit):
		return false, fmt.Sprintf("generator late: p50 %.0f us", s.dispatch.quantile(0.5)/1e3)
	case s.lat.quantile(0.5) > float64(renegLimit):
		return false, fmt.Sprintf("p50 %.0f us over the limit", s.lat.quantile(0.5)/1e3)
	case float64(s.backlog) > math.Max(8, s.rate*renegBacklog.Seconds()):
		return false, fmt.Sprintf("backlog %d growing", s.backlog)
	}
	return true, "ok"
}

// tally counts request outcomes. A failed request is followed by a resync;
// unanswered counts the round trips, requests or resyncs, that timed out
// without a reply.
type tally struct{ failed, resyncs, unanswered int64 }

func (t *tally) add(u tally) {
	t.failed += u.failed
	t.resyncs += u.resyncs
	t.unanswered += u.unanswered
}

type renegJob struct {
	seq int64
	vc  *renegVC
	due time.Time
}

// offer runs one open-loop phase at rate for dur. One dispatcher hands each
// request, when due, to a pool of renegWorkers goroutines; a request whose
// VC still has one in flight waits for it. seq numbers requests across
// phases so the VCs are visited round robin.
func (r *renegRig) offer(ctx context.Context, rate float64, dur time.Duration, seq *int64, tr *tracer) (stepResult, error) {
	res := stepResult{rate: rate}
	clock, err := newTimerClock()
	if err != nil {
		return res, err
	}
	defer clock.Close()
	// Sized above the backlog a passing step may leave (renegBacklog at
	// 100k/s), so a stalled pool delays requests, not the dispatcher.
	jobs := make(chan renegJob, 8192)
	var completed atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < renegWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat, late samples
			var t tally
			for j := range jobs {
				r.request(ctx, j, &lat, &late, &t, tr)
				completed.Add(1)
			}
			mu.Lock()
			res.lat.merge(&lat)
			res.late.merge(&late)
			res.tally.add(t)
			mu.Unlock()
		}()
	}
	p := pacer{start: time.Now().Add(time.Millisecond), rate: rate, wait: clock.waitUntil}
	base := *seq
	res.sent = p.run(int64(dur.Seconds()*rate), func(k int64, due time.Time) {
		res.dispatch.add(time.Since(due))
		jobs <- renegJob{seq: base + k, vc: r.vcs[(base+k)%int64(len(r.vcs))], due: due}
	})
	res.backlog = res.sent - completed.Load()
	close(jobs)
	wg.Wait()
	*seq += res.sent
	return res, nil
}

// request runs one renegotiation. A failed one is repaired with a resync
// of the last granted rate, as a source would.
func (r *renegRig) request(ctx context.Context, j renegJob, lat, late *samples, t *tally, tr *tracer) {
	vc := j.vc
	vc.mu.Lock()
	defer vc.mu.Unlock()
	target := vc.stream[vc.pos]
	if tr != nil {
		r.cur[vc.vci].Store(j.seq)
	}
	call := time.Now()
	granted, _, err := vc.cl.Renegotiate(ctx, vc.vci, vc.granted, target)
	end := time.Now()
	if tr != nil {
		r.cur[vc.vci].Store(-1)
		tr.record("Client.Renegotiate", j.seq, tr.at(call), tr.at(end))
		tr.record("request", j.seq, tr.at(j.due), tr.at(end))
	}
	lat.add(end.Sub(j.due))
	late.add(call.Sub(j.due))
	if err != nil {
		t.failed++
		t.resyncs++
		if errors.Is(err, netproto.ErrTimeout) {
			t.unanswered++
		}
		g, _, rerr := vc.cl.Resync(ctx, vc.vci, vc.granted)
		if rerr == nil {
			vc.granted = g
		} else if errors.Is(rerr, netproto.ErrTimeout) {
			t.unanswered++
		}
		return
	}
	vc.granted = granted
	vc.pos = (vc.pos + 1) % len(vc.stream)
}

// climb finds the highest offered rate that passes. It starts from start,
// which passed if startOK, multiplies by growth until a rate fails, then
// bisects (geometrically) refine times between the highest pass and the
// first fail. try reports whether a rate passes; budget caps the number of
// tries. It returns 0 when no rate passed.
func climb(start float64, startOK bool, growth float64, refine, budget int, try func(rate float64) bool) float64 {
	lo, hi, best := start, 0.0, 0.0
	if startOK {
		best = start
	}
	for budget > 0 {
		budget--
		rate := lo * growth
		if !try(rate) {
			hi = rate
			break
		}
		lo, best = rate, rate
	}
	for i := 0; i < refine && hi > 0 && budget > 0; i++ {
		budget--
		mid := math.Sqrt(lo * hi)
		if try(mid) {
			lo, best = mid, mid
		} else {
			hi = mid
		}
	}
	return best
}

// settled snapshots the registry once the server has counted a reply for
// every datagram it kept, or after a second. The server counts a reply after
// sending it, so a client can hold the last reply of a phase before the
// server's count moves.
func (r *renegRig) settled() metrics.Snapshot {
	deadline := time.Now().Add(time.Second)
	for {
		s := r.reg.Snapshot()
		c := s.Counters
		if c[netproto.MetricServerRx]-c[netproto.MetricServerDropped] == c[netproto.MetricServerTx] || time.Now().After(deadline) {
			return s
		}
		time.Sleep(time.Millisecond)
	}
}

// counterDelta is the change of a registry counter between two snapshots.
func counterDelta(a, b metrics.Snapshot, name string) int64 {
	return b.Counters[name] - a.Counters[name]
}

func measureReneg(cfg config, p pass) (*outcome, error) {
	ctx := context.Background()
	streams, capacity, err := renegStreams(cfg.seed)
	if err != nil {
		return nil, err
	}
	o := &outcome{layer: map[string]float64{}}
	var rig *renegRig
	for i := 0; i < p.reps(); i++ {
		if rig != nil {
			rig.close()
		}
		runtime.GC() // each set-up starts from the same heap state
		start := time.Now()
		if rig, err = buildReneg(ctx, streams, capacity, p.tr); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(start).Seconds())
	}
	defer rig.close()

	sec := func(f float64) time.Duration { return time.Duration(f * p.seconds * float64(time.Second)) }
	var seq int64
	var phases []stepResult      // the nominal phase, then every ladder trial
	var snaps []metrics.Snapshot // registry before and after each phase
	phase := func(rate float64, dur time.Duration, tr *tracer) (stepResult, error) {
		before := rig.settled()
		s, err := rig.offer(ctx, rate, dur, &seq, tr)
		if err == nil {
			phases = append(phases, s)
			snaps = append(snaps, before, rig.settled())
		}
		return s, err
	}

	if _, err := rig.offer(ctx, renegNominal, sec(0.05), &seq, nil); err != nil { // warm-up, not measured
		return nil, err
	}
	nomDur := sec(0.85)
	if p.full {
		nomDur = sec(0.5)
	}
	cpu0 := cpuTime()
	alloc0, gc0 := allocSnapshot()
	nominal, err := phase(renegNominal, nomDur, p.tr)
	if err != nil {
		return nil, err
	}
	alloc1, gc1 := allocSnapshot()
	cpu := cpuTime() - cpu0
	// Peak memory is read at the nominal rate: the ladder's overloaded
	// trials queue requests as deep as the host's speed at that moment
	// lets them, so a peak that includes them measures the overload.
	o.maxRSS = maxRSSMiB()
	o.allocBytes, o.gcCycles, o.opsForAlloc = alloc1-alloc0, gc1-gc0, float64(nominal.sent)
	nomOK, nomWhy := nominal.passes()
	o.logf("nominal %8.0f/s: %6d sent, p50 %7.1f us, p90 %7.1f us, p99 %7.1f us, p99.9 %7.1f us, late p99 %7.1f us: %s",
		nominal.rate, nominal.sent, nominal.lat.quantile(0.5)/1e3, nominal.lat.quantile(0.9)/1e3, nominal.lat.quantile(0.99)/1e3,
		nominal.lat.quantile(0.999)/1e3, nominal.late.quantile(0.99)/1e3, nomWhy)

	maxRate := 0.0
	if nomOK {
		maxRate = renegNominal
	}
	if p.full {
		step := sec(0.04)
		maxRate = climb(renegNominal, nomOK, renegGrowth, renegRefine, int(0.5*p.seconds/step.Seconds()), func(rate float64) bool {
			for trial := 0; trial < 2; trial++ {
				s, err := phase(rate, step, nil)
				if err != nil {
					return false
				}
				ok, why := s.passes()
				o.logf("ladder  %8.0f/s: %6d sent, p50 %7.1f us, p99 %7.1f us, late p99 %7.1f us: %s",
					rate, s.sent, s.lat.quantile(0.5)/1e3, s.lat.quantile(0.99)/1e3, s.late.quantile(0.99)/1e3, why)
				if ok {
					return true
				}
			}
			return false
		})
	}

	// The nominal phase and every ladder trial up to the top passing rate
	// count, passed or not; the trials above it overloaded the switch.
	var counted []stepResult
	var countedSnaps []metrics.Snapshot
	for i, s := range phases {
		if i == 0 || s.rate <= maxRate {
			counted = append(counted, s)
			countedSnaps = append(countedSnaps, snaps[2*i], snaps[2*i+1])
			o.attempted += s.sent
			o.failed += s.failed
		}
	}
	o.ops = nominal.lat
	o.opsPerSec = maxRate
	o.checks = append(o.checks, rig.verify(counted, countedSnaps)...)

	o.figure("reneg_p50_us", nominal.lat.quantile(0.5)/1e3, "us")
	o.figure("reneg_p99_us", nominal.lat.quantile(0.99)/1e3, "us")
	o.figure("reneg_max_per_s", maxRate, "req/s")
	o.figure("nominal_requests", float64(nominal.sent), "count")
	o.figure("port_capacity", capacity, "b/s")

	snap := rig.reg.Snapshot()
	o.layer["gen.late_us.p99"] = nominal.late.quantile(0.99) / 1e3
	o.layer["process.cpu_us_per_req"] = float64(cpu.Microseconds()) / float64(nominal.sent)
	if h, ok := snap.Histograms[switchfab.MetricRenegLatency]; ok {
		o.layer["switchfab.reneg_us.mean"] = h.Mean() * 1e6
	}
	if n := snap.Counters[netproto.MetricServerRx]; n > 0 {
		o.layer["netproto.server.dropped_frac"] = float64(snap.Counters[netproto.MetricServerDropped]) / float64(n)
	}
	if n := snap.Counters[netproto.MetricClientRequests]; n > 0 {
		o.layer["netproto.client.retries_per_req"] = float64(snap.Counters[netproto.MetricClientRetries]) / float64(n)
	}
	if n := snap.Counters[switchfab.MetricRenegs]; n > 0 {
		g := float64(snap.Counters[switchfab.MetricGrants]) / float64(n)
		o.layer["switchfab.grant_frac"] = g
		o.figure("grant_frac", g, "ratio")
	}
	return o, nil
}

// verify checks the switch against what the clients were told, and that
// every counted request got exactly one reply.
func (r *renegRig) verify(counted []stepResult, snaps []metrics.Snapshot) []check {
	var out []check
	add := func(ok bool, name, format string, args ...any) {
		out = append(out, check{name: name, ok: ok, info: fmt.Sprintf(format, args...)})
	}
	var mismatched int
	var sum float64
	for _, vc := range r.vcs {
		rate, err := r.sw.VCRateID(switchfab.VCID(vc.vci))
		if err != nil || math.Abs(rate-vc.granted) > vc.granted/256 {
			mismatched++
		}
		sum += rate
	}
	add(mismatched == 0, "switch rate == last grant", "%d of %d VCs differ by more than 1/256", mismatched, len(r.vcs))
	reserved, capacity, err := r.sw.PortLoad(renegPort)
	add(err == nil && math.Abs(reserved-sum) <= 1e-9*capacity && reserved <= capacity, "port load == sum of VCs",
		"reserved %.6g, sum %.6g, capacity %.6g", reserved, sum, capacity)
	var sent, resyncs, unanswered, replies, requests, rx, tx, dropped, retries int64
	for i, s := range counted {
		a, b := snaps[2*i], snaps[2*i+1]
		sent += s.sent
		resyncs += s.resyncs
		unanswered += s.unanswered
		requests += counterDelta(a, b, netproto.MetricClientRequests)
		replies += counterDelta(a, b, netproto.MetricClientRecv)
		retries += counterDelta(a, b, netproto.MetricClientRetries)
		rx += counterDelta(a, b, netproto.MetricServerRx)
		tx += counterDelta(a, b, netproto.MetricServerTx)
		dropped += counterDelta(a, b, netproto.MetricServerDropped)
	}
	// A datagram the server shed when its queue was full is retried by the
	// client; the request still gets exactly one reply. A request that
	// timed out is a failure and gets none.
	add(requests == sent+resyncs && replies == requests-unanswered && rx-dropped == tx, "one reply per request",
		"%d requests + %d resyncs, %d timed out: client sent %d, received %d, retried %d; server received %d, shed %d, replied %d",
		sent, resyncs, unanswered, requests, replies, retries, rx, dropped, tx)
	return out
}
