// Package datapath is the software cell data path of the RCBR switch: the
// executable form of the paper's Section III-A claim that renegotiated
// traffic needs only small FIFO output buffers. Where internal/mux
// *simulates* a multiplexer queue, this package *forwards* real 53-byte
// cells: per-port SPSC ring buffers, a batched forwarding loop that drains
// up to K cells per port visit, VCID routing through a sharded table, and a
// per-VC token-bucket shaper enforcing the currently granted rate.
// Conforming cells are copied to the egress port's ring; excess is policed
// and counted as real per-VC drops, and an egress ring that fills overflows
// — the heuristic's estimated buffer overflows become honestly counted
// cells.
//
// Concurrency model: any number of producer goroutines inject, one per
// ingress port (the SPSC contract); ONE goroutine calls Forward, draining
// every ingress ring; each egress port has one consumer goroutine calling
// Transmit/TransmitTo, which may be the Forward goroutine itself; the
// control plane (switchfab via the DataPlane hooks, or direct calls) adds,
// retargets, and removes VCs concurrently with all of it. Per-VC shaper
// state is owned by the Forward goroutine and guarded against teardown by
// the table shard's reader lock; rate retargets cross from the control
// plane through a single atomic. The steady-state forwarding path takes no
// locks other than that shard read lock and allocates nothing
// (//rcbr:zeroalloc, pinned by TestForwardSteadyStateAllocs).
package datapath

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"rcbr/internal/cell"
	"rcbr/internal/metrics"
	"rcbr/internal/shaper"
	"rcbr/internal/switchfab"
)

// CellPayloadBits is the token cost of forwarding one cell: its 48-byte
// payload in bits, the same conversion internal/mux uses, so a granted rate
// in bits/second maps to rate/384 cells/second on both the simulated and
// the real path.
const CellPayloadBits = float64(cell.PayloadSize * 8)

// Metric names owned by this package.
const (
	MetricCellsArrived     = "datapath.cells_arrived"
	MetricCellsForwarded   = "datapath.cells_forwarded"
	MetricCellsPoliced     = "datapath.cells_policed"
	MetricCellsOverflow    = "datapath.cells_overflow"
	MetricCellsUnroutable  = "datapath.cells_unroutable"
	MetricCellsBadHeader   = "datapath.cells_bad_header"
	MetricCellsTransmitted = "datapath.cells_transmitted"
	MetricForwardBatches   = "datapath.forward_batches"
	MetricVCMisses         = "datapath.vc_misses"
	MetricBatchCells       = "datapath.batch_cells"
)

// Defaults.
const (
	// DefaultBurst is the most cells one Forward call drains from one
	// ingress port before moving to the next: large enough to amortize the
	// per-port visit, small enough that one busy port cannot starve the
	// sweep.
	DefaultBurst = 64
	// DefaultRingCells sizes ingress and egress rings. The paper's point is
	// that smooth traffic keeps FIFOs within a few cells per VC; 1024 slots
	// of 53 bytes is ~54 KB per ring.
	DefaultRingCells = 1024
	// DefaultDepthCells is the default shaper depth in cells: the burst a
	// conforming VC may send ahead of its sustained rate.
	DefaultDepthCells = 32
)

// sentinel for a VC that has not yet seen a cell: the first cell sets the
// clock instead of ticking an absurd interval into the bucket.
const unsetNanos = math.MinInt64

// instruments caches registry handles; all nil-safe no-ops without a
// registry.
type instruments struct {
	arrived     *metrics.Counter
	forwarded   *metrics.Counter
	policed     *metrics.Counter
	overflow    *metrics.Counter
	unroutable  *metrics.Counter
	badHeader   *metrics.Counter
	transmitted *metrics.Counter
	batches     *metrics.Counter
	vcMisses    *metrics.Counter
	batchCells  *metrics.Histogram
}

// Port is one switch port's pair of cell rings: an ingress ring filled by
// the port's producer (the wire) and drained by the forwarder, and an
// egress ring filled by the forwarder and drained by the port's
// transmitter. Counters are atomic so stats can be read while traffic
// flows; drops are attributed to the *ingress* port the cell arrived on,
// whichever egress ring it failed to enter.
type Port struct {
	id  int
	in  *Ring
	out *Ring

	// Ingress-attributed counts: every cell accepted by Inject ends in
	// exactly one of badHeader, unroutable, policed, overflow, forwarded,
	// or is still queued in the ingress ring — the per-port conservation
	// invariant.
	arrived    atomic.Int64
	badHeader  atomic.Int64
	unroutable atomic.Int64
	policed    atomic.Int64
	overflow   atomic.Int64
	forwarded  atomic.Int64

	// Egress-attributed counts: enqueued == transmitted + out.Len().
	enqueued    atomic.Int64
	transmitted atomic.Int64
	orphaned    atomic.Int64
}

// ID returns the port number.
func (p *Port) ID() int { return p.id }

// InLen returns the ingress ring occupancy.
func (p *Port) InLen() int { return p.in.Len() }

// OutLen returns the egress ring occupancy — the paper's FIFO output
// buffer.
func (p *Port) OutLen() int { return p.out.Len() }

// PortStats is a snapshot of one port's counters and queue depths.
type PortStats struct {
	Arrived    int64
	BadHeader  int64
	Unroutable int64
	Policed    int64
	Overflow   int64
	Forwarded  int64

	Enqueued    int64
	Transmitted int64
	Orphaned    int64

	InQueued  int
	OutQueued int
}

// Stats snapshots the port. Exact when the port is quiescent.
func (p *Port) Stats() PortStats {
	return PortStats{
		Arrived:     p.arrived.Load(),
		BadHeader:   p.badHeader.Load(),
		Unroutable:  p.unroutable.Load(),
		Policed:     p.policed.Load(),
		Overflow:    p.overflow.Load(),
		Forwarded:   p.forwarded.Load(),
		Enqueued:    p.enqueued.Load(),
		Transmitted: p.transmitted.Load(),
		Orphaned:    p.orphaned.Load(),
		InQueued:    p.in.Len(),
		OutQueued:   p.out.Len(),
	}
}

// vcEntry is one VC's forwarding state. The shaper fields (tb, curRate,
// lastNanos) are owned by the forwarder goroutine, which only touches them
// under the entry's shard read lock; RemoveVC excludes it with the write
// lock before freeing the entry. rateBits is the control plane's mailbox:
// a renegotiation stores the new granted rate there atomically and the
// forwarder folds it into the bucket on the VC's next cell.
type vcEntry struct {
	egress    *Port
	rateBits  atomic.Uint64 // granted rate, float64 bits
	tb        *shaper.TokenBucket
	curRate   float64
	lastNanos int64

	seen      atomic.Int64
	forwarded atomic.Int64
	policed   atomic.Int64
	overflow  atomic.Int64
	queued    atomic.Int64
}

// VCStats is a snapshot of one VC's counters: Seen == Policed + Overflow +
// Forwarded always, and Queued == 0 once every forwarded cell has been
// transmitted.
type VCStats struct {
	Rate      float64
	Seen      int64
	Forwarded int64
	Policed   int64
	Overflow  int64
	Queued    int64
}

// shard is one lock domain of the VC table, deliberately shaped like
// switchfab's: the same rank in the repo lock order, the same cache-line
// pad.
type shard struct {
	mu  sync.RWMutex
	vcs map[switchfab.VCID]*vcEntry
	_   [24]byte
}

// Forwarder is the cell data path of one switch. See the package comment
// for the concurrency contract.
type Forwarder struct {
	shards    []shard
	shardMask uint32

	// portsMu guards the ports map; portList is the Forward goroutine's
	// lock-free snapshot, republished on every AddPort.
	portsMu  sync.Mutex
	ports    map[int]*Port
	portList atomic.Pointer[[]*Port]

	burst     int
	ringCells int
	depthBits float64

	reg *metrics.Registry
	ins instruments
}

// Option configures a Forwarder.
type Option func(*Forwarder)

// WithBurst sets how many cells one Forward call drains per port visit
// (default DefaultBurst). Values < 1 keep the default.
func WithBurst(k int) Option {
	return func(f *Forwarder) {
		if k >= 1 {
			f.burst = k
		}
	}
}

// WithRingCells sets the per-port ring capacity in cells, rounded up to a
// power of two (default DefaultRingCells). The egress ring is the paper's
// small FIFO output buffer, so this is the knob an overflow experiment
// turns. Values < 1 keep the default.
func WithRingCells(n int) Option {
	return func(f *Forwarder) {
		if n >= 1 {
			f.ringCells = n
		}
	}
}

// WithDepthCells sets the per-VC shaper depth in cells (default
// DefaultDepthCells). Values < 1 keep the default.
func WithDepthCells(n int) Option {
	return func(f *Forwarder) {
		if n >= 1 {
			f.depthBits = float64(n) * CellPayloadBits
		}
	}
}

// WithMetrics publishes the datapath.* counters into reg.
func WithMetrics(reg *metrics.Registry) Option {
	return func(f *Forwarder) { f.reg = reg }
}

// New returns an empty forwarder: add ports, then VCs, then pump it.
func New(opts ...Option) *Forwarder {
	f := &Forwarder{
		shards:    make([]shard, switchfab.DefaultShards),
		ports:     make(map[int]*Port),
		burst:     DefaultBurst,
		ringCells: DefaultRingCells,
		depthBits: DefaultDepthCells * CellPayloadBits,
	}
	for _, opt := range opts {
		if opt != nil {
			opt(f)
		}
	}
	f.shardMask = uint32(len(f.shards) - 1)
	for i := range f.shards {
		f.shards[i].vcs = make(map[switchfab.VCID]*vcEntry)
	}
	if f.reg != nil {
		f.ins = instruments{
			arrived:     f.reg.Counter(MetricCellsArrived),
			forwarded:   f.reg.Counter(MetricCellsForwarded),
			policed:     f.reg.Counter(MetricCellsPoliced),
			overflow:    f.reg.Counter(MetricCellsOverflow),
			unroutable:  f.reg.Counter(MetricCellsUnroutable),
			badHeader:   f.reg.Counter(MetricCellsBadHeader),
			transmitted: f.reg.Counter(MetricCellsTransmitted),
			batches:     f.reg.Counter(MetricForwardBatches),
			vcMisses:    f.reg.Counter(MetricVCMisses),
			batchCells:  f.reg.Histogram(MetricBatchCells, metrics.ExpBuckets(1, 2, 12)),
		}
	}
	empty := []*Port{}
	f.portList.Store(&empty)
	return f
}

//rcbr:zeroalloc
func (f *Forwarder) shard(id switchfab.VCID) *shard {
	return &f.shards[uint32(id)&f.shardMask]
}

// AddPort registers a port and its ring pair.
func (f *Forwarder) AddPort(id int) (*Port, error) {
	f.portsMu.Lock()
	defer f.portsMu.Unlock()
	if _, ok := f.ports[id]; ok {
		return nil, fmt.Errorf("datapath: port %d exists", id)
	}
	p := &Port{id: id, in: NewRing(f.ringCells), out: NewRing(f.ringCells)}
	f.ports[id] = p
	old := *f.portList.Load()
	next := make([]*Port, len(old), len(old)+1)
	copy(next, old)
	next = append(next, p)
	f.portList.Store(&next)
	return p, nil
}

// Port returns a registered port, or nil.
func (f *Forwarder) Port(id int) *Port {
	f.portsMu.Lock()
	defer f.portsMu.Unlock()
	return f.ports[id]
}

// AddVC routes a VC to an egress port at a granted rate. The shaper starts
// full: a conforming VC may burst its depth immediately, then sustain rate.
func (f *Forwarder) AddVC(id switchfab.VCID, egressPort int, rate float64) error {
	if err := shaper.Validate(rate, f.depthBits); err != nil {
		return err
	}
	if math.IsInf(rate, 1) {
		return fmt.Errorf("shaper: invalid rate %g", rate)
	}
	out := f.Port(egressPort)
	if out == nil {
		return fmt.Errorf("datapath: no egress port %d", egressPort)
	}
	e := &vcEntry{
		egress:    out,
		tb:        shaper.New(rate, f.depthBits),
		curRate:   rate,
		lastNanos: unsetNanos,
	}
	e.rateBits.Store(math.Float64bits(rate))
	sh := f.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.vcs[id]; ok {
		return fmt.Errorf("datapath: vc %s exists", id)
	}
	sh.vcs[id] = e
	return nil
}

// SetVCRate retargets a VC's granted rate. The store is atomic; the
// forwarder folds it into the token bucket on the VC's next cell, keeping
// earned credit (see shaper.SetRate).
func (f *Forwarder) SetVCRate(id switchfab.VCID, rate float64) error {
	if err := shaper.Validate(rate, 0); err != nil {
		return err
	}
	if math.IsInf(rate, 1) {
		return fmt.Errorf("shaper: invalid rate %g", rate)
	}
	sh := f.shard(id)
	sh.mu.RLock()
	e := sh.vcs[id]
	sh.mu.RUnlock()
	if e == nil {
		f.ins.vcMisses.Inc()
		return fmt.Errorf("datapath: no vc %s", id)
	}
	e.rateBits.Store(math.Float64bits(rate))
	return nil
}

// RemoveVC tears a VC out of the table, returning its final stats. Taking
// the shard exclusively guarantees the forwarder is not mid-cell on the VC
// when its shaper is freed. Cells of the VC still queued on the egress
// ring are transmitted as orphans.
func (f *Forwarder) RemoveVC(id switchfab.VCID) (VCStats, error) {
	sh := f.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.vcs[id]
	if e == nil {
		f.ins.vcMisses.Inc()
		return VCStats{}, fmt.Errorf("datapath: no vc %s", id)
	}
	delete(sh.vcs, id)
	return e.stats(), nil
}

func (e *vcEntry) stats() VCStats {
	return VCStats{
		Rate:      math.Float64frombits(e.rateBits.Load()),
		Seen:      e.seen.Load(),
		Forwarded: e.forwarded.Load(),
		Policed:   e.policed.Load(),
		Overflow:  e.overflow.Load(),
		Queued:    e.queued.Load(),
	}
}

// VCStats snapshots a VC's counters.
func (f *Forwarder) VCStats(id switchfab.VCID) (VCStats, bool) {
	sh := f.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e := sh.vcs[id]
	if e == nil {
		return VCStats{}, false
	}
	return e.stats(), true
}

// VCCount returns the number of routed VCs.
func (f *Forwarder) VCCount() int {
	n := 0
	for i := range f.shards {
		f.shards[i].mu.RLock()
		n += len(f.shards[i].vcs)
		f.shards[i].mu.RUnlock()
	}
	return n
}

// Inject offers a cell to a port's ingress ring — the port's wire-receive
// path, one producer goroutine per port. It reports false when the ring is
// full: the cell was dropped before the switch, as a real line card's
// receive FIFO would.
//
//rcbr:zeroalloc
func (f *Forwarder) Inject(p *Port, c *Cell) bool {
	if !p.in.Push(c) {
		return false
	}
	p.arrived.Add(1)
	f.ins.arrived.Inc()
	return true
}

// Forward runs one sweep of the forwarding loop at virtual time nowNanos:
// it visits every port and drains up to the configured burst of cells from
// each ingress ring, shaping and routing each to its egress ring. It
// returns the number of cells processed (forwarded or dropped). Only one
// goroutine may call Forward, and nowNanos must not decrease between
// calls.
//
//rcbr:zeroalloc
func (f *Forwarder) Forward(nowNanos int64) int {
	total := 0
	ports := *f.portList.Load()
	for _, p := range ports {
		total += f.forwardPort(p, nowNanos)
	}
	f.ins.batches.Inc()
	f.ins.batchCells.Observe(float64(total))
	return total
}

// forwardPort drains up to burst cells from one ingress ring. Per cell:
// verify the header (table-driven HEC), look the VCID up in the sharded
// table under a read lock, fold any pending rate retarget into the shaper,
// tick the bucket to nowNanos and take one cell's payload worth of tokens;
// a conforming cell is copied to the egress ring, a non-conforming one is
// policed, a full egress ring counts an overflow. Every cell leaves the
// ingress ring exactly once, into exactly one counter.
//
//rcbr:zeroalloc
func (f *Forwarder) forwardPort(p *Port, now int64) int {
	n := 0
	var fwd, pol, ovf, unr, bad int64
	for n < f.burst {
		c := p.in.Peek()
		if c == nil {
			break
		}
		n++
		h, err := cell.ParseHeader(c[:cell.HeaderSize])
		if err != nil {
			bad++
			p.badHeader.Add(1)
			p.in.Advance()
			continue
		}
		id := switchfab.MakeVCID(h.VPI, h.VCI)
		sh := f.shard(id)
		sh.mu.RLock()
		e := sh.vcs[id]
		if e == nil {
			sh.mu.RUnlock()
			unr++
			p.unroutable.Add(1)
			p.in.Advance()
			continue
		}
		// Shaper state is touched only here, under the shard read lock
		// that RemoveVC excludes.
		if rate := math.Float64frombits(e.rateBits.Load()); rate != e.curRate {
			e.tb.SetRate(rate)
			e.curRate = rate
		}
		if e.lastNanos == unsetNanos {
			e.lastNanos = now
		} else if dt := now - e.lastNanos; dt > 0 {
			e.tb.Tick(float64(dt) * 1e-9)
			e.lastNanos = now
		}
		e.seen.Add(1)
		if !e.tb.Take(CellPayloadBits) {
			e.policed.Add(1)
			sh.mu.RUnlock()
			pol++
			p.policed.Add(1)
			p.in.Advance()
			continue
		}
		out := e.egress
		if out.out.Push(c) {
			e.forwarded.Add(1)
			e.queued.Add(1)
			sh.mu.RUnlock()
			out.enqueued.Add(1)
			fwd++
			p.forwarded.Add(1)
		} else {
			e.overflow.Add(1)
			sh.mu.RUnlock()
			ovf++
			p.overflow.Add(1)
		}
		p.in.Advance()
	}
	if n > 0 {
		f.ins.forwarded.Add(fwd)
		f.ins.policed.Add(pol)
		f.ins.overflow.Add(ovf)
		f.ins.unroutable.Add(unr)
		f.ins.badHeader.Add(bad)
	}
	return n
}

// Transmit drains up to max cells from a port's egress ring, the port's
// wire-send path. One consumer goroutine per port (the SPSC contract);
// different ports may be drained by different goroutines, concurrently
// with each other and with Forward (the per-VC queued accounting is atomic
// under the shard read lock).
//
//rcbr:zeroalloc
func (f *Forwarder) Transmit(p *Port, max int) int {
	return f.TransmitTo(p, max, nil)
}

// TransmitTo is Transmit delivering each cell to sink (when non-nil)
// before its slot is released; the mesh relay uses it to carry cells onto
// the next hop's ingress ring. The *Cell aliases the ring slot and must
// not be retained past the callback.
//
//rcbr:zeroalloc
func (f *Forwarder) TransmitTo(p *Port, max int, sink func(*Cell)) int {
	n := 0
	for n < max {
		c := p.out.Peek()
		if c == nil {
			break
		}
		vpi, vci := cell.PeekVCID(c[:])
		id := switchfab.MakeVCID(vpi, vci)
		sh := f.shard(id)
		sh.mu.RLock()
		if e := sh.vcs[id]; e != nil {
			e.queued.Add(-1)
		} else {
			p.orphaned.Add(1)
		}
		sh.mu.RUnlock()
		if sink != nil {
			sink(c)
		}
		p.out.Advance()
		p.transmitted.Add(1)
		n++
	}
	if n > 0 {
		f.ins.transmitted.Add(int64(n))
	}
	return n
}

// DataPlane hooks: a Forwarder plugs into switchfab.WithDataPlane so the
// control plane mirrors every VC lifecycle change into the table. The
// hooks run under the switch's port mutex and must not block; all three
// are O(1) plus one shard lock. Setup failures (unknown egress port) and
// changes for unknown VCs count into datapath.vc_misses rather than
// erroring the signaling path.

// OnSetup implements switchfab.DataPlane.
func (f *Forwarder) OnSetup(port int, id switchfab.VCID, rate float64) {
	if err := f.AddVC(id, port, rate); err != nil {
		f.ins.vcMisses.Inc()
	}
}

// OnRateChange implements switchfab.DataPlane.
//
//rcbr:zeroalloc
func (f *Forwarder) OnRateChange(port int, id switchfab.VCID, rate float64) {
	sh := f.shard(id)
	sh.mu.RLock()
	e := sh.vcs[id]
	if e != nil {
		e.rateBits.Store(math.Float64bits(rate))
	}
	sh.mu.RUnlock()
	if e == nil {
		f.ins.vcMisses.Inc()
	}
}

// OnTeardown implements switchfab.DataPlane.
func (f *Forwarder) OnTeardown(port int, id switchfab.VCID) {
	_, _ = f.RemoveVC(id)
}
