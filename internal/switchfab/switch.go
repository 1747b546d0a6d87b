// Package switchfab implements the RCBR switch controller of Section III of
// the paper. The design goal is the paper's: because all admitted traffic is
// (renegotiated) CBR, the switch needs no per-VC queueing or scheduling
// state — only, per output port, the capacity and current reserved
// utilization, and per VC, the output port and reserved rate. Handling a
// renegotiation RM cell is exactly the paper's two lookups and one compare:
// find the VC's output port, fetch the port's utilization and capacity, and
// grant the request iff utilization plus the rate difference stays within
// capacity; otherwise mark the backward cell denied and keep the old rate.
//
// Call setup (the expensive signaling path: route choice, VC allocation,
// admission control) is a separate method with a pluggable admission policy,
// mirroring the paper's split between heavyweight setup and lightweight
// renegotiation.
//
// Concurrency: the VC table is sharded. Each of the N (power-of-two) shards
// owns an RWMutex and its slice of the VC map, selected by the low bits of
// the VC identifier, so renegotiations on different VCs contend only when
// they land in the same shard — and even then only on a reader-shared lock.
// Each port has its own mutex guarding its reservation and the rate (and RM
// sequence state) of the VCs homed on it. A renegotiation therefore touches
// exactly one shard lock (shared) and one port mutex. Lock order is always
// shard before port, and never two shard locks and never two port locks at
// once (HandleRMBatch applies its shard groups strictly sequentially).
// Setup and teardown take the owning shard exclusively — which is what keeps
// teardown from freeing a VC out from under an in-flight RM cell. Setups on
// different ports run concurrently: the admission decision and the
// reservation update happen under the one port's mutex, so admission state
// shards with the fabric. A LifecycleAdmitter is invoked with the VC's port
// mutex held — per-port serialization is the concurrency contract its
// implementations rely on — while a legacy plain Admitter is additionally
// serialized under an internal admit mutex (acquired after the port mutex,
// released before any other lock is taken), preserving the old
// never-concurrent contract those implementations were written against.
// Activity counters are atomics.
//
// VC identifiers: the paper's switch is an ATM switch, so a VC is named by
// the cell header's (VPI, VCI) pair — 24 bits, far past the 65,536 circuits
// a bare 16-bit VCI allows. Every method that addresses a VC takes that
// pair packed as one VCID; HandleRM reads it from the cell header.
//
// RM-cell sequence numbers: delta cells are not idempotent, so the switch
// tracks the last-seen sequence number per VC and drops a sequenced delta
// cell at or below it (a delayed duplicate whose effect was superseded by
// the sender's idempotent resync retry), acknowledging with the current
// absolute rate instead. Resync cells carry absolute rates, so they are
// always applied and reset the per-VC sequence — which also lets a restarted
// source (sequence counter back at 1) re-adopt a VC. Seq 0 marks an
// unsequenced (legacy) cell and bypasses the check.
//
// Construction uses functional options (WithAdmitter, WithMetrics,
// WithEventTrace, WithShards); observability is opt-in and free when absent,
// because every instrument is nil-safe and cached at construction time — the
// renegotiation hot path never looks anything up by name.
package switchfab

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"rcbr/internal/cell"
	"rcbr/internal/metrics"
)

// Errors returned by switch operations.
var (
	ErrNoPort      = errors.New("switchfab: no such port")
	ErrPortExists  = errors.New("switchfab: port already exists")
	ErrNoVC        = errors.New("switchfab: no such VC")
	ErrVCExists    = errors.New("switchfab: VC already exists")
	ErrAdmission   = errors.New("switchfab: call rejected by admission control")
	ErrCapacity    = errors.New("switchfab: insufficient port capacity")
	ErrInvalidRate = errors.New("switchfab: invalid rate")
)

// IsReject reports whether err is an ordinary call rejection — admission
// control or insufficient capacity — as opposed to a caller mistake (bad
// rate, unknown port, duplicate VC). Load generators count rejections and
// carry on; everything else is a bug worth surfacing.
func IsReject(err error) bool {
	return errors.Is(err, ErrAdmission) || errors.Is(err, ErrCapacity)
}

// VCID names a virtual channel by its ATM (VPI, VCI) pair packed into 24
// bits: VPI in bits 16-23, VCI in bits 0-15. A bare VCI converts to the
// VPI-0 identifier, VCID(vci).
type VCID uint32

// MakeVCID packs a (VPI, VCI) pair.
func MakeVCID(vpi uint8, vci uint16) VCID {
	return VCID(vpi)<<16 | VCID(vci)
}

// VPI returns the virtual-path half of the identifier.
func (id VCID) VPI() uint8 { return uint8(id >> 16) }

// VCI returns the virtual-channel half of the identifier.
func (id VCID) VCI() uint16 { return uint16(id) }

// String renders "vpi.vci" (or just the VCI for VPI 0, the common case).
func (id VCID) String() string {
	if id.VPI() == 0 {
		return fmt.Sprintf("%d", id.VCI())
	}
	return fmt.Sprintf("%d.%d", id.VPI(), id.VCI())
}

// Admitter is the call-admission hook consulted at setup time (never during
// renegotiation). Implementations may be stateful; the switch serializes
// calls under an internal admit mutex, so a plain Admitter never runs
// concurrently with itself — but it also serializes setups across ports.
// Implementations that want setups on different ports to proceed in
// parallel should implement LifecycleAdmitter instead.
type Admitter interface {
	// AdmitCall reports whether a new call asking for rate bits/second may
	// enter a port with the given reserved and capacity figures.
	AdmitCall(port int, rate, reserved, capacity float64) bool
}

// AdmitterFunc adapts a function to the Admitter interface.
type AdmitterFunc func(port int, rate, reserved, capacity float64) bool

// AdmitCall implements Admitter.
func (f AdmitterFunc) AdmitCall(port int, rate, reserved, capacity float64) bool {
	return f(port, rate, reserved, capacity)
}

// LifecycleAdmitter is a call-admission policy that additionally observes the
// full life of every admitted call, mirroring admission.Controller: admit,
// rate changes from granted renegotiations, and departure. It is the
// interface a measurement-based scheme (the paper's Section VI) needs to
// maintain per-call bandwidth history inside a live switch.
//
// Concurrency contract: the switch invokes every method with the affected
// VC's port mutex held, so calls for the same port are serialized while
// calls for different ports run concurrently. Implementations therefore
// shard their state per port (see MemoryAdmitter) and must not call back
// into the switch. Unlike a plain Admitter, no global admit mutex is taken —
// this is what lets setups on different ports proceed in parallel.
type LifecycleAdmitter interface {
	Admitter
	// OnAdmit notifies that VC id entered port at the given rate, after
	// AdmitCall said yes and the reservation was applied.
	OnAdmit(port int, id VCID, rate float64)
	// OnRateChange notifies that VC id's reserved rate changed (a granted,
	// possibly partial, renegotiation or resync).
	OnRateChange(port int, id VCID, oldRate, newRate float64)
	// OnDepart notifies that VC id left port, releasing rate.
	OnDepart(port int, id VCID, rate float64)
}

// DataPlane mirrors VC lifecycle changes into a forwarding plane (the cell
// data path of internal/datapath, or any other consumer of granted rates).
// Every hook runs with the affected VC's shard and port locks held, after
// the reservation bookkeeping succeeded, so the data plane sees lifecycle
// events in the exact order the control plane committed them and never a
// rate the fabric rejected. Hooks must not block and must not call back
// into the switch.
type DataPlane interface {
	// OnSetup notifies that VC id was admitted to egress port at rate.
	OnSetup(port int, id VCID, rate float64)
	// OnRateChange notifies that VC id's granted rate is now rate.
	OnRateChange(port int, id VCID, rate float64)
	// OnTeardown notifies that VC id left port.
	OnTeardown(port int, id VCID)
}

// Stats is a snapshot of switch activity counters.
type Stats struct {
	Setups         int64
	SetupRejects   int64
	Teardowns      int64
	Renegotiations int64
	Denials        int64
	// PartialGrants counts RenegotiateBestID requests settled below the
	// asked-for rate but above the old one (denials and full grants are
	// counted under Denials and Renegotiations as usual).
	PartialGrants int64
	Resyncs       int64
	// DupDrops counts sequenced delta RM cells dropped as delayed
	// duplicates (see HandleRM).
	DupDrops int64
	// Batches counts HandleRMBatch calls; BatchCells the RM messages they
	// carried.
	Batches    int64
	BatchCells int64
	// ReservedClamps counts the times a port's reserved figure went negative
	// (floating-point residue under churn) and was clamped back to zero.
	// A nonzero value on a workload with exactly-representable rates is an
	// accounting bug, not dust.
	ReservedClamps int64
}

// statCounters is the live (atomic) form of Stats, safe to bump from
// concurrent per-port renegotiations.
type statCounters struct {
	setups         atomic.Int64
	setupRejects   atomic.Int64
	teardowns      atomic.Int64
	renegotiations atomic.Int64
	denials        atomic.Int64
	partialGrants  atomic.Int64
	resyncs        atomic.Int64
	dupDrops       atomic.Int64
	batches        atomic.Int64
	batchCells     atomic.Int64
	reservedClamps atomic.Int64
}

type port struct {
	id       int
	capacity float64

	// mu guards reserved and the rate/sequence state of every VC homed on
	// this port, so renegotiations on different ports never contend.
	mu       sync.Mutex
	reserved float64

	// reservedGauge mirrors reserved into the metrics registry; nil (a
	// no-op) when the switch has no registry.
	reservedGauge *metrics.Gauge
}

type vcState struct {
	// p is the VC's output port, fixed at setup — cached here so the
	// renegotiation hot path never consults the port table.
	p *port
	// rate, lastSeq, and seqSeen are guarded by the owning port's mutex.
	rate    float64
	lastSeq uint32
	seqSeen bool
}

// shard is one slice of the VC table: its own lock, its own map. The
// renegotiation hot path takes the lock shared; setup and teardown take it
// exclusively.
type shard struct {
	mu  sync.RWMutex
	vcs map[VCID]*vcState
	// pad keeps neighbouring shards' locks off one cache line, so shard
	// parallelism is not silently serialized by false sharing.
	_ [24]byte
}

// instruments caches the switch's registry handles. All fields are nil-safe
// no-ops when no registry is configured, so the hot path records
// unconditionally.
type instruments struct {
	setups          *metrics.Counter
	setupRejects    *metrics.Counter
	teardowns       *metrics.Counter
	renegs          *metrics.Counter
	grants          *metrics.Counter
	denials         *metrics.Counter
	partialGrants   *metrics.Counter
	resyncs         *metrics.Counter
	dupDrops        *metrics.Counter
	batches         *metrics.Counter
	batchCells      *metrics.Counter
	reservedClamped *metrics.Counter
	renegLatency    *metrics.Histogram
	setupLatency    *metrics.Histogram
	admitLatency    *metrics.Histogram
	shardVCsMax     *metrics.Gauge
}

// Metric and event names exposed by the switch.
const (
	MetricSetups       = "switch.setups"
	MetricSetupRejects = "switch.setup_rejects"
	MetricTeardowns    = "switch.teardowns"
	MetricRenegs       = "switch.renegotiations"
	MetricGrants       = "switch.renegotiation_grants"
	MetricDenials      = "switch.renegotiation_denials"
	// MetricPartialGrants counts RenegotiateBestID settlements strictly
	// between the old and the requested rate.
	MetricPartialGrants = "switch.renegotiation_partial_grants"
	MetricResyncs       = "switch.resyncs"
	MetricDupDrops      = "switch.rm_duplicates_dropped"
	// MetricRenegLatency observes every RenegotiateID, RenegotiateBestID and
	// HandleRM call past argument validation — grant, deny, duplicate drop
	// and error alike — and HandleRMBatch once per batch: the batch is the
	// request.
	MetricRenegLatency = "switch.renegotiation_seconds"
	// MetricShardCount is the configured shard count (a gauge, set once at
	// construction); MetricShardVCsMax tracks the high-water VC occupancy of
	// the fullest shard, a cheap balance check for the VCI->shard spread.
	MetricShardCount  = "switch.shard.count"
	MetricShardVCsMax = "switch.shard.vcs_max"
	// MetricRMBatches / MetricRMBatchCells count HandleRMBatch invocations
	// and the RM messages they coalesced.
	MetricRMBatches    = "switch.rm_batches"
	MetricRMBatchCells = "switch.rm_batch_cells"
	// MetricReservedClamped counts negative-residue clamps of a port's
	// reserved figure (see Stats.ReservedClamps).
	MetricReservedClamped = "switch.port.reserved_clamped"
	// MetricSetupLatency observes the wall time of every SetupID call past
	// argument validation — accept, capacity reject and admission reject
	// alike — and MetricAdmitLatency the admission decision alone (recorded
	// only when an Admitter is installed), so setup cost and admit-decision
	// cost separate cleanly under churn.
	MetricSetupLatency = "switch.setup_seconds"
	MetricAdmitLatency = "switch.admit_seconds"
)

// PortReservedGauge returns the registry name of a port's reserved-rate
// gauge.
func PortReservedGauge(portID int) string {
	return fmt.Sprintf("switch.port.%d.reserved_bps", portID)
}

// PortCapacityGauge returns the registry name of a port's capacity gauge.
func PortCapacityGauge(portID int) string {
	return fmt.Sprintf("switch.port.%d.capacity_bps", portID)
}

// DefaultShards is the default VC-table shard count. Power of two; high
// enough that a renegotiation storm across tens of thousands of VCs spreads
// over independent locks, low enough that an idle switch stays small.
const DefaultShards = 32

// maxShards bounds WithShards; past this the shard array itself is the
// memory cost, not the contention relief.
const maxShards = 1 << 14

// Switch is a software RCBR switch. It is safe for concurrent use;
// renegotiations contend only when they share a VC-table shard (a
// reader-shared lock) or an output port.
type Switch struct {
	// shards holds the VC table; shardMask is len(shards)-1 (power of two).
	shards    []shard
	shardMask uint32

	// portMu guards the ports map itself (registration and lookup); each
	// port's accounting has its own mutex.
	portMu sync.RWMutex
	ports  map[int]*port

	// admitMu serializes AdmitCall on a legacy plain Admitter so a stateful
	// implementation never runs concurrently with itself, exactly as under
	// the old global setup lock. It is acquired with the admitting port's
	// mutex held and released before anything else, and is never taken when
	// the admitter implements LifecycleAdmitter (whose contract is per-port
	// serialization instead).
	admitMu sync.Mutex
	// maxShardVCs is the high-water occupancy of the fullest shard,
	// maintained by CAS — setups on different ports race to update it.
	maxShardVCs atomic.Int64

	vcCount atomic.Int64

	admitter Admitter
	// lifecycle is admitter's LifecycleAdmitter form, resolved once at
	// construction so the setup path never repeats the type assertion.
	lifecycle LifecycleAdmitter
	// dataplane, when set, receives every committed VC lifecycle change.
	dataplane DataPlane
	stats     statCounters

	reg    *metrics.Registry
	ins    instruments
	events *metrics.EventLog
}

// Option configures a Switch at construction time. A nil Option is ignored,
// so legacy call sites passing a nil admitter positionally (New(nil)) keep
// compiling and behaving as before.
type Option func(*Switch)

// WithAdmitter installs the call-admission policy consulted at setup time.
// A nil admitter (the default) admits every call that fits within capacity.
func WithAdmitter(a Admitter) Option {
	return func(s *Switch) { s.admitter = a }
}

// WithMetrics publishes the switch's counters, per-port reserved gauges,
// and the renegotiation latency histogram into reg.
func WithMetrics(reg *metrics.Registry) Option {
	return func(s *Switch) { s.reg = reg }
}

// WithEventTrace records per-VC lifecycle events (setup, renegotiate-grant,
// renegotiate-deny, resync, teardown, ...) into ring.
func WithEventTrace(ring *metrics.EventLog) Option {
	return func(s *Switch) { s.events = ring }
}

// WithDataPlane attaches a forwarding plane: every committed setup, granted
// rate change, and teardown is mirrored into dp under the switch's locks,
// so a renegotiation atomically retargets the VC's shaper the moment it is
// granted.
func WithDataPlane(dp DataPlane) Option {
	return func(s *Switch) { s.dataplane = dp }
}

// WithShards sets the VC-table shard count, rounded up to a power of two
// and clamped to [1, 16384]. One shard reproduces the pre-sharding fabric —
// a single reader-shared lock over one map — and is the "legacy" baseline
// the fabric benchmarks compare against. Values <= 0 keep the default.
func WithShards(n int) Option {
	return func(s *Switch) {
		if n <= 0 {
			return
		}
		if n > maxShards {
			n = maxShards
		}
		p := 1
		for p < n {
			p <<= 1
		}
		s.shards = make([]shard, p)
	}
}

// New returns an empty switch configured by the options. With no options it
// admits every call that fits within port capacity and records nothing.
func New(opts ...Option) *Switch {
	s := &Switch{
		ports: make(map[int]*port),
	}
	for _, opt := range opts {
		if opt != nil {
			opt(s)
		}
	}
	if s.shards == nil {
		s.shards = make([]shard, DefaultShards)
	}
	s.shardMask = uint32(len(s.shards) - 1)
	for i := range s.shards {
		s.shards[i].vcs = make(map[VCID]*vcState)
	}
	s.lifecycle, _ = s.admitter.(LifecycleAdmitter)
	if s.reg != nil {
		s.ins = instruments{
			setups:          s.reg.Counter(MetricSetups),
			setupRejects:    s.reg.Counter(MetricSetupRejects),
			teardowns:       s.reg.Counter(MetricTeardowns),
			renegs:          s.reg.Counter(MetricRenegs),
			grants:          s.reg.Counter(MetricGrants),
			denials:         s.reg.Counter(MetricDenials),
			partialGrants:   s.reg.Counter(MetricPartialGrants),
			resyncs:         s.reg.Counter(MetricResyncs),
			dupDrops:        s.reg.Counter(MetricDupDrops),
			batches:         s.reg.Counter(MetricRMBatches),
			batchCells:      s.reg.Counter(MetricRMBatchCells),
			reservedClamped: s.reg.Counter(MetricReservedClamped),
			renegLatency:    s.reg.Histogram(MetricRenegLatency, metrics.DefBuckets),
			setupLatency:    s.reg.Histogram(MetricSetupLatency, metrics.DefBuckets),
			admitLatency:    s.reg.Histogram(MetricAdmitLatency, metrics.DefBuckets),
			shardVCsMax:     s.reg.Gauge(MetricShardVCsMax),
		}
		s.reg.Gauge(MetricShardCount).Set(float64(len(s.shards)))
	}
	return s
}

// validRate reports whether rate is usable as a reservation figure: finite
// and non-negative. The comparison form matters: NaN fails every ordered
// comparison, so the naive `rate < 0` rejection lets NaN through — and one
// NaN added into a port's reserved figure makes every later capacity
// comparison false, overcommitting the port forever. +Inf is rejected
// explicitly for the same reason.
//
//rcbr:zeroalloc
func validRate(rate float64) bool {
	return rate >= 0 && !math.IsInf(rate, 1)
}

// ShardCount returns the configured number of VC-table shards.
func (s *Switch) ShardCount() int { return len(s.shards) }

// shard selects the owning shard of a VC. Sequential VCIs stripe round-robin
// across shards, so the common dense allocation pattern balances perfectly.
//
//rcbr:zeroalloc
func (s *Switch) shard(id VCID) *shard {
	return &s.shards[uint32(id)&s.shardMask]
}

// port resolves a registered port by id, or nil.
func (s *Switch) port(id int) *port {
	s.portMu.RLock()
	p := s.ports[id]
	s.portMu.RUnlock()
	return p
}

// AddPort registers an output port with the given capacity in bits/second.
// The capacity must be finite and positive (NaN would make every later
// capacity comparison on the port false).
func (s *Switch) AddPort(id int, capacity float64) error {
	if math.IsNaN(capacity) || math.IsInf(capacity, 0) || capacity <= 0 {
		return fmt.Errorf("%w: capacity %g", ErrInvalidRate, capacity)
	}
	s.portMu.Lock()
	defer s.portMu.Unlock()
	if _, ok := s.ports[id]; ok {
		return fmt.Errorf("%w: %d", ErrPortExists, id)
	}
	p := &port{id: id, capacity: capacity}
	if s.reg != nil {
		s.reg.Gauge(PortCapacityGauge(id)).Set(capacity)
		p.reservedGauge = s.reg.Gauge(PortReservedGauge(id))
		p.reservedGauge.Set(0)
	}
	s.ports[id] = p
	return nil
}

// setReserved updates a port's reservation and its mirrored gauge together.
// The port's mutex must be held. A negative residue — floating-point dust
// left by mismatched add/subtract orderings under churn, or a genuine
// accounting leak — is clamped back to zero, but no longer silently: the
// clamp is counted on switch.port.reserved_clamped and recorded as a
// reserved-clamp event carrying the discarded residue, so drift is visible
// instead of absorbed.
//
//rcbr:zeroalloc
func (s *Switch) setReserved(p *port, v float64) {
	if v < 0 {
		s.stats.reservedClamps.Add(1)
		s.ins.reservedClamped.Inc()
		s.events.Record(metrics.Event{Kind: metrics.EventReservedClamp, Port: p.id, Requested: v})
		v = 0
	}
	p.reserved = v
	p.reservedGauge.Set(v)
}

// SetupID establishes a VC on an output port at an initial rate: the
// heavyweight signaling path, subject to admission control and the hard
// capacity check. Setups on different ports run concurrently: the only locks
// taken are the VC's shard (exclusive) and the target port's mutex, in that
// order, with the admission decision and the reservation applied under the
// same port-mutex hold so no concurrent setup can invalidate the decision.
func (s *Switch) SetupID(id VCID, portID int, rate float64) error {
	if !validRate(rate) {
		return fmt.Errorf("%w: %g", ErrInvalidRate, rate)
	}
	defer s.ins.setupLatency.ObserveSince(s.ins.setupLatency.Start())
	p := s.port(portID)
	if p == nil {
		return fmt.Errorf("%w: %d", ErrNoPort, portID)
	}
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.vcs[id]; ok {
		return fmt.Errorf("%w: %s", ErrVCExists, id)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.reserved+rate > p.capacity {
		s.rejectSetup(id, portID, rate)
		return fmt.Errorf("%w: port %d has %g of %g reserved",
			ErrCapacity, portID, p.reserved, p.capacity)
	}
	if s.admitter != nil && !s.admitCall(portID, rate, p.reserved, p.capacity) {
		s.rejectSetup(id, portID, rate)
		return ErrAdmission
	}
	s.setReserved(p, p.reserved+rate)
	sh.vcs[id] = &vcState{p: p, rate: rate}
	if s.lifecycle != nil {
		s.lifecycle.OnAdmit(portID, id, rate)
	}
	if s.dataplane != nil {
		s.dataplane.OnSetup(portID, id, rate)
	}
	s.vcCount.Add(1)
	s.noteShardSize(len(sh.vcs))
	s.stats.setups.Add(1)
	s.ins.setups.Inc()
	s.events.Record(metrics.Event{Kind: metrics.EventSetup, VPI: id.VPI(), VCI: id.VCI(), Port: portID, Rate: rate})
	return nil
}

// admitCall runs the admission decision with the admitting port's mutex
// held, timing it into switch.admit_seconds. A LifecycleAdmitter relies on
// exactly that per-port serialization; a legacy plain Admitter is
// additionally serialized under admitMu so stateful implementations keep
// the old never-concurrent contract.
func (s *Switch) admitCall(portID int, rate, reserved, capacity float64) bool {
	defer s.ins.admitLatency.ObserveSince(s.ins.admitLatency.Start())
	if s.lifecycle != nil {
		return s.admitter.AdmitCall(portID, rate, reserved, capacity)
	}
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	return s.admitter.AdmitCall(portID, rate, reserved, capacity)
}

// noteShardSize CAS-raises the fullest-shard high-water mark. Called with
// the grown shard's lock held, so n is that shard's exact size.
//
//rcbr:zeroalloc
func (s *Switch) noteShardSize(n int) {
	v := int64(n)
	for {
		cur := s.maxShardVCs.Load()
		if v <= cur {
			return
		}
		if s.maxShardVCs.CompareAndSwap(cur, v) {
			s.ins.shardVCsMax.Set(float64(v))
			return
		}
	}
}

func (s *Switch) rejectSetup(id VCID, portID int, rate float64) {
	s.stats.setupRejects.Add(1)
	s.ins.setupRejects.Inc()
	s.events.Record(metrics.Event{
		Kind: metrics.EventSetupReject, VPI: id.VPI(), VCI: id.VCI(), Port: portID, Requested: rate,
	})
}

// TeardownID releases a VC and its reservation. Taking the shard
// exclusively guarantees no RM cell is mid-flight on the VC when its state
// is freed.
func (s *Switch) TeardownID(id VCID) error {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	vc, ok := sh.vcs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoVC, id)
	}
	p := vc.p
	p.mu.Lock()
	s.setReserved(p, p.reserved-vc.rate)
	if s.lifecycle != nil {
		s.lifecycle.OnDepart(p.id, id, vc.rate)
	}
	if s.dataplane != nil {
		s.dataplane.OnTeardown(p.id, id)
	}
	p.mu.Unlock()
	delete(sh.vcs, id)
	s.vcCount.Add(-1)
	s.stats.teardowns.Add(1)
	s.ins.teardowns.Inc()
	s.events.Record(metrics.Event{Kind: metrics.EventTeardown, VPI: id.VPI(), VCI: id.VCI(), Port: p.id})
	return nil
}

// RenegotiateID applies a rate change request for a VC: the paper's
// lightweight path. Decreases always succeed; an increase succeeds iff the
// port stays within capacity. It returns the rate now in force and whether
// the request was granted in full.
//
//rcbr:zeroalloc
func (s *Switch) RenegotiateID(id VCID, newRate float64) (granted float64, ok bool, err error) {
	if !validRate(newRate) {
		return 0, false, fmt.Errorf("%w: %g", ErrInvalidRate, newRate)
	}
	defer s.ins.renegLatency.ObserveSince(s.ins.renegLatency.Start())
	sh := s.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	vc := sh.vcs[id]
	if vc == nil {
		return 0, false, fmt.Errorf("%w: %s", ErrNoVC, id)
	}
	p := vc.p
	p.mu.Lock()
	defer p.mu.Unlock()
	granted, ok = s.applyRate(id, vc, p, newRate, newRate, metrics.EventRenegGrant)
	return granted, ok, nil
}

// RenegotiateBestID applies a rate change granting the most the VC's port
// can carry instead of all-or-nothing: the target if it fits, otherwise the
// largest rate between the current rate and the target that stays within
// capacity (a partial grant). Decreases are always granted in full, exactly
// as in RenegotiateID. The decision is made under the port mutex, so the
// granted rate is the port's true best at the moment of the call — there is
// no query-then-retry window for a concurrent setup to invalidate. It
// returns the rate now in force and whether the full target was granted;
// a VC left at its old rate by a zero-headroom port reports full=false and
// is accounted as a denial.
//
//rcbr:zeroalloc
func (s *Switch) RenegotiateBestID(id VCID, target float64) (granted float64, full bool, err error) {
	if !validRate(target) {
		return 0, false, fmt.Errorf("%w: %g", ErrInvalidRate, target)
	}
	defer s.ins.renegLatency.ObserveSince(s.ins.renegLatency.Start())
	sh := s.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	vc := sh.vcs[id]
	if vc == nil {
		return 0, false, fmt.Errorf("%w: %s", ErrNoVC, id)
	}
	p := vc.p
	p.mu.Lock()
	defer p.mu.Unlock()
	best := target
	if p.reserved-vc.rate+target > p.capacity {
		headroom := p.capacity - p.reserved
		if headroom < 0 {
			headroom = 0
		}
		best = vc.rate + headroom
	}
	if best <= vc.rate && target > vc.rate {
		// Zero headroom: a flat denial; the source keeps what it has
		// (III-A.1). Record it on the deny path, not as a grant of the
		// old rate.
		s.stats.renegotiations.Add(1)
		s.ins.renegs.Inc()
		s.stats.denials.Add(1)
		s.ins.denials.Inc()
		s.events.Record(metrics.Event{
			Kind: metrics.EventRenegDeny, VPI: id.VPI(), VCI: id.VCI(), Port: p.id,
			Rate: vc.rate, Requested: target,
		})
		return vc.rate, false, nil
	}
	granted, _ = s.applyRate(id, vc, p, best, target, metrics.EventRenegGrant)
	full = granted == target
	if !full {
		s.stats.partialGrants.Add(1)
		s.ins.partialGrants.Inc()
	}
	return granted, full, nil
}

// applyRate is the paper's one-compare renegotiation decision. It must be
// called with the VC's shard lock held shared (or exclusive) and p.mu held.
// grantKind is the event recorded on success (renegotiate-grant, or resync
// when the request carried an absolute rate). requested is the rate the
// source originally asked for; it differs from newRate only on the partial
// settlements of RenegotiateBestID and is surfaced in the grant event so
// the trace shows the shortfall.
//
//rcbr:zeroalloc
func (s *Switch) applyRate(id VCID, vc *vcState, p *port, newRate, requested float64, grantKind metrics.EventKind) (float64, bool) {
	s.stats.renegotiations.Add(1)
	s.ins.renegs.Inc()
	if p.reserved-vc.rate+newRate <= p.capacity {
		old := vc.rate
		s.setReserved(p, p.reserved+newRate-old)
		vc.rate = newRate
		if s.lifecycle != nil && newRate != old {
			s.lifecycle.OnRateChange(p.id, id, old, newRate)
		}
		if s.dataplane != nil && newRate != old {
			s.dataplane.OnRateChange(p.id, id, newRate)
		}
		s.ins.grants.Inc()
		ev := metrics.Event{
			Kind: grantKind, VPI: id.VPI(), VCI: id.VCI(), Port: p.id, Rate: newRate,
		}
		if requested != newRate {
			ev.Requested = requested
		}
		s.events.Record(ev)
		return newRate, true
	}
	// Denied: the source keeps the bandwidth it already has (III-A.1).
	s.stats.denials.Add(1)
	s.ins.denials.Inc()
	s.events.Record(metrics.Event{
		Kind: metrics.EventRenegDeny, VPI: id.VPI(), VCI: id.VCI(), Port: p.id,
		Rate: vc.rate, Requested: newRate,
	})
	return vc.rate, false
}

// HandleRM processes a forward RCBR RM cell and returns the backward cell.
// Delta cells adjust the rate by ER with the sign of Decrease; resync cells
// assert the absolute rate. The returned cell echoes the request with
// Backward and Response set, Deny set on failure, and ER carrying the rate
// now in force (absolute), so the source can resynchronize from any reply.
// The VC is addressed by the header's full (VPI, VCI) pair.
//
// Sequenced delta cells (Seq != 0) at or below the VC's last-seen sequence
// number are dropped as delayed duplicates — the delta was already
// superseded by the sender's idempotent resync retry, and applying it again
// would leave the rate off by the delta forever. The reply to a dropped
// duplicate carries the current absolute rate with Resync set and is not a
// denial. Resync cells always apply and reset the per-VC sequence state.
//
//rcbr:zeroalloc
func (s *Switch) HandleRM(h cell.Header, m cell.RM) (cell.RM, error) {
	if m.Backward || m.Response {
		return cell.RM{}, fmt.Errorf("switchfab: HandleRM on a backward/response cell")
	}
	if !validRate(m.ER) {
		return cell.RM{}, fmt.Errorf("%w: %g", ErrInvalidRate, m.ER)
	}
	defer s.ins.renegLatency.ObserveSince(s.ins.renegLatency.Start())
	id := MakeVCID(h.VPI, h.VCI)
	sh := s.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	vc := sh.vcs[id]
	if vc == nil {
		return cell.RM{}, fmt.Errorf("%w: %s", ErrNoVC, id)
	}
	return s.handleRMLocked(id, vc, m), nil
}

// handleRMLocked applies one validated forward RM message to an established
// VC and builds the backward cell. The VC's shard lock must be held (shared
// suffices); the port mutex is taken here.
//
//rcbr:zeroalloc
func (s *Switch) handleRMLocked(id VCID, vc *vcState, m cell.RM) cell.RM {
	p := vc.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if m.Seq != 0 {
		if !m.Resync && vc.seqSeen && m.Seq <= vc.lastSeq {
			s.stats.dupDrops.Add(1)
			s.ins.dupDrops.Inc()
			return cell.RM{
				Backward: true,
				Response: true,
				Resync:   true, // ER below is absolute
				ER:       vc.rate,
				Seq:      m.Seq,
			}
		}
		vc.lastSeq = m.Seq
		vc.seqSeen = true
	}
	var want float64
	grantKind := metrics.EventRenegGrant
	switch {
	case m.Resync:
		want = m.ER
		grantKind = metrics.EventResync
		s.stats.resyncs.Add(1)
		s.ins.resyncs.Inc()
	case m.Decrease:
		want = vc.rate - m.ER
		if want < 0 {
			want = 0
		}
	default:
		want = vc.rate + m.ER
	}
	granted, ok := s.applyRate(id, vc, p, want, want, grantKind)
	return cell.RM{
		Backward: true,
		Response: true,
		Resync:   true, // ER below is absolute: any reply resynchronizes
		Deny:     !ok,
		ER:       granted,
		Seq:      m.Seq,
	}
}

// RMItem is one VC's RM message inside a coalesced batch: the forward
// message on the way in, the backward cell on the way out.
type RMItem struct {
	ID VCID
	M  cell.RM
}

// batchChunk bounds the items a single done-bitmask tracks in
// HandleRMBatch; longer batches are processed in consecutive chunks.
const batchChunk = 64

// HandleRMBatch processes a coalesced batch of forward RM messages for
// distinct VCs and appends the backward cells to out (which may be nil; it
// is returned grown, so callers can reuse one slice across batches for an
// allocation-free steady state). Items are grouped by VC-table shard and
// each group is applied under a single shared acquisition of that shard's
// lock — one lock round-trip per shard touched instead of one per cell —
// with shard groups processed strictly sequentially, preserving the
// never-two-shards lock invariant.
//
// Per-item semantics are exactly HandleRM's (sequence duplicate-drop,
// resync, deny accounting, events), with one wire-shaped difference:
// invalid items (backward/response set, non-finite or negative ER) and unknown VCs
// produce no reply entry instead of an error, so callers match replies to
// requests by VCID and treat a missing entry as a per-VC failure to
// resolve on the singleton path. The renegotiation-latency histogram
// records one observation for the whole batch.
//
//rcbr:zeroalloc
func (s *Switch) HandleRMBatch(items []RMItem, out []RMItem) []RMItem {
	defer s.ins.renegLatency.ObserveSince(s.ins.renegLatency.Start())
	s.stats.batches.Add(1)
	s.stats.batchCells.Add(int64(len(items)))
	s.ins.batches.Inc()
	s.ins.batchCells.Add(int64(len(items)))
	var shards [batchChunk]*shard
	for base := 0; base < len(items); base += batchChunk {
		chunk := items[base:]
		if len(chunk) > batchChunk {
			chunk = chunk[:batchChunk]
		}
		for i := range chunk {
			shards[i] = s.shard(chunk[i].ID)
		}
		// pending tracks items not yet applied; a shift of 64 is defined as 0
		// in Go, so a full chunk yields the all-ones mask.
		pending := uint64(1)<<uint(len(chunk)) - 1
		for pending != 0 {
			sh := shards[bits.TrailingZeros64(pending)]
			sh.mu.RLock()
			for rest := pending; rest != 0; rest &= rest - 1 {
				j := bits.TrailingZeros64(rest)
				if shards[j] != sh {
					continue
				}
				pending &^= 1 << uint(j)
				m := chunk[j].M
				if m.Backward || m.Response || !validRate(m.ER) {
					continue
				}
				id := chunk[j].ID
				vc := sh.vcs[id]
				if vc == nil {
					continue
				}
				out = append(out, RMItem{ID: id, M: s.handleRMLocked(id, vc, m)})
			}
			sh.mu.RUnlock()
		}
	}
	return out
}

// VCRateID returns the reserved rate of a VC.
func (s *Switch) VCRateID(id VCID) (float64, error) {
	sh := s.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	vc := sh.vcs[id]
	if vc == nil {
		return 0, fmt.Errorf("%w: %s", ErrNoVC, id)
	}
	vc.p.mu.Lock()
	defer vc.p.mu.Unlock()
	return vc.rate, nil
}

// PortLoad returns a port's reserved rate and capacity.
func (s *Switch) PortLoad(id int) (reserved, capacity float64, err error) {
	p := s.port(id)
	if p == nil {
		return 0, 0, fmt.Errorf("%w: %d", ErrNoPort, id)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reserved, p.capacity, nil
}

// VCCount returns the number of established VCs.
func (s *Switch) VCCount() int {
	return int(s.vcCount.Load())
}

// VCInfo describes one established VC.
type VCInfo struct {
	VPI  uint8   `json:"vpi,omitempty"`
	VCI  uint16  `json:"vci"`
	Port int     `json:"port"`
	Rate float64 `json:"rate_bps"`
}

// VCs returns every established VC sorted by (VPI, VCI). Shards are visited
// one at a time, so the listing never holds more than one shard lock — but
// the result materializes the whole table, which at million-VC populations
// is memory-hostile; servers should page through VCsPage instead.
func (s *Switch) VCs() []VCInfo {
	out := make([]VCInfo, 0, s.VCCount())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id, vc := range sh.vcs {
			vc.p.mu.Lock()
			rate := vc.rate
			vc.p.mu.Unlock()
			out = append(out, VCInfo{VPI: id.VPI(), VCI: id.VCI(), Port: vc.p.id, Rate: rate})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].VPI != out[j].VPI {
			return out[i].VPI < out[j].VPI
		}
		return out[i].VCI < out[j].VCI
	})
	return out
}

// vcPageEntry pairs a VCInfo with its packed identifier, the page sort key
// ((VPI, VCI) order is exactly VCID numeric order).
type vcPageEntry struct {
	id   VCID
	info VCInfo
}

// VCsPage returns one page of the established-VC table in (VPI, VCI) order —
// up to limit entries starting offset entries in — plus the total VC count
// at scan time. limit <= 0 returns an empty page (with the total, so callers
// can size their paging); a negative offset reads from the start.
//
// Unlike VCs, memory is bounded by the page, not the table: shards are
// visited one at a time under a shared lock and entries stream through a
// max-heap of offset+limit elements, so a million-VC switch serves a
// 256-entry page in O(offset+limit) space. The table can churn between
// shard visits, so under concurrent setup/teardown a page is a consistent
// snapshot per shard, not of the whole switch — same as VCs.
func (s *Switch) VCsPage(offset, limit int) ([]VCInfo, int) {
	total := s.VCCount()
	if offset < 0 {
		offset = 0
	}
	if limit <= 0 {
		return nil, total
	}
	keep := offset + limit
	if keep < 0 { // offset+limit overflowed int
		keep = math.MaxInt
	}
	// h is a max-heap on id holding the smallest keep identifiers seen.
	h := make([]vcPageEntry, 0, min(keep, total+1))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id, vc := range sh.vcs {
			if len(h) == keep && id >= h[0].id {
				continue
			}
			vc.p.mu.Lock()
			rate := vc.rate
			vc.p.mu.Unlock()
			e := vcPageEntry{id: id, info: VCInfo{VPI: id.VPI(), VCI: id.VCI(), Port: vc.p.id, Rate: rate}}
			if len(h) < keep {
				h = append(h, e)
				vcPageUp(h, len(h)-1)
			} else {
				h[0] = e
				vcPageDown(h, 0)
			}
		}
		sh.mu.RUnlock()
	}
	if offset >= len(h) {
		return nil, total
	}
	sort.Slice(h, func(i, j int) bool { return h[i].id < h[j].id })
	out := make([]VCInfo, 0, len(h)-offset)
	for _, e := range h[offset:] {
		out = append(out, e.info)
	}
	return out, total
}

// vcPageUp restores the max-heap property after appending at index i.
func vcPageUp(h []vcPageEntry, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].id >= h[i].id {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// vcPageDown restores the max-heap property after replacing the root.
func vcPageDown(h []vcPageEntry, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(h) && h[l].id > h[largest].id {
			largest = l
		}
		if r < len(h) && h[r].id > h[largest].id {
			largest = r
		}
		if largest == i {
			return
		}
		h[i], h[largest] = h[largest], h[i]
		i = largest
	}
}

// Stats returns a snapshot of the activity counters.
func (s *Switch) Stats() Stats {
	return Stats{
		Setups:         s.stats.setups.Load(),
		SetupRejects:   s.stats.setupRejects.Load(),
		Teardowns:      s.stats.teardowns.Load(),
		Renegotiations: s.stats.renegotiations.Load(),
		PartialGrants:  s.stats.partialGrants.Load(),
		Denials:        s.stats.denials.Load(),
		Resyncs:        s.stats.resyncs.Load(),
		DupDrops:       s.stats.dupDrops.Load(),
		Batches:        s.stats.batches.Load(),
		BatchCells:     s.stats.batchCells.Load(),
		ReservedClamps: s.stats.reservedClamps.Load(),
	}
}
