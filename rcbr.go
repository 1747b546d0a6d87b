// Package rcbr implements Renegotiated Constant Bit Rate (RCBR) service, a
// reproduction of Grossglauser, Keshav & Tse, "RCBR: A Simple and Efficient
// Service for Multiple Time-Scale Traffic" (ACM SIGCOMM 1995; IEEE/ACM ToN
// 5(6), 1997).
//
// RCBR presents a source with a fixed-size buffer drained at a constant rate
// the source may renegotiate. Because all traffic entering the network is
// CBR, switches need only per-port utilization counters and FIFO queueing;
// renegotiation is a lightweight one-lookup operation. The package provides:
//
//   - Trace: frame-size traces of compressed video, with a synthetic
//     multiple time-scale MPEG generator calibrated to the paper's
//     Star Wars trace (NewStarWarsTrace).
//   - Schedule: a piecewise-CBR renegotiation schedule with the paper's
//     cost model, bandwidth-efficiency and feasibility checks.
//   - Optimize: the optimal offline schedule (Section IV-A), a Viterbi-like
//     shortest path over the (time, rate, buffer) trellis with the paper's
//     Lemma-1 pruning.
//   - RunHeuristic: the causal online schedule (Section IV-B), an AR(1)
//     estimator with buffer thresholds on a rate grid.
//   - Source: the per-source buffer abstraction at the network entry.
//   - Switch + signaling: a software RCBR switch with ATM-style RM-cell
//     renegotiation, servable over UDP (NewSwitch, NewSignalServer,
//     DialSwitchContext).
//   - Mesh: a multi-hop network of switches joined by links with
//     propagation delay (NewMesh); a Path renegotiates end to end and is
//     granted the minimum along the path, with partial-grant rollback and
//     per-hop timeouts (Section III-C).
//   - Admission control: the Chernoff-based schemes of Section VI
//     (perfect-knowledge, memoryless MBAC, memory-based MBAC).
//
// The reproduction of every figure in the paper's evaluation lives in
// cmd/rcbrsim; see DESIGN.md and EXPERIMENTS.md.
//
// # Errors
//
// Switch and signaling failures carry sentinel errors that survive the UDP
// wire: a rejected setup or denied-for-capacity operation matches
// errors.Is(err, ErrCapacity) whether the switch was called in-process or
// through a SignalClient (the signaling protocol encodes the sentinel in its
// error replies). IsCapacityError collapses the two admission-flavored
// sentinels (ErrCapacity, ErrAdmission) into the one question most callers
// ask — "should I retry at a lower rate?" — and IsTimeout identifies
// exhausted retransmissions and expired contexts.
//
// # Observability
//
// All components accept a shared *MetricsRegistry (NewMetricsRegistry): the
// switch (WithSwitchMetrics) publishes setup/renegotiation/teardown counters,
// per-port reserved and capacity gauges, and a renegotiation latency
// histogram; the signaling server (WithSignalServerMetrics) and client
// (WithSignalMetrics) publish datagram and retry counters plus an RTT
// histogram; the online heuristic (HeuristicParams.Metrics) publishes
// trigger/failure counters and buffer threshold crossings; admission
// controllers wrapped with InstrumentAdmission count per-policy decisions.
// Registry.Snapshot returns a plain JSON-marshalable struct. A switch given
// an *EventLog (WithSwitchEvents) additionally records per-VC lifecycle
// events (setup, renegotiate-grant, renegotiate-deny, teardown) that the ring
// dumps as JSON. Command rcbrd serves both over HTTP (-http) as /metrics and
// /vcs.
package rcbr

import (
	"context"
	"errors"
	"log"
	"time"

	"rcbr/internal/admission"
	"rcbr/internal/bookahead"
	"rcbr/internal/core"
	"rcbr/internal/fit"
	"rcbr/internal/heuristic"
	"rcbr/internal/ld"
	"rcbr/internal/metrics"
	"rcbr/internal/netproto"
	"rcbr/internal/shaper"
	"rcbr/internal/stats"
	"rcbr/internal/switchfab"
	"rcbr/internal/trace"
	"rcbr/internal/trellis"
)

// Core types, re-exported.
type (
	// Trace is a frame-size trace at a fixed frame rate.
	Trace = trace.Trace
	// TraceConfig parameterizes the synthetic trace generator.
	TraceConfig = trace.Config
	// SceneClass is one slow time-scale scene type of the generator.
	SceneClass = trace.SceneClass

	// Schedule is a piecewise-CBR renegotiation schedule.
	Schedule = core.Schedule
	// Segment is one constant-rate piece of a Schedule.
	Segment = core.Segment
	// CostModel prices renegotiations (Alpha) and allocation (Beta).
	CostModel = core.CostModel
	// Source is the RCBR buffer abstraction at the network entry.
	Source = core.Source

	// OptimizeOptions configures the offline optimal schedule.
	OptimizeOptions = trellis.Options
	// OptimizeStats reports the optimizer's work.
	OptimizeStats = trellis.Stats

	// HeuristicParams configures the online heuristic.
	HeuristicParams = heuristic.Params
	// HeuristicResult reports an online run.
	HeuristicResult = heuristic.Result
	// Predictor estimates the source rate online.
	Predictor = heuristic.Predictor
	// Negotiator is the network side of an online renegotiation.
	Negotiator = heuristic.Negotiator

	// Switch is a software RCBR switch.
	Switch = switchfab.Switch
	// SwitchOption configures a Switch at construction.
	SwitchOption = switchfab.Option
	// LifecycleAdmitter is the call-admission policy consulted at setup
	// time; its rate-change and departure notifications let a stateful
	// policy (e.g. the live memory-based MBAC) track the calls it admitted.
	LifecycleAdmitter = switchfab.LifecycleAdmitter
	// SwitchMemoryAdmitter runs the memory-based MBAC live inside a
	// Switch, sharding admission state per output port.
	SwitchMemoryAdmitter = switchfab.MemoryAdmitter
	// VCInfo describes one established VC on a Switch.
	VCInfo = switchfab.VCInfo
	// SignalServer serves RCBR signaling over UDP.
	SignalServer = netproto.Server
	// SignalServerOption configures a SignalServer at construction.
	SignalServerOption = netproto.ServerOption
	// SignalClient signals an RCBR switch over UDP.
	SignalClient = netproto.Client
	// SignalClientOption configures a SignalClient at dial time.
	SignalClientOption = netproto.ClientOption

	// MetricsRegistry collects counters, gauges, and histograms from every
	// component it is handed to.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time copy of a registry's instruments,
	// marshalable to JSON.
	MetricsSnapshot = metrics.Snapshot
	// EventLog retains the most recent per-VC lifecycle events.
	EventLog = metrics.EventLog
	// Event is one per-VC lifecycle event.
	Event = metrics.Event

	// AdmissionController decides call admission (Section VI).
	AdmissionController = admission.Controller
	// RateDist is a finite per-call bandwidth distribution.
	RateDist = ld.Dist

	// TokenBucket is the one-shot descriptor baseline of Section II.
	TokenBucket = shaper.TokenBucket
	// Calendar admits whole time-varying rate profiles in advance
	// (Section III-A.2 book-ahead reservations).
	Calendar = bookahead.Calendar
	// FittedModel is a multiple time-scale Markov model estimated from a
	// trace.
	FittedModel = fit.Model
)

// NewStarWarsTrace generates the repository's calibrated stand-in for the
// paper's MPEG-1 Star Wars trace: frames <= 0 yields the full two hours at
// 24 frames/s with mean rate 374 kb/s.
func NewStarWarsTrace(seed uint64, frames int) *Trace {
	if frames <= 0 {
		return trace.SyntheticStarWars(seed)
	}
	return trace.SyntheticStarWarsFrames(seed, frames)
}

// GenerateTrace synthesizes a trace from an explicit configuration.
func GenerateTrace(cfg TraceConfig, seed uint64) (*Trace, error) {
	return trace.Synthesize(cfg, stats.NewRNG(seed))
}

// LoadTrace reads a trace file (binary RCBT or text).
func LoadTrace(path string) (*Trace, error) { return trace.Load(path) }

// UniformLevels returns n bandwidth levels evenly spaced on [lo, hi].
func UniformLevels(lo, hi float64, n int) []float64 {
	return stats.UniformLevels(lo, hi, n)
}

// GridLevels returns the multiples of delta covering (0, max].
func GridLevels(delta, max float64) []float64 { return stats.GridLevels(delta, max) }

// Optimize computes the optimal offline renegotiation schedule
// (Section IV-A).
func Optimize(tr *Trace, opts OptimizeOptions) (*Schedule, OptimizeStats, error) {
	return trellis.Optimize(tr, opts)
}

// DefaultHeuristicParams returns the paper's Fig. 2 online parameters for a
// bandwidth granularity.
func DefaultHeuristicParams(granularity float64) HeuristicParams {
	return heuristic.DefaultParams(granularity)
}

// RunHeuristic drives a trace through the online heuristic (Section IV-B)
// with a buffer of B bits. A nil negotiator grants every request.
func RunHeuristic(tr *Trace, bufferBits float64, p HeuristicParams, n Negotiator) (HeuristicResult, error) {
	return heuristic.Run(tr, bufferBits, p, n)
}

// NewSource returns an RCBR source buffer of B bits with the given slot
// duration and initial negotiated rate.
func NewSource(bufferBits, slotSec, initialRate float64) *Source {
	return core.NewSource(bufferBits, slotSec, initialRate)
}

// Sentinel errors, re-exported from the switch and signaling layers. All of
// them survive the UDP signaling path: errors.Is works on client-side errors
// exactly as it does in-process.
var (
	// ErrCapacity: the operation would exceed a port's capacity.
	ErrCapacity = switchfab.ErrCapacity
	// ErrAdmission: the call was rejected by the admission policy.
	ErrAdmission = switchfab.ErrAdmission
	// ErrNoVC: the VC does not exist.
	ErrNoVC = switchfab.ErrNoVC
	// ErrNoPort: the output port does not exist.
	ErrNoPort = switchfab.ErrNoPort
	// ErrVCExists: the VCI is already in use.
	ErrVCExists = switchfab.ErrVCExists
	// ErrInvalidRate: a negative or otherwise malformed rate.
	ErrInvalidRate = switchfab.ErrInvalidRate
	// ErrSignalTimeout: a signaling request exhausted its retransmissions.
	ErrSignalTimeout = netproto.ErrTimeout
	// ErrRemote wraps any error reported by the remote switch.
	ErrRemote = netproto.ErrRemote
)

// IsCapacityError reports whether err means the network would not carry the
// requested bandwidth — either the hard capacity check (ErrCapacity) or the
// admission policy (ErrAdmission) said no. Callers typically respond by
// retrying at a lower rate or backing off.
func IsCapacityError(err error) bool {
	return errors.Is(err, ErrCapacity) || errors.Is(err, ErrAdmission)
}

// IsTimeout reports whether err means a signaling request ran out of time:
// retransmissions exhausted (ErrSignalTimeout) or the caller's context
// expired.
func IsTimeout(err error) bool {
	return errors.Is(err, ErrSignalTimeout) || errors.Is(err, context.DeadlineExceeded)
}

// NewMetricsRegistry returns an empty metrics registry to share across
// components.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewEventLog returns a log retaining the last n per-VC lifecycle events.
func NewEventLog(n int) *EventLog { return metrics.NewEventLog(n) }

// WithAdmitter installs a call-admission policy on a Switch.
func WithAdmitter(a LifecycleAdmitter) SwitchOption { return switchfab.WithAdmitter(a) }

// WithSwitchMetrics publishes a Switch's counters, per-port gauges, and
// renegotiation latency histogram into reg.
func WithSwitchMetrics(reg *MetricsRegistry) SwitchOption { return switchfab.WithMetrics(reg) }

// WithSwitchEvents records a Switch's per-VC lifecycle events into ring.
func WithSwitchEvents(ring *EventLog) SwitchOption { return switchfab.WithEventTrace(ring) }

// WithSwitchShards sets how many lock domains a Switch spreads its VC state
// over (rounded up to a power of two; 1 restores the legacy single global
// lock). The default suits 100k+ established VCs.
func WithSwitchShards(n int) SwitchOption { return switchfab.WithShards(n) }

// NewSwitch returns a software RCBR switch configured by opts. Without
// WithAdmitter it admits every call that fits within port capacity.
func NewSwitch(opts ...SwitchOption) *Switch { return switchfab.New(opts...) }

// WithSignalLogger directs a SignalServer's signaling errors to logger.
func WithSignalLogger(logger *log.Logger) SignalServerOption { return netproto.WithLogger(logger) }

// WithSignalServerMetrics publishes a SignalServer's datagram and per-request
// counters into reg.
func WithSignalServerMetrics(reg *MetricsRegistry) SignalServerOption {
	return netproto.WithServerMetrics(reg)
}

// WithSignalWorkers sets how many handlers a SignalServer runs concurrently
// (default netproto.DefaultWorkers).
func WithSignalWorkers(n int) SignalServerOption { return netproto.WithWorkers(n) }

// WithSignalQueue sets a SignalServer's pending-datagram queue depth
// (default netproto.DefaultQueue); datagrams beyond it are dropped and
// counted rather than buffered without bound.
func WithSignalQueue(n int) SignalServerOption { return netproto.WithQueue(n) }

// NewSignalServer binds a UDP signaling server for a switch. The logger may
// be nil; options extend the legacy three-argument form without breaking it.
func NewSignalServer(addr string, sw *Switch, logger *log.Logger, opts ...SignalServerOption) (*SignalServer, error) {
	all := append([]SignalServerOption{netproto.WithLogger(logger)}, opts...)
	return netproto.NewServer(addr, sw, all...)
}

// WithSignalTimeout sets a SignalClient's per-attempt reply deadline.
func WithSignalTimeout(d time.Duration) SignalClientOption { return netproto.WithTimeout(d) }

// WithSignalRetries sets a SignalClient's retransmission budget.
func WithSignalRetries(n int) SignalClientOption { return netproto.WithRetries(n) }

// WithSignalMetrics publishes a SignalClient's datagram/retry counters and
// RTT histogram into reg.
func WithSignalMetrics(reg *MetricsRegistry) SignalClientOption {
	return netproto.WithClientMetrics(reg)
}

// WithSignalBatchWindow makes a SignalClient coalesce renegotiations that
// arrive within d of each other into one batch RM frame (up to 32 cells).
// Against a peer that never answers batch frames the client falls back to
// per-VC resyncs, so the option never changes outcomes. Zero disables
// coalescing (the default).
func WithSignalBatchWindow(d time.Duration) SignalClientOption {
	return netproto.WithBatchWindow(d)
}

// DialSwitchContext connects a signaling client to an RCBR switch daemon,
// honoring ctx during socket setup. The client's request methods (Setup,
// Renegotiate, Resync, Teardown) each take their own context bounding the
// whole request including retransmissions.
func DialSwitchContext(ctx context.Context, addr string, opts ...SignalClientOption) (*SignalClient, error) {
	return netproto.DialContext(ctx, addr, opts...)
}

// InstrumentAdmission wraps an admission controller so every decision
// increments an "admission.<name>.admits" or ".rejects" counter in reg.
func InstrumentAdmission(c AdmissionController, reg *MetricsRegistry) AdmissionController {
	return admission.Instrument(c, reg)
}

// NewPerfectAdmission returns the perfect-knowledge Chernoff admission
// controller of Section VI.
func NewPerfectAdmission(dist RateDist, capacity, targetFailure float64) (AdmissionController, error) {
	return admission.NewPerfectKnowledge(dist, capacity, targetFailure)
}

// NewMemorylessAdmission returns the snapshot-based MBAC of Section VI.
func NewMemorylessAdmission(levels []float64, capacity, targetFailure float64) (AdmissionController, error) {
	return admission.NewMemoryless(levels, capacity, targetFailure)
}

// NewMemoryAdmission returns the history-accumulating MBAC of Section VI.
func NewMemoryAdmission(levels []float64, capacity, targetFailure float64) (AdmissionController, error) {
	return admission.NewMemory(levels, capacity, targetFailure)
}

// NewSwitchMemoryAdmitter returns the live, per-port-sharded form of the
// memory-based MBAC for installing into a Switch via WithAdmitter. Unlike
// NewMemoryAdmission it needs no capacity up front — each port's controller
// adopts that port's capacity on its first admission decision — and it keeps
// its call histories current from the switch's own lifecycle notifications.
func NewSwitchMemoryAdmitter(levels []float64, targetFailure float64) (*SwitchMemoryAdmitter, error) {
	return switchfab.NewMemoryAdmitter(levels, targetFailure)
}

// ScheduleDescriptor converts a schedule into its per-call bandwidth
// distribution over the given levels — the traffic descriptor used by the
// admission controllers.
func ScheduleDescriptor(s *Schedule, levels []float64) RateDist {
	h := s.Descriptor(levels)
	return RateDist{P: h.Probabilities(), X: h.Levels()}
}

// NewTokenBucket returns a full token bucket with the given rate (bits/s)
// and depth (bits).
func NewTokenBucket(rate, depth float64) *TokenBucket { return shaper.New(rate, depth) }

// BurstinessDepth returns b*(r): the minimal token-bucket depth making the
// trace conformant at token rate r (Section II's burstiness curve).
func BurstinessDepth(tr *Trace, rate float64) float64 { return shaper.MinDepth(tr, rate) }

// NewCalendar returns an advance-reservation calendar for a link of the
// given capacity.
func NewCalendar(capacity float64) *Calendar { return bookahead.NewCalendar(capacity) }

// FitTraceModel estimates a multiple time-scale Markov model from a trace
// with the default classes and smoothing window; the model feeds the
// large-deviations machinery (effective bandwidths, Chernoff estimates).
func FitTraceModel(tr *Trace) (*FittedModel, error) {
	return fit.Fit(tr, fit.DefaultOptions(tr))
}
