package rcbr

import (
	"time"

	"rcbr/internal/mesh"
	"rcbr/internal/switchfab"
)

// Multi-hop mesh types, re-exported. A Mesh is a network of RCBR switches
// joined by links with propagation delay; a Path is a VC across several of
// them whose end-to-end rate is renegotiated hop by hop and granted at the
// minimum along the path (Section III-C of the paper).
type (
	// VCID names a virtual channel by its ATM (VPI, VCI) pair packed into
	// 24 bits. Plain VCI values (VPI 0) convert directly: VCID(vci).
	VCID = switchfab.VCID

	// Mesh is a network of RCBR switches. Build the topology with
	// AddSwitch/AddTransport/AddHost/AddLink, resolve a route with Route,
	// and establish connections with SetupPath(ctx, vcid, hops, rate).
	Mesh = mesh.Mesh
	// MeshOption configures a Mesh at construction.
	MeshOption = mesh.Option
	// Path is an established multi-hop RCBR connection; Renegotiate and
	// Teardown take the caller's context first and serialize per path.
	Path = mesh.Path
	// Hop is one switch of a resolved route, bound to its egress port and
	// inbound link delay.
	Hop = mesh.Hop
	// HopTransport is the per-hop signaling surface a Mesh drives; SwitchHop
	// adapts an in-process switch to it.
	HopTransport = mesh.Transport
	// MeshLink describes one directed link of a Mesh topology.
	MeshLink = mesh.Link
	// RateError reports a renegotiation the path could not grant in full,
	// carrying the bottleneck hop and the counter-offer rate the path
	// settled at; errors.Is(err, ErrCapacity) holds.
	RateError = mesh.RateError
)

// MakeVCID packs a (VPI, VCI) pair into a VCID.
func MakeVCID(vpi uint8, vci uint16) VCID { return switchfab.MakeVCID(vpi, vci) }

// NewMesh returns an empty multi-hop switch mesh.
func NewMesh(opts ...MeshOption) *Mesh { return mesh.New(opts...) }

// WithHopTimeout bounds each hop's share of a path operation — the
// propagation wait into the hop plus the hop's processing — so one slow
// (satellite) hop cannot wedge the whole path.
func WithHopTimeout(d time.Duration) MeshOption { return mesh.WithHopTimeout(d) }

// WithMeshMetrics publishes a Mesh's path/rollback counters and per-hop
// renegotiation latency histograms into reg.
func WithMeshMetrics(reg *MetricsRegistry) MeshOption { return mesh.WithMetrics(reg) }

// WithMeshEvents records a Mesh's path- and hop-level lifecycle events
// (path-setup, path-grant, path-deny, hop-timeout, hop-rollback, ...)
// into ring.
func WithMeshEvents(ring *EventLog) MeshOption { return mesh.WithEvents(ring) }

// WithMeshDelayScale scales every modeled propagation wait; 1 (the
// default) waits link delays out in real time, 0 disables waiting for
// virtual-time simulation.
func WithMeshDelayScale(s float64) MeshOption { return mesh.WithDelayScale(s) }

// SwitchHop adapts an in-process Switch into a HopTransport, for building
// hops outside a registered topology (NewMeshHop).
func SwitchHop(sw *Switch) HopTransport { return mesh.SwitchTransport{Switch: sw} }

// NewMeshHop builds one hop directly from a transport, an egress port,
// and the inbound link delay; Mesh.Route is the usual way to obtain hops.
func NewMeshHop(name string, tr HopTransport, port int, delay time.Duration) Hop {
	return mesh.NewHop(name, tr, port, delay)
}

// MeshHopLatencyHistogram returns the metric name of the named hop's
// renegotiation-latency histogram. Path- and hop-level events appear in
// the shared EventLog under the kinds "path-setup", "path-setup-fail",
// "path-grant", "path-partial", "path-deny", "path-teardown",
// "hop-timeout", and "hop-rollback" (Event.Kind.String()).
func MeshHopLatencyHistogram(hop string) string {
	return mesh.HopRenegLatencyHistogram(hop)
}
