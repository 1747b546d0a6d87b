// Package mesh implements the paper's end-to-end RCBR service over a
// network of switches (Section III-C): a VC traverses several hops, an RM
// cell is processed hop by hop on its way downstream, and the rate granted
// to the source is the minimum any hop along the path can honor. "As the
// mean number of hops in the network increases, the probability of
// renegotiation failure is likely to increase since each hop is a possible
// point of failure" — so rate increases carry a rollback protocol: a hop
// that denies (or times out) unwinds the grants already taken upstream,
// leaving every reservation table consistent.
//
// Topology is explicit: AddSwitch/AddTransport register named hops,
// AddLink joins two of them with a propagation delay and a link capacity
// (realized as the egress port's capacity on the upstream switch), and
// Route resolves a node sequence into the []Hop that SetupPath consumes.
// Links model signaling latency only — each hop's operation waits out the
// inbound propagation delay before the RM cell "arrives", and the backward
// reply waits out the cumulative path delay — so heterogeneous paths (a
// ~1 ms terrestrial hop next to a ~275 ms satellite hop) expose exactly
// the renegotiation-latency asymmetry the ABR-over-satellite literature
// measures. WithDelayScale(0) turns the waits off for virtual-time
// simulation; per-hop budgets (WithHopTimeout) bound how long one slow hop
// can wedge the whole path either way.
//
// Concurrency: a Path serializes its multi-hop transactions with a
// channel-based semaphore, deliberately not a mutex — a transaction spans
// propagation waits and whatever blocking a hop's Transport does, and the
// repo's lockscope analyzer forbids holding a sync.Mutex across either.
// The mesh's own mutex guards only the topology maps and is never held
// across hop I/O. Per-switch locking is unchanged from switchfab (shard →
// port); the mesh layer adds no lock that nests inside those.
package mesh

import (
	"context"

	"rcbr/internal/switchfab"
)

// Transport is one hop's signaling surface: the three verbs a path needs
// from a switch. SwitchTransport is the in-process implementation; tests
// substitute fakes through AddTransport. Implementations must be safe for
// concurrent use.
type Transport interface {
	// Setup reserves rate for the VC on the hop's egress port.
	Setup(ctx context.Context, id switchfab.VCID, port int, rate float64) error
	// RenegotiateBest moves the VC from current toward target, granting
	// the most the hop can carry (at least the current rate on an
	// increase; decreases settle in full). full reports whether the
	// target itself was granted.
	RenegotiateBest(ctx context.Context, id switchfab.VCID, current, target float64) (granted float64, full bool, err error)
	// Teardown releases the VC's reservation.
	Teardown(ctx context.Context, id switchfab.VCID) error
}

// SwitchTransport adapts an in-process switchfab.Switch to the Transport
// interface. Operations are synchronous and instantaneous; propagation
// delay is modeled by the mesh around the call.
type SwitchTransport struct {
	Switch *switchfab.Switch
}

// Setup implements Transport.
func (t SwitchTransport) Setup(ctx context.Context, id switchfab.VCID, port int, rate float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return t.Switch.SetupID(id, port, rate)
}

// RenegotiateBest implements Transport using the switch's atomic
// partial-grant primitive; current is unused in-process because the switch
// holds the authoritative rate.
func (t SwitchTransport) RenegotiateBest(ctx context.Context, id switchfab.VCID, _, target float64) (float64, bool, error) {
	if err := ctx.Err(); err != nil {
		return 0, false, err
	}
	return t.Switch.RenegotiateBestID(id, target)
}

// Teardown implements Transport.
func (t SwitchTransport) Teardown(ctx context.Context, id switchfab.VCID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return t.Switch.TeardownID(id)
}
