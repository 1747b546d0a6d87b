package main

import (
	"net"
	"net/netip"
	"sync"

	"rcbr/internal/netproto"
	"rcbr/internal/switchfab"
)

// reqFunc names the traced operation a hook call belongs to, or returns -1
// when the call is not traced. It runs on the goroutine that called into
// the switch, under the switch's port lock.
type reqFunc func(port int, id switchfab.VCID) int64

// dataPlaneProbe wraps the forwarder the switch mirrors VC lifecycle
// changes into, timing each hook of a traced operation.
type dataPlaneProbe struct {
	inner switchfab.DataPlane
	tr    *tracer
	reqOf reqFunc
}

func (p *dataPlaneProbe) OnSetup(port int, id switchfab.VCID, rate float64) {
	req := p.reqOf(port, id)
	if req < 0 {
		p.inner.OnSetup(port, id, rate)
		return
	}
	t0 := p.tr.now()
	p.inner.OnSetup(port, id, rate)
	p.tr.record("DataPlane.OnSetup", req, t0, p.tr.now())
}

func (p *dataPlaneProbe) OnRateChange(port int, id switchfab.VCID, rate float64) {
	req := p.reqOf(port, id)
	if req < 0 {
		p.inner.OnRateChange(port, id, rate)
		return
	}
	t0 := p.tr.now()
	p.inner.OnRateChange(port, id, rate)
	p.tr.record("DataPlane.OnRateChange", req, t0, p.tr.now())
}

func (p *dataPlaneProbe) OnTeardown(port int, id switchfab.VCID) {
	req := p.reqOf(port, id)
	if req < 0 {
		p.inner.OnTeardown(port, id)
		return
	}
	t0 := p.tr.now()
	p.inner.OnTeardown(port, id)
	p.tr.record("DataPlane.OnTeardown", req, t0, p.tr.now())
}

// admitCounts is one port's admitter traffic. The switch calls the admitter
// under the port's mutex, so the counts need no atomics; the padding keeps
// ports owned by different generators off one cache line.
type admitCounts struct {
	calls, admitted, onAdmit, onDepart int64
	_                                  [32]byte
}

// admitterProbe wraps the switch's LifecycleAdmitter: it counts every
// decision and lifecycle callback per port and, when tr is set, times the
// callbacks of traced operations.
type admitterProbe struct {
	inner  switchfab.LifecycleAdmitter
	counts []admitCounts // indexed by port
	tr     *tracer
	reqOf  reqFunc
}

func newAdmitterProbe(inner switchfab.LifecycleAdmitter, ports int, tr *tracer, reqOf reqFunc) *admitterProbe {
	return &admitterProbe{inner: inner, counts: make([]admitCounts, ports), tr: tr, reqOf: reqOf}
}

func (a *admitterProbe) req(port int, id switchfab.VCID) int64 {
	if a.tr == nil {
		return -1
	}
	return a.reqOf(port, id)
}

func (a *admitterProbe) AdmitCall(port int, rate, reserved, capacity float64) bool {
	req := a.req(port, 0)
	var t0 int64
	if req >= 0 {
		t0 = a.tr.now()
	}
	ok := a.inner.AdmitCall(port, rate, reserved, capacity)
	if req >= 0 {
		a.tr.record("Admitter.AdmitCall", req, t0, a.tr.now())
	}
	c := &a.counts[port]
	c.calls++
	if ok {
		c.admitted++
	}
	return ok
}

func (a *admitterProbe) OnAdmit(port int, id switchfab.VCID, rate float64) {
	req := a.req(port, id)
	var t0 int64
	if req >= 0 {
		t0 = a.tr.now()
	}
	a.inner.OnAdmit(port, id, rate)
	if req >= 0 {
		a.tr.record("Admitter.OnAdmit", req, t0, a.tr.now())
	}
	a.counts[port].onAdmit++
}

func (a *admitterProbe) OnRateChange(port int, id switchfab.VCID, oldRate, newRate float64) {
	req := a.req(port, id)
	var t0 int64
	if req >= 0 {
		t0 = a.tr.now()
	}
	a.inner.OnRateChange(port, id, oldRate, newRate)
	if req >= 0 {
		a.tr.record("Admitter.OnRateChange", req, t0, a.tr.now())
	}
}

func (a *admitterProbe) OnDepart(port int, id switchfab.VCID, rate float64) {
	req := a.req(port, id)
	var t0 int64
	if req >= 0 {
		t0 = a.tr.now()
	}
	a.inner.OnDepart(port, id, rate)
	if req >= 0 {
		a.tr.record("Admitter.OnDepart", req, t0, a.tr.now())
	}
	a.counts[port].onDepart++
}

// totals sums the per-port counts.
func (a *admitterProbe) totals() admitCounts {
	var t admitCounts
	for _, c := range a.counts {
		t.calls += c.calls
		t.admitted += c.admitted
		t.onAdmit += c.onAdmit
		t.onDepart += c.onDepart
	}
	return t
}

// connProbe wraps the server's socket. It stamps each RM datagram as
// ReadFrom returns it and, when the server writes the reply carrying the
// same ReqID to the same peer, records the server residence span of the
// traced request in flight on the VC the datagram named.
type connProbe struct {
	net.PacketConn
	tr    *tracer
	reqOf func(vci uint16) int64

	mu      sync.Mutex
	pending map[probeKey]pendingReq
}

// probeKey names a datagram: ReqIDs are per client, so the peer's address
// tells two clients' requests apart.
type probeKey struct {
	peer  netip.AddrPort
	reqID uint32
}

func peerOf(a net.Addr) netip.AddrPort {
	if u, ok := a.(*net.UDPAddr); ok {
		return u.AddrPort()
	}
	return netip.AddrPort{}
}

type pendingReq struct {
	req   int64
	start int64
}

func newConnProbe(conn net.PacketConn, tr *tracer, reqOf func(vci uint16) int64) *connProbe {
	return &connProbe{PacketConn: conn, tr: tr, reqOf: reqOf, pending: map[probeKey]pendingReq{}}
}

func (c *connProbe) ReadFrom(b []byte) (int, net.Addr, error) {
	n, from, err := c.PacketConn.ReadFrom(b)
	if err != nil {
		return n, from, err
	}
	t0 := c.tr.now()
	f, perr := netproto.ParseFrame(b[:n])
	if perr != nil || f.Type != netproto.TypeRM {
		return n, from, err
	}
	h, _, derr := netproto.DecodeRM(f.Payload)
	if derr != nil {
		return n, from, err
	}
	if req := c.reqOf(h.VCI); req >= 0 {
		c.mu.Lock()
		c.pending[probeKey{peerOf(from), f.ReqID}] = pendingReq{req: req, start: t0}
		c.mu.Unlock()
	}
	return n, from, err
}

func (c *connProbe) WriteTo(b []byte, addr net.Addr) (int, error) {
	t1 := c.tr.now()
	if f, err := netproto.ParseFrame(b); err == nil {
		key := probeKey{peerOf(addr), f.ReqID}
		c.mu.Lock()
		p, ok := c.pending[key]
		delete(c.pending, key)
		c.mu.Unlock()
		if ok {
			c.tr.record("server.residence", p.req, p.start, t1)
		}
	}
	return c.PacketConn.WriteTo(b, addr)
}
