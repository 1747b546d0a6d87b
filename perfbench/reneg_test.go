package main

import (
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"rcbr/internal/cell"
	"rcbr/internal/netproto"
)

// The pacer keeps its schedule when a request stalls: later requests are
// sent late, back to back, and their lateness counts from their own due
// times rather than from when the dispatcher got to them.
func TestPacerTimesFromDueTime(t *testing.T) {
	const rate = 1000.0
	p := pacer{start: time.Now().Add(time.Millisecond), rate: rate, wait: func(t time.Time) error {
		time.Sleep(time.Until(t))
		return nil
	}}
	var late samples
	var dues []time.Time
	n := p.run(20, func(k int64, due time.Time) {
		now := time.Now()
		if now.Before(due) {
			t.Errorf("request %d sent %v before its due time", k, due.Sub(now))
		}
		late.add(now.Sub(due))
		dues = append(dues, due)
		if k == 2 {
			time.Sleep(10 * time.Millisecond) // a stall: requests 3.. fall behind
		}
	})
	if n != 20 || len(dues) != 20 {
		t.Fatalf("dispatched %d requests (%d calls), want 20", n, len(dues))
	}
	for k, due := range dues {
		if want := p.start.Add(time.Duration(k) * time.Millisecond); !due.Equal(want) {
			t.Errorf("due(%d) = %v after start, want %v", k, due.Sub(p.start), want.Sub(p.start))
		}
	}
	// Request 3 was due during the 10 ms stall: it is late by the rest of
	// the stall, about 9 ms, not by the 1 ms since request 2.
	if got := late.ns[3]; got < int64(8*time.Millisecond) {
		t.Errorf("request 3 late by %v, want the stall's remainder (~9ms)", time.Duration(got))
	}
}

func TestPacerStopsWhenWaitFails(t *testing.T) {
	calls := 0
	p := pacer{start: time.Now().Add(time.Hour), rate: 1, wait: func(time.Time) error { return net.ErrClosed }}
	if n := p.run(5, func(int64, time.Time) { calls++ }); n != 0 || calls != 0 {
		t.Errorf("dispatched %d (calls %d) after the clock failed, want 0", n, calls)
	}
}

func TestTimerClockWakesAfterDeadline(t *testing.T) {
	c, err := newTimerClock()
	if err != nil {
		t.Skipf("no timerfd: %v", err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		due := time.Now().Add(300 * time.Microsecond)
		if err := c.waitUntil(due); err != nil {
			t.Fatal(err)
		}
		if now := time.Now(); now.Before(due) {
			t.Fatalf("woke %v early", due.Sub(now))
		}
	}
}

func stepWith(rate float64, lat, dispatch time.Duration, failed, backlog int64) *stepResult {
	s := &stepResult{rate: rate, tally: tally{failed: failed}, backlog: backlog}
	for i := 0; i < 2000; i++ {
		s.lat.add(lat)
		s.dispatch.add(dispatch)
	}
	return s
}

func TestStepStopRule(t *testing.T) {
	for _, c := range []struct {
		name string
		s    *stepResult
		want bool
	}{
		{"healthy", stepWith(20000, 80*time.Microsecond, 10*time.Microsecond, 0, 3), true},
		{"a failed request", stepWith(20000, 80*time.Microsecond, 10*time.Microsecond, 1, 3), false},
		{"median over the limit", stepWith(20000, 2*time.Millisecond, 10*time.Microsecond, 0, 3), false},
		{"generator late", stepWith(20000, 80*time.Microsecond, 3*time.Millisecond, 0, 3), false},
		{"backlog growing", stepWith(20000, 80*time.Microsecond, 10*time.Microsecond, 0, 1001), false},
		{"backlog of one pause", stepWith(20000, 80*time.Microsecond, 10*time.Microsecond, 0, 1000), true},
		{"no requests", &stepResult{rate: 1}, false},
	} {
		if got, why := c.s.passes(); got != c.want {
			t.Errorf("%s: passes = %v (%s), want %v", c.name, got, why, c.want)
		}
	}
}

func TestClimbStopsAtFirstFailureAndBisects(t *testing.T) {
	const capacity = 42000.0
	var tried []float64
	got := climb(10000, true, 1.5, 4, 100, func(rate float64) bool {
		tried = append(tried, rate)
		return rate <= capacity
	})
	if got > capacity || got*math.Pow(1.5, 1.0/16)*1.0001 < capacity {
		t.Errorf("climb = %.0f, want within one 1.5^(1/16) step below %.0f", got, capacity)
	}
	// 15000, 22500, 33750 pass, 50625 fails, then four bisections.
	if len(tried) != 8 {
		t.Errorf("tried %d rates %v, want 8", len(tried), tried)
	}
	for i := 1; i < 4; i++ {
		if tried[i] <= tried[i-1] {
			t.Errorf("the ladder must climb: %v", tried)
		}
	}
}

func TestClimbRespectsBudget(t *testing.T) {
	calls := 0
	if got := climb(100, true, 2, 4, 3, func(float64) bool { calls++; return true }); got != 800 || calls != 3 {
		t.Errorf("climb with budget 3 = %g after %d tries, want 800 after 3", got, calls)
	}
	if got := climb(100, true, 2, 4, 10, func(float64) bool { return false }); got != 100 {
		t.Errorf("climb where only the start passed = %g, want the start 100", got)
	}
	if got := climb(100, false, 2, 4, 10, func(float64) bool { return false }); got != 0 {
		t.Errorf("climb where nothing passed = %g, want 0", got)
	}
	// A failed start still anchors the bisection, and a later pass counts.
	if got := climb(100, false, 2, 4, 10, func(r float64) bool { return r <= 150 }); got < 140 || got > 150 {
		t.Errorf("climb from a failed start = %g, want the highest pass in (140, 150]", got)
	}
}

// fakeConn replays scripted datagrams to the server and records its writes.
type fakeConn struct {
	net.PacketConn
	mu     sync.Mutex
	in     []datagram
	writes int
}

type datagram struct {
	b    []byte
	from net.Addr
}

func (c *fakeConn) ReadFrom(b []byte) (int, net.Addr, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.in) == 0 {
		return 0, nil, net.ErrClosed
	}
	d := c.in[0]
	c.in = c.in[1:]
	return copy(b, d.b), d.from, nil
}

func (c *fakeConn) WriteTo(b []byte, _ net.Addr) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	return len(b), nil
}

func rmFrame(t *testing.T, reqID uint32, vci uint16, reply bool) []byte {
	t.Helper()
	h := cell.Header{VCI: vci}
	var b []byte
	var err error
	if reply {
		b, err = netproto.EncodeRMReply(reqID, h, cell.RM{Backward: true, Response: true, ER: 1e5})
	} else {
		b, err = netproto.EncodeRM(reqID, h, cell.RM{ER: 1e5, Seq: 1})
	}
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Two clients reuse ReqID 7; the probe tells them apart by peer and names
// each residence span after the request in flight on the frame's VC.
func TestConnProbeMatchesReqIDPerPeer(t *testing.T) {
	a := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1001}
	b := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1002}
	fc := &fakeConn{in: []datagram{
		{rmFrame(t, 7, 10, false), a},
		{rmFrame(t, 7, 20, false), b},
		{netproto.EncodeSetup(8, netproto.SetupReq{VCI: 30, Port: 1, Rate: 1e5}), a},
		{rmFrame(t, 9, 40, false), a}, // VC 40 has no traced request
	}}
	inFlight := map[uint16]int64{10: 100, 20: 200, 30: 300}
	tr := newTracer()
	p := newConnProbe(fc, tr, func(vci uint16) int64 {
		if r, ok := inFlight[vci]; ok {
			return r
		}
		return -1
	})
	buf := make([]byte, 512)
	for i := 0; i < 4; i++ {
		if _, _, err := p.ReadFrom(buf); err != nil {
			t.Fatal(err)
		}
	}
	// Replies in the opposite order, one to an unknown request.
	for _, w := range []datagram{
		{rmFrame(t, 7, 20, true), b},
		{netproto.EncodeOK(netproto.TypeSetupOK, 8), a},
		{rmFrame(t, 7, 10, true), a},
		{rmFrame(t, 9, 40, true), a},
		{rmFrame(t, 5, 10, true), a},
	} {
		if _, err := p.WriteTo(w.b, w.from); err != nil {
			t.Fatal(err)
		}
	}
	if fc.writes != 5 {
		t.Errorf("probe passed %d writes through, want 5", fc.writes)
	}
	got := map[int64]int{}
	for _, s := range tr.spans {
		if s.name != "server.residence" || s.end < s.start {
			t.Errorf("bad span %+v", s)
		}
		got[s.req]++
	}
	if len(tr.spans) != 2 || got[100] != 1 || got[200] != 1 {
		t.Errorf("spans by request %v, want one each for 100 and 200", got)
	}
	if len(p.pending) != 0 {
		t.Errorf("%d datagrams left pending", len(p.pending))
	}
}
