package switchfab

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcbr/internal/cell"
	"rcbr/internal/metrics"
)

// TestSetupRejectsNonFiniteRates is the headline poisoning regression: a NaN
// rate passes a bare `rate < 0` check (NaN fails every ordered comparison),
// lands in port.reserved, and then every capacity comparison on the port is
// false forever — permanent overcommit from one crafted message. Every
// boundary that accepts a rate must reject NaN and +Inf explicitly.
func TestSetupRejectsNonFiniteRates(t *testing.T) {
	s := newTestSwitch(t, 1e6)
	bad := []float64{math.NaN(), math.Inf(1)}
	for _, rate := range bad {
		if err := s.SetupID(10, 1, rate); !errors.Is(err, ErrInvalidRate) {
			t.Errorf("SetupID(%v): %v, want ErrInvalidRate", rate, err)
		}
	}
	if err := s.SetupID(10, 1, 100e3); err != nil {
		t.Fatal(err)
	}
	for _, rate := range bad {
		if _, _, err := s.RenegotiateID(10, rate); !errors.Is(err, ErrInvalidRate) {
			t.Errorf("RenegotiateID(%v): %v, want ErrInvalidRate", rate, err)
		}
		if _, _, err := s.RenegotiateBestID(10, rate); !errors.Is(err, ErrInvalidRate) {
			t.Errorf("RenegotiateBestID(%v): %v, want ErrInvalidRate", rate, err)
		}
		if _, err := s.HandleRM(cell.Header{VCI: 10}, cell.RM{ER: rate}); !errors.Is(err, ErrInvalidRate) {
			t.Errorf("HandleRM(ER=%v): %v, want ErrInvalidRate", rate, err)
		}
		out := s.HandleRMBatch([]RMItem{{ID: 10, M: cell.RM{ER: rate, Seq: 1}}}, nil)
		if len(out) != 0 {
			t.Errorf("HandleRMBatch(ER=%v) produced a reply: %+v", rate, out)
		}
	}
	// The port must be untouched by all of the rejected messages: still the
	// one valid call, still finite, still renegotiable.
	reserved, _, err := s.PortLoad(1)
	if err != nil || reserved != 100e3 {
		t.Fatalf("PortLoad after poison attempts = %v, %v", reserved, err)
	}
	if granted, ok, err := s.RenegotiateID(10, 200e3); err != nil || !ok || granted != 200e3 {
		t.Fatalf("port poisoned: renegotiate after NaN attempts = %v %v %v", granted, ok, err)
	}
	if err := s.AddPort(2, math.NaN()); !errors.Is(err, ErrInvalidRate) {
		t.Errorf("AddPort(NaN): %v, want ErrInvalidRate", err)
	}
}

// TestReservedClampInstrumented drives the defensive clamp directly (the
// accounting paths are exact for representable rates, so only a forced
// negative reaches it) and checks it is counted, metered, and traced.
func TestReservedClampInstrumented(t *testing.T) {
	reg := metrics.NewRegistry()
	ring := metrics.NewEventLog(8)
	s := New(WithMetrics(reg), WithEventTrace(ring))
	if err := s.AddPort(1, 1e6); err != nil {
		t.Fatal(err)
	}
	p := s.port(1)
	p.mu.Lock()
	s.setReserved(p, -0.25)
	p.mu.Unlock()
	if got := s.Stats().ReservedClamps; got != 1 {
		t.Fatalf("ReservedClamps = %d, want 1", got)
	}
	reserved, _, _ := s.PortLoad(1)
	if reserved != 0 {
		t.Fatalf("reserved after clamp = %v, want 0", reserved)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[MetricReservedClamped]; got != 1 {
		t.Fatalf("%s = %v, want 1", MetricReservedClamped, got)
	}
	events := ring.Events()
	found := false
	for _, e := range events {
		if e.Kind == metrics.EventReservedClamp && e.Port == 1 && e.Requested == -0.25 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no reserved-clamp event in trace: %+v", events)
	}
}

// TestSetupTeardownDrift churns driftOps setup/teardown pairs of
// integer-valued rates through one port and requires the drained reservation
// to return to exactly zero — not within epsilon. Integer rates below 2^53
// add and subtract exactly in float64, so any residue (or any clamp tick)
// is a double-count or leak in the accounting, not rounding.
func TestSetupTeardownDrift(t *testing.T) {
	ops := driftOps
	if testing.Short() {
		ops = 50_000
	}
	s := newTestSwitch(t, 1e9)
	rates := []float64{64e3, 512e3, 1e6, 2e6, 4e6}
	const live = 64 // concurrent calls held open so adds and removes interleave
	for i := 0; i < ops; i++ {
		id := VCID(i % live)
		if i >= live {
			if err := s.TeardownID(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.SetupID(id, 1, rates[i%len(rates)]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < live; i++ {
		if err := s.TeardownID(VCID(i)); err != nil {
			t.Fatal(err)
		}
	}
	reserved, _, err := s.PortLoad(1)
	if err != nil {
		t.Fatal(err)
	}
	if reserved != 0 {
		t.Fatalf("drained port reserved = %v, want exactly 0", reserved)
	}
	if clamps := s.Stats().ReservedClamps; clamps != 0 {
		t.Fatalf("ReservedClamps = %d under exact-rate churn, want 0", clamps)
	}
	if s.VCCount() != 0 {
		t.Fatalf("VCCount = %d after drain", s.VCCount())
	}
}

// TestVCsPage checks that pages concatenate to exactly the full sorted
// listing, for page sizes that do and do not divide the population.
func TestVCsPage(t *testing.T) {
	s := New(WithShards(8))
	for p := 0; p < 4; p++ {
		if err := s.AddPort(p, 1e9); err != nil {
			t.Fatal(err)
		}
	}
	const n = 137
	for i := 0; i < n; i++ {
		// Spread over VPIs so ordering crosses the 16-bit boundary.
		id := MakeVCID(uint8(i%3), uint16(i*31))
		if err := s.SetupID(id, i%4, float64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	full := s.VCs()
	if len(full) != n {
		t.Fatalf("VCs() = %d entries, want %d", len(full), n)
	}
	for _, limit := range []int{1, 7, 50, n, n + 10} {
		var paged []VCInfo
		for offset := 0; ; offset += limit {
			page, total := s.VCsPage(offset, limit)
			if total != n {
				t.Fatalf("total = %d, want %d", total, n)
			}
			if len(page) == 0 {
				break
			}
			if len(page) > limit {
				t.Fatalf("page of %d entries exceeds limit %d", len(page), limit)
			}
			paged = append(paged, page...)
		}
		if len(paged) != len(full) {
			t.Fatalf("limit %d: %d paged entries, want %d", limit, len(paged), len(full))
		}
		for i := range full {
			if paged[i] != full[i] {
				t.Fatalf("limit %d: entry %d = %+v, want %+v", limit, i, paged[i], full[i])
			}
		}
	}
	if page, total := s.VCsPage(n+5, 10); len(page) != 0 || total != n {
		t.Fatalf("offset past end: %d entries, total %d", len(page), total)
	}
	if page, total := s.VCsPage(0, 0); page != nil || total != n {
		t.Fatalf("limit 0: %v, total %d", page, total)
	}
	if page, _ := s.VCsPage(-3, 2); len(page) != 2 || page[0] != full[0] {
		t.Fatalf("negative offset: %+v", page)
	}
}

// countingLifecycle wraps a LifecycleAdmitter and counts every notification,
// so a storm can assert the switch delivered exactly one OnAdmit per
// successful setup and one OnDepart per teardown — no double-counted admits,
// no leaked departures. It also pins the per-port serialization contract:
// every callback marks its port in flight, yields to widen the window, and
// counts an overlap if another callback for the same port is already
// running.
type countingLifecycle struct {
	inner                        LifecycleAdmitter
	admits, rateChanges, departs atomic.Int64
	inFlight                     []atomic.Int32 // running callbacks, by port
	overlaps                     atomic.Int64
}

func (c *countingLifecycle) enter(port int) func() {
	if c.inFlight[port].Add(1) != 1 {
		c.overlaps.Add(1)
	}
	runtime.Gosched()
	return func() { c.inFlight[port].Add(-1) }
}

func (c *countingLifecycle) AdmitCall(port int, rate, reserved, capacity float64) bool {
	defer c.enter(port)()
	return c.inner.AdmitCall(port, rate, reserved, capacity)
}

func (c *countingLifecycle) OnAdmit(port int, id VCID, rate float64) {
	defer c.enter(port)()
	c.admits.Add(1)
	c.inner.OnAdmit(port, id, rate)
}

func (c *countingLifecycle) OnRateChange(port int, id VCID, oldRate, newRate float64) {
	defer c.enter(port)()
	c.rateChanges.Add(1)
	c.inner.OnRateChange(port, id, oldRate, newRate)
}

func (c *countingLifecycle) OnDepart(port int, id VCID, rate float64) {
	defer c.enter(port)()
	c.departs.Add(1)
	c.inner.OnDepart(port, id, rate)
}

// TestParallelSetupChurnStorm hammers setup/renegotiate/teardown from many
// goroutines across ports and shards with the stateful memory admitter
// installed. Run under -race (the Makefile's race target does), this is the
// proof that the port mutex alone keeps the stateful-admission path
// correct: admitter callbacks for one port never overlap, lifecycle
// notifications balance operations exactly and the fabric drains to zero
// everywhere.
func TestParallelSetupChurnStorm(t *testing.T) {
	const ports = 8
	inner, err := NewMemoryAdmitter([]float64{64e3, 512e3, 1e6, 2e6, 4e6}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	counter := &countingLifecycle{inner: inner, inFlight: make([]atomic.Int32, ports)}
	s := New(WithAdmitter(counter), WithShards(64))
	for p := 0; p < ports; p++ {
		if err := s.AddPort(p, 1e12); err != nil { // capacity out of the way: exercise accounting, not blocking
			t.Fatal(err)
		}
	}
	workers := 8
	iters := stormIters
	if testing.Short() {
		iters = 200
	}
	rates := []float64{64e3, 512e3, 1e6, 2e6, 4e6}
	var setups, teardowns, renegGrants atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			const live = 16
			base := VCID(w * 1000)
			for i := 0; i < iters; i++ {
				id := base + VCID(i%live)
				port := int(id) % ports
				if i >= live {
					if err := s.TeardownID(id); err != nil {
						t.Error(err)
						return
					}
					teardowns.Add(1)
				}
				if err := s.SetupID(id, port, rates[i%len(rates)]); err != nil {
					t.Error(err)
					return
				}
				setups.Add(1)
				if i%3 == 0 {
					_, ok, err := s.RenegotiateID(id, rates[(i+1)%len(rates)])
					if err != nil {
						t.Error(err)
						return
					}
					if ok {
						renegGrants.Add(1)
					}
				}
			}
			for i := 0; i < live && i < iters; i++ {
				if err := s.TeardownID(base + VCID(i%live)); err != nil {
					t.Error(err)
					return
				}
				teardowns.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := counter.overlaps.Load(); n != 0 {
		t.Errorf("%d admitter callbacks overlapped another on the same port", n)
	}
	if got := counter.admits.Load(); got != setups.Load() {
		t.Errorf("OnAdmit count %d != successful setups %d", got, setups.Load())
	}
	if got := counter.departs.Load(); got != teardowns.Load() {
		t.Errorf("OnDepart count %d != teardowns %d", got, teardowns.Load())
	}
	// Renegotiating to the same rate is a grant without a rate change, so
	// OnRateChange is bounded by grants, never exceeds them.
	if got := counter.rateChanges.Load(); got > renegGrants.Load() {
		t.Errorf("OnRateChange count %d > granted renegotiations %d", got, renegGrants.Load())
	}
	if n := s.VCCount(); n != 0 {
		t.Errorf("VCCount = %d after drain", n)
	}
	for p := 0; p < ports; p++ {
		reserved, _, err := s.PortLoad(p)
		if err != nil {
			t.Fatal(err)
		}
		if reserved != 0 {
			t.Errorf("port %d reserved = %v after drain, want exactly 0", p, reserved)
		}
		if calls := inner.PortCalls(p); calls != 0 {
			t.Errorf("admitter still tracks %d calls on drained port %d", calls, p)
		}
	}
	if clamps := s.Stats().ReservedClamps; clamps != 0 {
		t.Errorf("ReservedClamps = %d, want 0", clamps)
	}
}

// TestMemoryAdmitterBlocks pins the live memory scheme's defining behavior:
// the admission decision is driven by the pooled bandwidth *history* of the
// calls present, not the instantaneous reservation. Two 4 Mb/s calls on a
// 10 Mb/s port leave room for a 64 kb/s third by the capacity check, but the
// history says calls on this port are 4 Mb/s beasts — and three of those
// overflow, so the Chernoff tail is exactly 1 and admission must deny. A
// departure takes its history with it and reopens the port.
func TestMemoryAdmitterBlocks(t *testing.T) {
	ad, err := NewMemoryAdmitter([]float64{64e3, 4e6}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	s := New(WithAdmitter(ad))
	if err := s.AddPort(1, 10e6); err != nil {
		t.Fatal(err)
	}
	if err := s.SetupID(1, 1, 4e6); err != nil {
		t.Fatal(err)
	}
	if err := s.SetupID(2, 1, 4e6); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond) // accrue dwell mass at the 4 Mb/s level
	if err := s.SetupID(3, 1, 64e3); !errors.Is(err, ErrAdmission) {
		t.Fatalf("third call: %v, want ErrAdmission (history-based denial)", err)
	}
	if got := ad.PortCalls(1); got != 2 {
		t.Fatalf("PortCalls = %d, want 2", got)
	}
	if err := s.TeardownID(1); err != nil {
		t.Fatal(err)
	}
	if err := s.SetupID(3, 1, 64e3); err != nil {
		t.Fatalf("after departure: %v", err)
	}
	if got := ad.PortCalls(1); got != 2 {
		t.Fatalf("PortCalls after depart+admit = %d, want 2", got)
	}
}
