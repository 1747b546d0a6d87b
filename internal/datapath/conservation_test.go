package datapath

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"rcbr/internal/switchfab"
)

// TestConservationAcrossProcs is the concurrent conservation property: for
// random rate mixes, every injected cell is accounted for exactly once —
// injected == transmitted + dropped + in-flight, with in-flight exactly
// zero after the drain — whatever the interleaving. It runs at GOMAXPROCS
// 1, 2 and 4, so the same invariant is checked with goroutines that truly
// interleave and with goroutines multiplexed on one core; `make race` runs
// it under the race detector at GOMAXPROCS=4 (race-gated counts in
// norace_test.go / race_test.go).
func TestConservationAcrossProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			prop := func(seed uint64) bool {
				return conservationHolds(t, seed)
			}
			cfg := &quick.Config{
				MaxCount: conservationQuickRuns,
				Rand:     rand.New(rand.NewSource(int64(procs))),
			}
			if err := quick.Check(prop, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// conservationHolds runs one storm: one producer per ingress port, one
// goroutine calling Forward, one transmitter per egress port and a
// control-plane goroutine retargeting rates, all concurrently; then a
// single-driver drain. Rates are drawn from seed (zero, trickle, and
// effectively-unlimited VCs mixed), so cells split across policed /
// overflow / forwarded unpredictably — the ledgers must balance exactly
// regardless.
func conservationHolds(t *testing.T, seed uint64) bool {
	t.Helper()
	const (
		ports      = 8
		vcsPerPort = 4
	)
	rng := rand.New(rand.NewSource(int64(seed)))
	f := New(WithRingCells(64), WithBurst(16), WithDepthCells(2))
	pp := make([]*Port, ports)
	for i := range pp {
		p, err := f.AddPort(i)
		if err != nil {
			t.Fatal(err)
		}
		pp[i] = p
	}
	var ids []switchfab.VCID
	for i := 0; i < ports; i++ {
		for v := 0; v < vcsPerPort; v++ {
			id := switchfab.MakeVCID(uint8(i), uint16(2000+v))
			var rate float64
			switch rng.Intn(3) {
			case 0: // zero: polices everything after the initial depth
			case 1:
				rate = float64(1+rng.Intn(500)) * CellPayloadBits
			case 2:
				rate = 1e12
			}
			if err := f.AddVC(id, rng.Intn(ports), rate); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	var injected, refused atomic.Int64
	var prodWG sync.WaitGroup
	for i := 0; i < ports; i++ {
		prodWG.Add(1)
		go func(i int, r uint64) {
			defer prodWG.Done()
			cells := make([]Cell, vcsPerPort)
			for v := range cells {
				cells[v] = mkCell(t, switchfab.MakeVCID(uint8(i), uint16(2000+v)), r)
			}
			for n := 0; n < conservationCellsPerPort; n++ {
				r = r*6364136223846793005 + 1
				injected.Add(1)
				if !f.Inject(pp[i], &cells[r%vcsPerPort]) {
					refused.Add(1)
					runtime.Gosched()
				}
			}
		}(i, seed+uint64(i))
	}
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var loopWG sync.WaitGroup
	loopWG.Add(1)
	go func() {
		defer loopWG.Done()
		for now := int64(0); !stopped(); now += 1e5 {
			if f.Forward(now) == 0 {
				runtime.Gosched()
			}
		}
	}()
	for _, p := range pp {
		loopWG.Add(1)
		go func(p *Port) {
			defer loopWG.Done()
			for !stopped() {
				if f.Transmit(p, 64) == 0 {
					runtime.Gosched()
				}
			}
		}(p)
	}
	loopWG.Add(1)
	go func() {
		defer loopWG.Done()
		r := seed | 1
		for !stopped() {
			r = r*6364136223846793005 + 1
			f.SetVCRate(ids[r%uint64(len(ids))], float64(r%1000)*CellPayloadBits)
			runtime.Gosched()
		}
	}()
	prodWG.Wait()
	close(stop)
	loopWG.Wait()

	// Single-driver drain, far in the future so every earning VC earns.
	now := int64(1) << 50
	for idle := 0; idle < 3; now += 1e6 {
		moved := f.Forward(now)
		for _, p := range pp {
			moved += f.Transmit(p, 64)
		}
		if moved == 0 {
			idle++
		} else {
			idle = 0
		}
	}

	ok := true
	fail := func(format string, args ...any) {
		t.Errorf("seed %d: "+format, append([]any{seed}, args...)...)
		ok = false
	}
	var arrived, sunk, transmitted, enqueued, dropped int64
	for i, p := range pp {
		ps := p.Stats()
		if ps.InQueued != 0 || ps.OutQueued != 0 {
			fail("port %d not drained: %+v", i, ps)
		}
		if got := ps.BadHeader + ps.Unroutable + ps.Policed + ps.Overflow + ps.Forwarded; got != ps.Arrived {
			fail("port %d ingress ledger: %+v (sum %d)", i, ps, got)
		}
		if ps.Enqueued != ps.Transmitted {
			fail("port %d egress ledger: %+v", i, ps)
		}
		arrived += ps.Arrived
		sunk += ps.Forwarded
		dropped += ps.BadHeader + ps.Unroutable + ps.Policed + ps.Overflow
		transmitted += ps.Transmitted
		enqueued += ps.Enqueued
	}
	var vcSeen int64
	for _, id := range ids {
		vs, found := f.VCStats(id)
		if !found {
			fail("vc %s vanished", id)
			continue
		}
		if vs.Seen != vs.Forwarded+vs.Policed+vs.Overflow {
			fail("vc %s ledger: %+v", id, vs)
		}
		if vs.Queued != 0 {
			fail("vc %s still queued after drain: %+v", id, vs)
		}
		vcSeen += vs.Seen
	}
	// The property of the ISSUE, globally: injected == transmitted +
	// dropped + in-flight, with in-flight == 0 once drained. Drops split
	// into inject-refused (ring full at the wire) and in-switch drops.
	if injected.Load() != int64(ports*conservationCellsPerPort) {
		fail("injected %d, want %d", injected.Load(), ports*conservationCellsPerPort)
	}
	if arrived != injected.Load()-refused.Load() {
		fail("arrived %d != injected %d - refused %d", arrived, injected.Load(), refused.Load())
	}
	if sunk != enqueued || enqueued != transmitted {
		fail("forwarded %d / enqueued %d / transmitted %d diverge", sunk, enqueued, transmitted)
	}
	if got := transmitted + dropped + refused.Load(); got != injected.Load() {
		fail("conservation: transmitted %d + dropped %d + refused %d = %d != injected %d",
			transmitted, dropped, refused.Load(), got, injected.Load())
	}
	if vcSeen != arrived {
		fail("vc seen %d != arrived %d (every cell was routable)", vcSeen, arrived)
	}
	return ok
}
