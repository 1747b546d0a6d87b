package mesh

import (
	"testing"

	"rcbr/internal/datapath"
	"rcbr/internal/switchfab"
)

// buildCellChain returns a 3-hop relay (delays 2, 3, 5 slots) with one VC
// at the given rate on every hop, plus the per-hop forwarders.
func buildCellChain(t *testing.T, id switchfab.VCID, rateBits float64, slotNanos int64) (*CellPath, []*datapath.Forwarder) {
	t.Helper()
	delays := []int64{2, 3, 5}
	var fws []*datapath.Forwarder
	var hops []CellHop
	for _, d := range delays {
		fw := datapath.New()
		if _, err := fw.AddPort(0); err != nil {
			t.Fatal(err)
		}
		if _, err := fw.AddPort(1); err != nil {
			t.Fatal(err)
		}
		if err := fw.AddVC(id, 1, rateBits); err != nil {
			t.Fatal(err)
		}
		fws = append(fws, fw)
		hops = append(hops, CellHop{FW: fw, In: 0, Out: 1, DelaySlots: d})
	}
	cp, err := NewCellPath(hops, slotNanos)
	if err != nil {
		t.Fatal(err)
	}
	return cp, fws
}

// TestCellPathDelay: a conforming CBR flow through three hops arrives in
// full, every cell delayed by exactly the propagation total plus one
// store-and-forward slot per intermediate hop — measured, not modeled.
func TestCellPathDelay(t *testing.T) {
	const (
		slotNanos = int64(1e6) // 1000 slots/sec line rate
		period    = 4          // one cell every 4 slots = 250 cells/s
	)
	id := switchfab.MakeVCID(0, 7)
	rate := 250 * datapath.CellPayloadBits
	cp, _ := buildCellChain(t, id, rate, slotNanos)

	slot := int64(0)
	for ; slot < 4000; slot++ {
		if slot%period == 0 {
			if !cp.InjectStamped(id, slot) {
				t.Fatalf("slot %d: inject refused", slot)
			}
		}
		cp.Step(slot)
	}
	for ; slot < 4100; slot++ { // drain the pipeline
		cp.Step(slot)
	}
	s := cp.Stats()
	if s.Injected != 1000 || s.Delivered != 1000 || s.LinkDrops != 0 {
		t.Fatalf("stats %+v, want 1000 delivered of 1000", s)
	}
	if cp.InFlight() != 0 {
		t.Fatalf("%d cells stuck on links", cp.InFlight())
	}
	// Propagation 2+3+5 plus one forwarding slot at each hop after the
	// first: 12 slots, for every single cell.
	const wantDelay = 12
	if s.MaxDelaySlots != wantDelay || s.MeanDelaySlots() != wantDelay {
		t.Fatalf("delay mean %.2f max %d, want exactly %d",
			s.MeanDelaySlots(), s.MaxDelaySlots, wantDelay)
	}
}

// TestCellPathLossAtThrottledHop: halving-and-worse the middle hop's
// granted rate turns the overload into real policed drops at that hop, and
// every injected cell is still accounted for across the whole path.
func TestCellPathLossAtThrottledHop(t *testing.T) {
	const slotNanos = int64(1e6)
	id := switchfab.MakeVCID(0, 9)
	rate := 250 * datapath.CellPayloadBits
	cp, fws := buildCellChain(t, id, rate, slotNanos)

	// The middle hop now grants a fifth of the offered rate.
	if err := fws[1].SetVCRate(id, rate/5); err != nil {
		t.Fatal(err)
	}
	slot := int64(0)
	for ; slot < 8000; slot++ {
		if slot%4 == 0 {
			cp.InjectStamped(id, slot)
		}
		cp.Step(slot)
	}
	for ; slot < 8100; slot++ {
		cp.Step(slot)
	}
	s := cp.Stats()
	vs, ok := fws[1].VCStats(id)
	if !ok {
		t.Fatal("vc missing at hop 1")
	}
	if vs.Policed == 0 {
		t.Fatalf("throttled hop policed nothing: %+v", vs)
	}
	if s.Delivered >= s.Injected {
		t.Fatalf("no end-to-end loss despite throttled hop: %+v", s)
	}

	// Path-wide conservation: injected cells are delivered, dropped on a
	// link, dropped at some hop, queued in some ring, or in flight.
	var dropped, queued int64
	for k := 0; k < 3; k++ {
		in, out := cp.Hop(k)
		ps := in.Stats()
		if got := ps.BadHeader + ps.Unroutable + ps.Policed + ps.Overflow + ps.Forwarded; got+int64(ps.InQueued) != ps.Arrived {
			t.Fatalf("hop %d ingress conservation: %+v", k, ps)
		}
		dropped += ps.BadHeader + ps.Unroutable + ps.Policed + ps.Overflow
		queued += int64(ps.InQueued)
		os := out.Stats()
		if os.Enqueued != os.Transmitted+int64(os.OutQueued) {
			t.Fatalf("hop %d egress conservation: %+v", k, os)
		}
		queued += int64(os.OutQueued)
	}
	total := s.Delivered + s.LinkDrops + dropped + queued + int64(cp.InFlight())
	if total != s.Injected {
		t.Fatalf("path conservation: injected %d, accounted %d (%+v)", s.Injected, total, s)
	}
}

func TestNewCellPathValidation(t *testing.T) {
	fw := datapath.New()
	fw.AddPort(0)
	if _, err := NewCellPath(nil, 1); err == nil {
		t.Fatal("empty path accepted")
	}
	if _, err := NewCellPath([]CellHop{{FW: fw, In: 0, Out: 1}}, 0); err == nil {
		t.Fatal("zero slotNanos accepted")
	}
	if _, err := NewCellPath([]CellHop{{FW: fw, In: 0, Out: 1}}, 1); err == nil {
		t.Fatal("unregistered egress port accepted")
	}
	if _, err := NewCellPath([]CellHop{{FW: nil, In: 0, Out: 0}}, 1); err == nil {
		t.Fatal("nil forwarder accepted")
	}
	if _, err := NewCellPath([]CellHop{{FW: fw, In: 0, Out: 0, DelaySlots: -1}}, 1); err == nil {
		t.Fatal("negative delay accepted")
	}
}
