package switchfab

import (
	"errors"
	"math"
	"sync"
	"testing"

	"rcbr/internal/cell"
)

func newTestSwitch(t *testing.T, capacity float64) *Switch {
	t.Helper()
	s := New()
	if err := s.AddPort(1, capacity); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSetupTeardown(t *testing.T) {
	s := newTestSwitch(t, 1e6)
	if err := s.SetupID(10, 1, 300e3); err != nil {
		t.Fatal(err)
	}
	if r, err := s.VCRateID(10); err != nil || r != 300e3 {
		t.Fatalf("VCRate = %v, %v", r, err)
	}
	reserved, capacity, err := s.PortLoad(1)
	if err != nil || reserved != 300e3 || capacity != 1e6 {
		t.Fatalf("PortLoad = %v/%v, %v", reserved, capacity, err)
	}
	if s.VCCount() != 1 {
		t.Fatalf("VCCount = %d", s.VCCount())
	}
	if err := s.TeardownID(10); err != nil {
		t.Fatal(err)
	}
	reserved, _, _ = s.PortLoad(1)
	if reserved != 0 {
		t.Fatalf("reserved after teardown = %v", reserved)
	}
}

func TestSetupErrors(t *testing.T) {
	s := newTestSwitch(t, 1e6)
	if err := s.SetupID(1, 99, 1); !errors.Is(err, ErrNoPort) {
		t.Errorf("missing port: %v", err)
	}
	if err := s.SetupID(1, 1, -5); !errors.Is(err, ErrInvalidRate) {
		t.Errorf("negative rate: %v", err)
	}
	if err := s.SetupID(1, 1, 2e6); !errors.Is(err, ErrCapacity) {
		t.Errorf("over capacity: %v", err)
	}
	if err := s.SetupID(1, 1, 1e5); err != nil {
		t.Fatal(err)
	}
	if err := s.SetupID(1, 1, 1e5); !errors.Is(err, ErrVCExists) {
		t.Errorf("duplicate VCI: %v", err)
	}
	if err := s.TeardownID(42); !errors.Is(err, ErrNoVC) {
		t.Errorf("missing VC: %v", err)
	}
	if err := s.AddPort(1, 1); !errors.Is(err, ErrPortExists) {
		t.Errorf("duplicate port: %v", err)
	}
	if err := s.AddPort(2, 0); !errors.Is(err, ErrInvalidRate) {
		t.Errorf("zero capacity port: %v", err)
	}
}

// rejectAll is a LifecycleAdmitter that refuses every call and counts the
// OnAdmit notifications it should never receive.
type rejectAll struct{ admits int }

func (*rejectAll) AdmitCall(int, float64, float64, float64) bool { return false }
func (r *rejectAll) OnAdmit(int, VCID, float64)                  { r.admits++ }
func (*rejectAll) OnRateChange(int, VCID, float64, float64)      {}
func (*rejectAll) OnDepart(int, VCID, float64)                   {}

func TestAdmissionHook(t *testing.T) {
	adm := &rejectAll{}
	s := New(WithAdmitter(adm))
	if err := s.AddPort(1, 1e6); err != nil {
		t.Fatal(err)
	}
	if err := s.SetupID(1, 1, 1e5); !errors.Is(err, ErrAdmission) {
		t.Fatalf("admission hook bypassed: %v", err)
	}
	if st := s.Stats(); st.SetupRejects != 1 {
		t.Fatalf("SetupRejects = %d", st.SetupRejects)
	}
	if adm.admits != 0 {
		t.Fatalf("OnAdmit called %d times for a rejected call", adm.admits)
	}
}

func TestRenegotiateGrantAndDeny(t *testing.T) {
	s := newTestSwitch(t, 1e6)
	if err := s.SetupID(1, 1, 400e3); err != nil {
		t.Fatal(err)
	}
	if err := s.SetupID(2, 1, 400e3); err != nil {
		t.Fatal(err)
	}
	// 800k reserved of 1M. VC 1 asks for 700k: needs 1.1M total -> deny.
	granted, ok, err := s.RenegotiateID(1, 700e3)
	if err != nil {
		t.Fatal(err)
	}
	if ok || granted != 400e3 {
		t.Fatalf("deny expected, got granted=%v ok=%v", granted, ok)
	}
	// Ask for 500k: 900k total -> grant.
	granted, ok, err = s.RenegotiateID(1, 500e3)
	if err != nil || !ok || granted != 500e3 {
		t.Fatalf("grant expected: %v %v %v", granted, ok, err)
	}
	// Decrease always succeeds.
	granted, ok, err = s.RenegotiateID(2, 100e3)
	if err != nil || !ok || granted != 100e3 {
		t.Fatalf("decrease: %v %v %v", granted, ok, err)
	}
	st := s.Stats()
	if st.Renegotiations != 3 || st.Denials != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRenegotiateErrors(t *testing.T) {
	s := newTestSwitch(t, 1e6)
	if _, _, err := s.RenegotiateID(9, 1); !errors.Is(err, ErrNoVC) {
		t.Errorf("missing VC: %v", err)
	}
	if err := s.SetupID(1, 1, 1e5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RenegotiateID(1, -1); !errors.Is(err, ErrInvalidRate) {
		t.Errorf("negative rate: %v", err)
	}
}

func TestHandleRMDeltaUp(t *testing.T) {
	s := newTestSwitch(t, 1e6)
	if err := s.SetupID(7, 1, 200e3); err != nil {
		t.Fatal(err)
	}
	h := cell.Header{VCI: 7, PTI: cell.PTIRM}
	resp, err := s.HandleRM(h, cell.RM{ER: 100e3, Seq: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Deny || !resp.Backward || !resp.Response || resp.Seq != 5 {
		t.Fatalf("resp = %+v", resp)
	}
	if math.Abs(resp.ER-300e3) > 1 {
		t.Fatalf("granted rate = %v, want 300e3", resp.ER)
	}
	if r, _ := s.VCRateID(7); math.Abs(r-300e3) > 1 {
		t.Fatalf("VC rate = %v", r)
	}
}

func TestHandleRMDeltaDown(t *testing.T) {
	s := newTestSwitch(t, 1e6)
	if err := s.SetupID(7, 1, 200e3); err != nil {
		t.Fatal(err)
	}
	resp, err := s.HandleRM(cell.Header{VCI: 7}, cell.RM{ER: 150e3, Decrease: true})
	if err != nil || resp.Deny {
		t.Fatalf("decrease denied: %+v %v", resp, err)
	}
	if math.Abs(resp.ER-50e3) > 1 {
		t.Fatalf("rate = %v, want 50e3", resp.ER)
	}
	// Decrease below zero clamps.
	resp, err = s.HandleRM(cell.Header{VCI: 7}, cell.RM{ER: 500e3, Decrease: true})
	if err != nil || resp.ER != 0 {
		t.Fatalf("clamp: %+v %v", resp, err)
	}
}

func TestHandleRMDeny(t *testing.T) {
	s := newTestSwitch(t, 500e3)
	if err := s.SetupID(1, 1, 300e3); err != nil {
		t.Fatal(err)
	}
	if err := s.SetupID(2, 1, 150e3); err != nil {
		t.Fatal(err)
	}
	resp, err := s.HandleRM(cell.Header{VCI: 1}, cell.RM{ER: 200e3})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Deny {
		t.Fatalf("expected denial: %+v", resp)
	}
	// Denied reply still reports the rate in force for resync.
	if math.Abs(resp.ER-300e3) > 1 {
		t.Fatalf("denied reply ER = %v, want current 300e3", resp.ER)
	}
	if r, _ := s.VCRateID(1); r != 300e3 {
		t.Fatalf("rate changed on denial: %v", r)
	}
}

func TestHandleRMResync(t *testing.T) {
	s := newTestSwitch(t, 1e6)
	if err := s.SetupID(3, 1, 100e3); err != nil {
		t.Fatal(err)
	}
	resp, err := s.HandleRM(cell.Header{VCI: 3}, cell.RM{ER: 250e3, Resync: true})
	if err != nil || resp.Deny {
		t.Fatalf("resync: %+v %v", resp, err)
	}
	if r, _ := s.VCRateID(3); math.Abs(r-250e3) > 1 {
		t.Fatalf("rate after resync = %v", r)
	}
	if st := s.Stats(); st.Resyncs != 1 {
		t.Fatalf("resyncs = %d", st.Resyncs)
	}
	// Resync beyond capacity is denied and keeps the old rate.
	resp, err = s.HandleRM(cell.Header{VCI: 3}, cell.RM{ER: 2e6, Resync: true})
	if err != nil || !resp.Deny {
		t.Fatalf("oversubscribing resync not denied: %+v %v", resp, err)
	}
	if r, _ := s.VCRateID(3); math.Abs(r-250e3) > 1 {
		t.Fatalf("rate after denied resync = %v", r)
	}
}

func TestHandleRMErrors(t *testing.T) {
	s := newTestSwitch(t, 1e6)
	if _, err := s.HandleRM(cell.Header{VCI: 9}, cell.RM{ER: 1}); !errors.Is(err, ErrNoVC) {
		t.Errorf("missing VC: %v", err)
	}
	if err := s.SetupID(1, 1, 1e5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.HandleRM(cell.Header{VCI: 1}, cell.RM{Backward: true}); err == nil {
		t.Error("backward cell accepted")
	}
	if _, err := s.HandleRM(cell.Header{VCI: 1}, cell.RM{ER: -1}); !errors.Is(err, ErrInvalidRate) {
		t.Errorf("negative ER: %v", err)
	}
}

// TestHandleRMSequenceSemantics pins down the per-VC sequence rules: a
// sequenced delta at or below the last-seen number is dropped as a delayed
// duplicate (reply carries the absolute current rate, Resync set, no Deny),
// resync cells always apply and reset the sequence state, and Seq 0 cells
// bypass the check entirely (legacy unsequenced senders).
func TestHandleRMSequenceSemantics(t *testing.T) {
	s := newTestSwitch(t, 1e6)
	if err := s.SetupID(5, 1, 100e3); err != nil {
		t.Fatal(err)
	}
	h := cell.Header{VCI: 5, PTI: cell.PTIRM}

	// Delta Seq 1 applies: 100k + 100k.
	if resp, err := s.HandleRM(h, cell.RM{ER: 100e3, Seq: 1}); err != nil || resp.Deny {
		t.Fatalf("delta seq 1: %+v %v", resp, err)
	}
	// Resync Seq 2 asserts 300k (the retry after a presumed-lost delta).
	if resp, err := s.HandleRM(h, cell.RM{ER: 300e3, Resync: true, Seq: 2}); err != nil || resp.Deny {
		t.Fatalf("resync seq 2: %+v %v", resp, err)
	}

	// The "lost" delta now arrives late. It must be dropped, not applied.
	resp, err := s.HandleRM(h, cell.RM{ER: 100e3, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Deny || !resp.Resync || !resp.Backward || !resp.Response || resp.Seq != 1 {
		t.Fatalf("dup reply = %+v, want non-deny resync echoing seq", resp)
	}
	if math.Abs(resp.ER-300e3) > 1 {
		t.Fatalf("dup reply ER = %v, want current 300e3", resp.ER)
	}
	// Seq == lastSeq is equally stale.
	if resp, err := s.HandleRM(h, cell.RM{ER: 100e3, Seq: 2}); err != nil || resp.Deny || math.Abs(resp.ER-300e3) > 1 {
		t.Fatalf("dup at lastSeq: %+v %v", resp, err)
	}
	if r, _ := s.VCRateID(5); math.Abs(r-300e3) > 1 {
		t.Fatalf("rate after duplicates = %v, want 300e3", r)
	}
	st := s.Stats()
	if st.DupDrops != 2 {
		t.Fatalf("DupDrops = %d, want 2", st.DupDrops)
	}
	// Dropped duplicates are not renegotiation attempts: 1 delta + 1 resync.
	if st.Renegotiations != 2 {
		t.Fatalf("Renegotiations = %d, want 2", st.Renegotiations)
	}

	// A fresh delta above lastSeq still applies.
	if resp, err := s.HandleRM(h, cell.RM{ER: 50e3, Seq: 3}); err != nil || resp.Deny || math.Abs(resp.ER-350e3) > 1 {
		t.Fatalf("delta seq 3: %+v %v", resp, err)
	}
}

func TestHandleRMResyncResetsSequence(t *testing.T) {
	// A source that crashes and restarts begins numbering from 1 again. Its
	// first cell is a resync (absolute rate), which must both apply and
	// reset the switch's sequence state so the restarted numbering works.
	s := newTestSwitch(t, 1e6)
	if err := s.SetupID(8, 1, 100e3); err != nil {
		t.Fatal(err)
	}
	h := cell.Header{VCI: 8, PTI: cell.PTIRM}
	if _, err := s.HandleRM(h, cell.RM{ER: 100e3, Seq: 41}); err != nil {
		t.Fatal(err)
	}
	// Restarted source: resync Seq 1 applies despite 1 <= 41.
	if resp, err := s.HandleRM(h, cell.RM{ER: 150e3, Resync: true, Seq: 1}); err != nil || resp.Deny {
		t.Fatalf("restart resync: %+v %v", resp, err)
	}
	if r, _ := s.VCRateID(8); math.Abs(r-150e3) > 1 {
		t.Fatalf("rate after restart resync = %v", r)
	}
	// And its next delta (Seq 2) is fresh, not a duplicate of the old epoch.
	if resp, err := s.HandleRM(h, cell.RM{ER: 50e3, Seq: 2}); err != nil || resp.Deny || math.Abs(resp.ER-200e3) > 1 {
		t.Fatalf("post-restart delta: %+v %v", resp, err)
	}
	if st := s.Stats(); st.DupDrops != 0 {
		t.Fatalf("DupDrops = %d, want 0", st.DupDrops)
	}
}

func TestHandleRMSeqZeroBypassesCheck(t *testing.T) {
	// Seq 0 marks an unsequenced sender: repeated Seq-0 deltas all apply
	// and never disturb the sequence state of sequenced traffic.
	s := newTestSwitch(t, 1e6)
	if err := s.SetupID(6, 1, 100e3); err != nil {
		t.Fatal(err)
	}
	h := cell.Header{VCI: 6, PTI: cell.PTIRM}
	for i := 0; i < 3; i++ {
		if resp, err := s.HandleRM(h, cell.RM{ER: 100e3}); err != nil || resp.Deny {
			t.Fatalf("seq-0 delta %d: %+v %v", i, resp, err)
		}
	}
	if r, _ := s.VCRateID(6); math.Abs(r-400e3) > 1 {
		t.Fatalf("rate after three unsequenced deltas = %v, want 400e3", r)
	}
	// Interleave a sequenced delta, then another Seq-0: both apply.
	if resp, err := s.HandleRM(h, cell.RM{ER: 50e3, Seq: 9}); err != nil || resp.Deny {
		t.Fatalf("sequenced delta: %+v %v", resp, err)
	}
	if resp, err := s.HandleRM(h, cell.RM{ER: 50e3}); err != nil || resp.Deny {
		t.Fatalf("seq-0 after sequenced: %+v %v", resp, err)
	}
	if st := s.Stats(); st.DupDrops != 0 {
		t.Fatalf("DupDrops = %d, want 0", st.DupDrops)
	}
}

func TestConcurrentRenegotiationsRespectCapacity(t *testing.T) {
	const (
		vcs      = 32
		capacity = 1e6
		low      = 20e3
		high     = 60e3
	)
	s := newTestSwitch(t, capacity)
	for i := 0; i < vcs; i++ {
		if err := s.SetupID(VCID(i), 1, low); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < vcs; i++ {
		wg.Add(1)
		go func(vci VCID) {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				if _, _, err := s.RenegotiateID(vci, high); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := s.RenegotiateID(vci, low); err != nil {
					t.Error(err)
					return
				}
			}
		}(VCID(i))
	}
	wg.Wait()
	reserved, cap2, err := s.PortLoad(1)
	if err != nil {
		t.Fatal(err)
	}
	if reserved > cap2 {
		t.Fatalf("reserved %v exceeds capacity %v after concurrent churn", reserved, cap2)
	}
	// Final state: every VC at low (last renegotiation always succeeds as
	// a decrease), so reserved must be exactly vcs*low.
	if math.Abs(reserved-vcs*low) > 1e-6 {
		t.Fatalf("reserved = %v, want %v", reserved, vcs*low)
	}
}

func TestEndToEndCellPath(t *testing.T) {
	// Round-trip through real encoded cells: build, parse, handle, reply.
	s := newTestSwitch(t, 1e6)
	if err := s.SetupID(21, 1, 128e3); err != nil {
		t.Fatal(err)
	}
	raw, err := cell.Build(cell.Header{VCI: 21}, cell.RM{ER: 64e3, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, m, err := cell.Parse(raw[:])
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.HandleRM(h, m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := cell.Build(cell.Header{VCI: 21}, resp)
	if err != nil {
		t.Fatal(err)
	}
	_, m2, err := cell.Parse(back[:])
	if err != nil {
		t.Fatal(err)
	}
	// 128k + 64k = 192k within 16-bit rate quantization (both encode
	// exactly: powers of two times small mantissa).
	if math.Abs(m2.ER-192e3)/192e3 > 1.0/256 {
		t.Fatalf("end-to-end granted rate = %v", m2.ER)
	}
}

func TestRenegotiateBest(t *testing.T) {
	s := newTestSwitch(t, 1e6)
	if err := s.SetupID(1, 1, 300e3); err != nil {
		t.Fatal(err)
	}
	if err := s.SetupID(2, 1, 500e3); err != nil {
		t.Fatal(err)
	}
	// 800k reserved of 1M; VC 1 asks for 600k but only 200k headroom is
	// left, so the best grant is 500k.
	granted, full, err := s.RenegotiateBestID(1, 600e3)
	if err != nil || full || granted != 500e3 {
		t.Fatalf("partial expected: granted=%v full=%v err=%v", granted, full, err)
	}
	if reserved, _, _ := s.PortLoad(1); reserved != 1e6 {
		t.Fatalf("reserved after partial = %v", reserved)
	}
	// Zero headroom now: an increase is flatly denied, rate unchanged.
	granted, full, err = s.RenegotiateBestID(2, 600e3)
	if err != nil || full || granted != 500e3 {
		t.Fatalf("flat denial expected: granted=%v full=%v err=%v", granted, full, err)
	}
	// Decreases always settle in full.
	granted, full, err = s.RenegotiateBestID(2, 100e3)
	if err != nil || !full || granted != 100e3 {
		t.Fatalf("decrease: granted=%v full=%v err=%v", granted, full, err)
	}
	// With 400k headroom the full target fits again.
	granted, full, err = s.RenegotiateBestID(1, 700e3)
	if err != nil || !full || granted != 700e3 {
		t.Fatalf("full grant: granted=%v full=%v err=%v", granted, full, err)
	}
	st := s.Stats()
	if st.PartialGrants != 1 {
		t.Fatalf("PartialGrants = %d", st.PartialGrants)
	}
	if st.Denials != 1 {
		t.Fatalf("Denials = %d", st.Denials)
	}
	if st.Renegotiations != 4 {
		t.Fatalf("Renegotiations = %d", st.Renegotiations)
	}
}

func TestRenegotiateBestErrors(t *testing.T) {
	s := newTestSwitch(t, 1e6)
	if _, _, err := s.RenegotiateBestID(9, 1); !errors.Is(err, ErrNoVC) {
		t.Errorf("missing VC: %v", err)
	}
	if err := s.SetupID(1, 1, 1e5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RenegotiateBestID(1, -1); !errors.Is(err, ErrInvalidRate) {
		t.Errorf("negative rate: %v", err)
	}
}
