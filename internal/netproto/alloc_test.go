package netproto

import (
	"testing"

	"rcbr/internal/cell"
	"rcbr/internal/switchfab"
)

// These tests pin the allocation behavior of the steady-state signaling hot
// path. They are regression locks for the zero-allocation wire path: if a
// change reintroduces a per-message allocation in encode, decode, or the
// server's RM dispatch, these fail rather than the p99 quietly drifting.

func TestAppendRMZeroAlloc(t *testing.T) {
	h := cell.Header{VCI: 42}
	m := cell.RM{ER: 1e6, Seq: 7}
	buf := make([]byte, 0, maxFrame)
	allocs := testing.AllocsPerRun(1000, func() {
		var err error
		buf, err = AppendRM(buf[:0], 9, h, m)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendRM allocates %.1f objects/op, want 0", allocs)
	}
}

func TestDecodeRMZeroAlloc(t *testing.T) {
	pkt, err := EncodeRM(9, cell.Header{VCI: 42}, cell.RM{ER: 1e6, Seq: 7})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		f, err := ParseFrame(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeRM(f.Payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ParseFrame+DecodeRM allocates %.1f objects/op, want 0", allocs)
	}
}

func TestRMBatchCodecZeroAlloc(t *testing.T) {
	items := make([]switchfab.RMItem, MaxRMBatch)
	for i := range items {
		items[i] = switchfab.RMItem{ID: switchfab.VCID(i + 1), M: cell.RM{ER: 1e6, Seq: uint32(i + 1)}}
	}
	buf := make([]byte, 0, maxFrame)
	decoded := make([]switchfab.RMItem, 0, MaxRMBatch)
	allocs := testing.AllocsPerRun(1000, func() {
		var err error
		buf, err = AppendRMBatch(buf[:0], 9, items)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err = DecodeRMBatch(buf[headerLen:], decoded[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("batch encode+decode allocates %.1f objects/op, want 0", allocs)
	}
}

// TestServerHandleRMZeroAlloc pins the whole server-side RM round trip —
// frame parse, cell decode, switch renegotiation, reply encode — at zero
// allocations per request in the steady state.
func TestServerHandleRMZeroAlloc(t *testing.T) {
	sw := switchfab.New()
	if err := sw.AddPort(1, 1e9); err != nil {
		t.Fatal(err)
	}
	if err := sw.SetupID(42, 1, 1e6); err != nil {
		t.Fatal(err)
	}
	// A resync to a fixed rate is idempotent, so the same request can be
	// replayed arbitrarily (Seq 0 marks an unsequenced cell).
	pkt, err := EncodeRM(9, cell.Header{VCI: 42}, cell.RM{Resync: true, ER: 2e6})
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{sw: sw}
	sc := newScratch()
	allocs := testing.AllocsPerRun(1000, func() {
		if reply := s.handle(pkt, sc); reply == nil {
			t.Fatal("no reply")
		}
	})
	if allocs != 0 {
		t.Errorf("server RM handle allocates %.1f objects/op, want 0", allocs)
	}
}

// TestServerHandleRMBatchZeroAlloc does the same for a full batch frame.
func TestServerHandleRMBatchZeroAlloc(t *testing.T) {
	sw := switchfab.New()
	if err := sw.AddPort(1, 1e9); err != nil {
		t.Fatal(err)
	}
	items := make([]switchfab.RMItem, MaxRMBatch)
	for i := range items {
		id := switchfab.VCID(i + 1)
		if err := sw.SetupID(id, 1, 1e6); err != nil {
			t.Fatal(err)
		}
		items[i] = switchfab.RMItem{ID: id, M: cell.RM{Resync: true, ER: 2e6}}
	}
	pkt, err := AppendRMBatch(nil, 9, items)
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{sw: sw}
	sc := newScratch()
	allocs := testing.AllocsPerRun(1000, func() {
		if reply := s.handle(pkt, sc); reply == nil {
			t.Fatal("no reply")
		}
	})
	if allocs != 0 {
		t.Errorf("server RM batch handle allocates %.1f objects/op, want 0", allocs)
	}
}
