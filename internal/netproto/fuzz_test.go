package netproto

import (
	"bytes"
	"errors"
	"testing"

	"rcbr/internal/cell"
	"rcbr/internal/switchfab"
)

// FuzzServerHandle feeds arbitrary datagrams to the server's dispatcher: it
// must never panic and must never reply with anything but a well-formed
// frame.
func FuzzServerHandle(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeSetup(1, SetupReq{VCI: 1, Port: 1, Rate: 1e5}))
	f.Add(EncodeTeardown(2, 1))
	f.Add(EncodeErr(3, ErrCodeGeneric, "x"))
	f.Add([]byte{Magic, Version, 99, 0, 0, 0, 0})
	if batch, err := AppendRMBatch(nil, 4, []switchfab.RMItem{{ID: 1}}); err == nil {
		f.Add(batch)
	}
	f.Add([]byte{Magic, Version, TypeRMBatch, 0, 0, 0, 5, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		sw := switchfab.New(nil)
		if err := sw.AddPort(1, 1e6); err != nil {
			t.Fatal(err)
		}
		if err := sw.SetupID(1, 1, 1e5); err != nil {
			t.Fatal(err)
		}
		s := &Server{sw: sw}
		reply := s.handle(data, newScratch())
		if reply == nil {
			return
		}
		if _, err := ParseFrame(reply); err != nil {
			t.Fatalf("server produced malformed reply %x: %v", reply, err)
		}
		if len(reply) > maxFrame {
			t.Fatalf("reply length %d exceeds frame cap", len(reply))
		}
	})
}

// FuzzParseFrame must never panic and accepted frames must carry a payload
// view inside the input.
func FuzzParseFrame(f *testing.F) {
	f.Add([]byte{Magic, Version, TypeSetup, 0, 0, 0, 1, 9, 9})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ParseFrame(data)
		if err != nil {
			return
		}
		if len(fr.Payload) > len(data) {
			t.Fatal("payload longer than input")
		}
	})
}

// FuzzDecodeRMBatch feeds arbitrary batch payloads to the decoder: it must
// never panic, an accepted payload must yield exactly the item count its
// first byte declares and re-encode to the same bytes, and every decoded
// rate must pass the fabric's rate validity check (a switch with no VCs
// answers ErrNoVC, never ErrInvalidRate).
func FuzzDecodeRMBatch(f *testing.F) {
	items := []switchfab.RMItem{
		{ID: 1, M: cell.RM{ER: 374e3, Seq: 7}},
		{ID: switchfab.MakeVCID(3, 0xFFFF), M: cell.RM{Resync: true, Decrease: true, ER: 0, Seq: 1}},
	}
	if frame, err := AppendRMBatch(nil, 1, items); err == nil {
		if fr, err := ParseFrame(frame); err == nil {
			f.Add(fr.Payload)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0, 1, 0x20, 0xFF, 0xFF, 0, 0, 0, 1})
	// ER codes no rate encodes to: bit 15 clear with other bits set, and
	// the reserved mantissa bit 9 set.
	f.Add([]byte{1, 0, 0, 1, 0, 0x12, 0x34, 0, 0, 0, 1})
	f.Add([]byte{1, 0, 0, 1, 0, 0xA2, 0x00, 0, 0, 0, 1})
	sw := switchfab.New(nil)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeRMBatch(data, nil)
		if err != nil {
			return
		}
		if len(got) != int(data[0]) {
			t.Fatalf("decoded %d items, payload declares %d", len(got), data[0])
		}
		frame, err := AppendRMBatch(nil, 0, got)
		if err != nil {
			t.Fatalf("re-encoding accepted items: %v", err)
		}
		if fr, err := ParseFrame(frame); err != nil || !bytes.Equal(fr.Payload, data) {
			t.Fatalf("payload %x re-encodes to %x (err %v)", data, fr.Payload, err)
		}
		for i, it := range got {
			m := it.M
			m.Backward, m.Response = false, false
			_, err := sw.HandleRM(cell.Header{VPI: it.ID.VPI(), VCI: it.ID.VCI()}, m)
			if !errors.Is(err, switchfab.ErrNoVC) {
				t.Fatalf("item %d rate %v: fabric answered %v, want ErrNoVC", i, it.M.ER, err)
			}
		}
	})
}
