package cell

import (
	"bytes"
	"math"
	"testing"
)

// FuzzParse hammers the full-cell parser with arbitrary bytes: it must never
// panic, and anything it accepts must re-marshal to the same wire bytes
// (parse/build round trip).
func FuzzParse(f *testing.F) {
	good, err := Build(Header{VCI: 42}, cell())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good[:])
	f.Add(make([]byte, Size))
	f.Add([]byte{})
	f.Add(good[:20])
	f.Fuzz(func(t *testing.T, data []byte) {
		h, m, err := Parse(data)
		if err != nil {
			return
		}
		rebuilt, err := Build(h, m)
		if err != nil {
			t.Fatalf("accepted cell fails to rebuild: %v", err)
		}
		// The ER field is quantized on first encode, so re-encoding the
		// decoded value must be exact; every byte must match.
		for i := range rebuilt {
			if rebuilt[i] != data[i] {
				t.Fatalf("byte %d: rebuilt %#x != input %#x", i, rebuilt[i], data[i])
			}
		}
	})
}

func cell() RM {
	return RM{ER: 374e3, Seq: 7, Resync: true}
}

// FuzzRate16 checks the 16-bit rate codec over the whole code space:
// decoding any code and re-encoding must be idempotent.
func FuzzRate16(f *testing.F) {
	f.Add(uint16(0))
	f.Add(uint16(1 << 15))
	f.Add(uint16(0xFFFF))
	f.Fuzz(func(t *testing.T, v uint16) {
		r := DecodeRate16(v)
		if r < 0 || math.IsNaN(r) {
			t.Fatalf("decode(%#x) = %v", v, r)
		}
		v2, err := EncodeRate16(r)
		if err != nil {
			t.Fatalf("re-encode of decoded %v: %v", r, err)
		}
		if DecodeRate16(v2) != r {
			t.Fatalf("codec not idempotent: %#x -> %v -> %#x -> %v",
				v, r, v2, DecodeRate16(v2))
		}
	})
}

// FuzzParseData checks the data-cell codec: for any header PutData accepts,
// ParseData returns that header and the zero-padded payload unchanged, and
// PeekVCID returns its VPI and VCI.
func FuzzParseData(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(0), uint8(0), false, []byte{})
	f.Add(uint8(0xF), uint8(0xFF), uint16(0xFFFF), uint8(3), true, []byte("payload"))
	f.Add(uint8(1), uint8(3), uint16(42), uint8(4), false, make([]byte, PayloadSize))
	f.Fuzz(func(t *testing.T, gfc, vpi uint8, vci uint16, pti uint8, clp bool, payload []byte) {
		h := Header{GFC: gfc, VPI: vpi, VCI: vci, PTI: pti, CLP: clp}
		var buf [Size]byte
		if err := PutData(&buf, h, payload); err != nil {
			return
		}
		got, body, err := ParseData(buf[:])
		if err != nil {
			t.Fatalf("ParseData rejected a cell PutData built from %+v: %v", h, err)
		}
		if got != h {
			t.Fatalf("header %+v came back as %+v", h, got)
		}
		want := make([]byte, PayloadSize)
		copy(want, payload)
		if !bytes.Equal(body, want) {
			t.Fatalf("payload %x came back as %x", want, body)
		}
		if pvpi, pvci := PeekVCID(buf[:]); pvpi != vpi || pvci != vci {
			t.Fatalf("PeekVCID = (%d, %d), want (%d, %d)", pvpi, pvci, vpi, vci)
		}
	})
}
