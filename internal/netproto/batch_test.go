package netproto

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"rcbr/internal/cell"
	"rcbr/internal/metrics"
	"rcbr/internal/switchfab"
)

func TestRMBatchCodecRoundTrip(t *testing.T) {
	items := []switchfab.RMItem{
		{VPI: 0, VCI: 1, M: cell.RM{ER: 1e6, Seq: 7}},
		{VPI: 3, VCI: 2, M: cell.RM{Decrease: true, ER: 5e5, Seq: 8}},
		{VPI: 0, VCI: 3, M: cell.RM{Resync: true, ER: 4e6, Seq: 9}},
		{VPI: 255, VCI: 65535, M: cell.RM{Backward: true, Response: true, Deny: true, ER: 2e6, Seq: 10}},
	}
	b, err := AppendRMBatch(nil, 42, items)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ParseFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if f.Version != VersionBatch || f.Type != TypeRMBatch || f.ReqID != 42 {
		t.Fatalf("frame = %+v", f)
	}
	got, err := DecodeRMBatch(f.Payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("decoded %d items, want %d", len(got), len(items))
	}
	for i := range items {
		want := items[i]
		// ER crosses the wire in TM 4.0 16-bit form; compare post-quantization.
		er16, _ := cell.EncodeRate16(want.M.ER)
		want.M.ER = cell.DecodeRate16(er16)
		if got[i] != want {
			t.Errorf("item %d = %+v, want %+v", i, got[i], want)
		}
	}
}

func TestRMBatchCodecLimits(t *testing.T) {
	if _, err := AppendRMBatch(nil, 1, nil); !errors.Is(err, ErrFrame) {
		t.Errorf("empty batch: %v", err)
	}
	big := make([]switchfab.RMItem, MaxRMBatch+1)
	if _, err := AppendRMBatch(nil, 1, big); !errors.Is(err, ErrFrame) {
		t.Errorf("oversized batch: %v", err)
	}
	full := make([]switchfab.RMItem, MaxRMBatch)
	for i := range full {
		full[i] = switchfab.RMItem{VCI: uint16(i), M: cell.RM{ER: 1e6, Seq: uint32(i + 1)}}
	}
	b, err := AppendRMBatch(nil, 1, full)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > maxFrame {
		t.Fatalf("full batch frame is %d bytes, exceeds maxFrame %d", len(b), maxFrame)
	}
	// Truncated and trailing-garbage payloads must be rejected.
	f, _ := ParseFrame(b)
	if _, err := DecodeRMBatch(f.Payload[:len(f.Payload)-1], nil); !errors.Is(err, ErrFrame) {
		t.Errorf("truncated payload: %v", err)
	}
	if _, err := DecodeRMBatch(append(append([]byte{}, f.Payload...), 0), nil); !errors.Is(err, ErrFrame) {
		t.Errorf("trailing byte: %v", err)
	}
}

func TestParseFrameRejectsBatchAtV2(t *testing.T) {
	b, err := AppendRMBatch(nil, 9, []switchfab.RMItem{{VCI: 1, M: cell.RM{ER: 1, Seq: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	b[1] = Version // rewrite the version byte to 2
	if _, err := ParseFrame(b); !errors.Is(err, ErrVersion) {
		t.Errorf("batch frame at v2: %v", err)
	}
}

// batchTestRig stands up a switch, server, and batching client over
// loopback UDP.
func batchTestRig(t *testing.T, reg *metrics.Registry, copts ...ClientOption) (*switchfab.Switch, *Client) {
	t.Helper()
	sw := switchfab.New()
	if err := sw.AddPort(1, 1e9); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 64; i++ {
		if err := sw.Setup(uint16(i), 1, 1e6); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServer("127.0.0.1:0", sw, WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	c, err := DialContext(ctx, srv.Addr().String(), copts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return sw, c
}

// TestClientBatchWindow coalesces concurrent renegotiations into batch
// frames and checks every caller gets its own grant.
func TestClientBatchWindow(t *testing.T) {
	reg := metrics.NewRegistry()
	sw, c := batchTestRig(t, reg,
		WithBatchWindow(20*time.Millisecond), WithClientMetrics(reg))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const n = 16
	type res struct {
		vci     uint16
		granted float64
		ok      bool
		err     error
	}
	results := make(chan res, n)
	for i := 1; i <= n; i++ {
		go func(vci uint16) {
			g, ok, err := c.Renegotiate(ctx, vci, 1e6, 1e6+float64(vci)*1e3)
			results <- res{vci, g, ok, err}
		}(uint16(i))
	}
	for i := 0; i < n; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("VC %d: %v", r.vci, r.err)
		}
		if !r.ok {
			t.Errorf("VC %d denied", r.vci)
		}
		want := 1e6 + float64(r.vci)*1e3
		er16, _ := cell.EncodeRate16(want)
		if q := cell.DecodeRate16(er16); r.granted != q {
			t.Errorf("VC %d granted %g, want %g", r.vci, r.granted, q)
		}
	}
	if got := sw.Stats().Batches; got == 0 {
		t.Error("switch saw no batches; coalescing did not engage")
	}
	snap := reg.Snapshot()
	if snap.Counters[MetricClientBatchCells] != n {
		t.Errorf("client batch cells = %d, want %d", snap.Counters[MetricClientBatchCells], n)
	}
	if snap.Counters[MetricServerBatches] == 0 {
		t.Error("server batch counter never moved")
	}
}

// TestClientBatchDuplicateVCI: two renegotiations of one VC in the same
// window must both resolve (the window flushes early to keep VCs distinct).
func TestClientBatchDuplicateVCI(t *testing.T) {
	_, c := batchTestRig(t, nil, WithBatchWindow(20*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 2)
	for k := 0; k < 2; k++ {
		go func() {
			_, ok, err := c.Renegotiate(ctx, 7, 1e6, 2e6)
			if err == nil && !ok {
				err = errors.New("denied")
			}
			done <- err
		}()
	}
	for k := 0; k < 2; k++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestClientBatchUnknownVCFallback: an unknown VC inside a batch is omitted
// from the reply and must surface through the fallback path as ErrNoVC.
func TestClientBatchUnknownVCFallback(t *testing.T) {
	reg := metrics.NewRegistry()
	_, c := batchTestRig(t, nil, WithBatchWindow(20*time.Millisecond), WithClientMetrics(reg))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs := make(chan error, 2)
	go func() {
		_, _, err := c.Renegotiate(ctx, 2, 1e6, 2e6)
		errs <- err
	}()
	go func() {
		_, _, err := c.Renegotiate(ctx, 999, 1e6, 2e6) // never set up
		errs <- err
	}()
	var sawNoVC bool
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			if !errors.Is(err, switchfab.ErrNoVC) {
				t.Fatalf("unexpected error: %v", err)
			}
			sawNoVC = true
		}
	}
	if !sawNoVC {
		t.Fatal("renegotiating an unknown VC reported no error")
	}
	if reg.Snapshot().Counters[MetricClientBatchFallbacks] == 0 {
		t.Error("fallback counter never moved")
	}
}

// v2OnlyServer mimics a pre-batch peer: it answers v2 RM frames but drops
// anything at version 3, exactly as the old ParseFrame rejected unknown
// versions.
func v2OnlyServer(t *testing.T, sw *switchfab.Switch) net.Addr {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	go func() {
		buf := make([]byte, maxFrame)
		for {
			n, from, err := conn.ReadFrom(buf)
			if err != nil {
				return
			}
			if n < headerLen || buf[0] != Magic || buf[1] != Version {
				continue // a v2-only peer drops version-3 frames on the floor
			}
			f, err := ParseFrame(buf[:n])
			if err != nil || f.Type != TypeRM {
				continue
			}
			h, m, err := DecodeRM(f.Payload)
			if err != nil {
				continue
			}
			resp, err := sw.HandleRM(h, m)
			if err != nil {
				continue
			}
			reply, err := EncodeRMReply(f.ReqID, h, resp)
			if err != nil {
				continue
			}
			conn.WriteTo(reply, from)
		}
	}()
	return conn.LocalAddr()
}

// TestClientBatchV2PeerFallback: against a v2-only peer the batch frame
// goes unanswered and every entry must still succeed via per-VC resync.
func TestClientBatchV2PeerFallback(t *testing.T) {
	sw := switchfab.New()
	if err := sw.AddPort(1, 1e9); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if err := sw.Setup(uint16(i), 1, 1e6); err != nil {
			t.Fatal(err)
		}
	}
	addr := v2OnlyServer(t, sw)
	reg := metrics.NewRegistry()
	c, err := DialContext(ctx, addr.String(),
		WithBatchWindow(10*time.Millisecond),
		WithTimeout(50*time.Millisecond), WithRetries(0),
		WithClientMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	er16, _ := cell.EncodeRate16(2e6)
	want := cell.DecodeRate16(er16) // the rate as quantized on the wire
	done := make(chan error, 4)
	for i := 1; i <= 4; i++ {
		go func(vci uint16) {
			g, ok, err := c.Renegotiate(ctx, vci, 1e6, 2e6)
			if err == nil && (!ok || g != want) {
				err = errors.New("wrong grant")
			}
			done <- err
		}(uint16(i))
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if reg.Snapshot().Counters[MetricClientBatchFallbacks] == 0 {
		t.Error("fallback counter never moved against a v2-only peer")
	}
	for i := 1; i <= 4; i++ {
		if r, _ := sw.VCRate(uint16(i)); r != want {
			t.Errorf("VC %d rate %g, want %g", i, r, want)
		}
	}
}
