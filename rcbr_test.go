package rcbr_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"rcbr"
)

// TestPublicAPIEndToEnd exercises the whole public surface the way a
// downstream user would: trace -> offline schedule -> verification, online
// heuristic, a switch over UDP, and admission control.
func TestPublicAPIEndToEnd(t *testing.T) {
	tr := rcbr.NewStarWarsTrace(1, 2400)
	if tr.Len() != 2400 {
		t.Fatalf("trace len %d", tr.Len())
	}

	const buffer = 300e3
	levels := rcbr.UniformLevels(48e3, 5e6, 16)
	sch, st, err := rcbr.Optimize(tr, rcbr.OptimizeOptions{
		Levels:         levels,
		BufferBits:     buffer,
		BufferGridBits: buffer / 2048,
		Cost:           rcbr.CostModel{Alpha: 3e5, Beta: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cost <= 0 || sch.Renegotiations() == 0 {
		t.Fatalf("degenerate schedule: %+v", st)
	}
	if !sch.Feasible(tr, buffer) {
		t.Fatal("optimal schedule infeasible")
	}

	hres, err := rcbr.RunHeuristic(tr, buffer, rcbr.DefaultHeuristicParams(64e3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if hres.Schedule.Renegotiations() == 0 {
		t.Fatal("heuristic never renegotiated")
	}

	// A switch over UDP loopback.
	sw := rcbr.NewSwitch()
	if err := sw.AddPort(1, 10e6); err != nil {
		t.Fatal(err)
	}
	srv, err := rcbr.NewSignalServer("127.0.0.1:0", sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve() //nolint:errcheck
	ctx := context.Background()
	cl, err := rcbr.DialSwitchContext(ctx, srv.Addr().String(),
		rcbr.WithSignalTimeout(200*time.Millisecond), rcbr.WithSignalRetries(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Setup(ctx, 1, 1, sch.Segments[0].Rate); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cl.Renegotiate(ctx, 1, sch.Segments[0].Rate, 1e6); err != nil || !ok {
		t.Fatalf("renegotiate: %v ok=%v", err, ok)
	}
	if err := cl.Teardown(ctx, 1); err != nil {
		t.Fatal(err)
	}

	// Admission control over the schedule's descriptor.
	dist := rcbr.ScheduleDescriptor(sch, levels)
	pk, err := rcbr.NewPerfectAdmission(dist, 20*sch.MeanRate(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !pk.Admit(0, dist.X[0]) {
		t.Fatal("empty system rejected")
	}
	if _, err := rcbr.NewMemorylessAdmission(levels, 1e7, 1e-3); err != nil {
		t.Fatal(err)
	}
	if _, err := rcbr.NewMemoryAdmission(levels, 1e7, 1e-3); err != nil {
		t.Fatal(err)
	}

	// A Source stepping under the granted schedule.
	src := rcbr.NewSource(buffer, tr.SlotSeconds(), sch.Segments[0].Rate)
	rates := sch.Rates()
	for i := 0; i < tr.Len(); i++ {
		src.SetRate(rates[i])
		src.Step(float64(tr.FrameBits[i]))
	}
	if src.LostBits() != 0 {
		t.Fatalf("source lost %v bits under the optimal schedule", src.LostBits())
	}
}

// TestObservabilityAndErrors exercises the redesigned surface: a shared
// metrics registry across switch, server, and client; the event trace; and
// sentinel errors holding their identity across the UDP signaling path.
func TestObservabilityAndErrors(t *testing.T) {
	reg := rcbr.NewMetricsRegistry()
	ring := rcbr.NewEventLog(32)
	sw := rcbr.NewSwitch(rcbr.WithSwitchMetrics(reg), rcbr.WithSwitchEvents(ring))
	if err := sw.AddPort(1, 1e6); err != nil {
		t.Fatal(err)
	}
	srv, err := rcbr.NewSignalServer("127.0.0.1:0", sw, nil, rcbr.WithSignalServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve() //nolint:errcheck

	ctx := context.Background()
	cl, err := rcbr.DialSwitchContext(ctx, srv.Addr().String(),
		rcbr.WithSignalTimeout(time.Second), rcbr.WithSignalRetries(2),
		rcbr.WithSignalMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Setup(ctx, 5, 1, 600e3); err != nil {
		t.Fatal(err)
	}
	// Oversubscribing the 1 Mb/s port must surface as a capacity error even
	// though it happened on the far side of a UDP socket.
	err = cl.Setup(ctx, 6, 1, 600e3)
	if err == nil || !rcbr.IsCapacityError(err) {
		t.Fatalf("oversubscribed setup: %v (IsCapacityError=false)", err)
	}
	if !errors.Is(err, rcbr.ErrCapacity) || !errors.Is(err, rcbr.ErrRemote) {
		t.Fatalf("error %v lost its wire identity", err)
	}
	if rcbr.IsTimeout(err) {
		t.Fatal("capacity error misclassified as timeout")
	}
	if err := cl.Teardown(ctx, 5); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if snap.Counters["switch.setups"] != 1 || snap.Counters["switch.setup_rejects"] != 1 ||
		snap.Counters["switch.teardowns"] != 1 {
		t.Fatalf("switch counters: %v", snap.Counters)
	}
	if snap.Gauges["switch.port.1.reserved_bps"] != 0 {
		t.Fatalf("port gauge = %v after teardown", snap.Gauges["switch.port.1.reserved_bps"])
	}
	if snap.Counters["signal.server.error_replies"] != 1 {
		t.Fatalf("server counters: %v", snap.Counters)
	}
	if ring.Total() != 3 { // setup, setup-reject, teardown
		t.Fatalf("events recorded = %d, want 3", ring.Total())
	}

	// A context already expired fails fast and classifies as a timeout.
	expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	if err := cl.Setup(expired, 7, 1, 1e3); !rcbr.IsTimeout(err) {
		t.Fatalf("expired context: %v", err)
	}
}

func TestGenerateTraceCustomConfig(t *testing.T) {
	cfg := rcbr.TraceConfig{
		Frames:   1200,
		FPS:      30,
		MeanRate: 1e6,
		GOP:      "IBBP",
		IWeight:  2.5, PWeight: 1.2, BWeight: 0.7,
		Classes: []rcbr.SceneClass{
			{Name: "calm", Multiplier: 0.8, MeanDurSec: 5, Weight: 0.7, GOPFactor: 1},
			{Name: "busy", Multiplier: 1.5, MeanDurSec: 5, Weight: 0.3, GOPFactor: 0.8},
		},
		ARCoeff: 0.7,
		ARSigma: 0.1,
	}
	tr, err := rcbr.GenerateTrace(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if tr.FPS != 30 || tr.Len() != 1200 {
		t.Fatalf("trace %v/%d", tr.FPS, tr.Len())
	}
	mean := tr.MeanRate()
	if mean < 0.98e6 || mean > 1.02e6 {
		t.Fatalf("mean %v", mean)
	}
}

func TestGridLevels(t *testing.T) {
	lv := rcbr.GridLevels(64e3, 1e6)
	if lv[0] != 64e3 {
		t.Fatalf("levels %v", lv[:2])
	}
}

func TestFacadeExtensions(t *testing.T) {
	tr := rcbr.NewStarWarsTrace(2, 4800)

	// Token bucket and burstiness curve.
	tb := rcbr.NewTokenBucket(1e6, 1e5)
	if !tb.Take(5e4) {
		t.Fatal("take failed")
	}
	d := rcbr.BurstinessDepth(tr, 1.2*tr.MeanRate())
	if d <= 0 {
		t.Fatalf("burstiness depth %v", d)
	}

	// Advance reservations.
	cal := rcbr.NewCalendar(10e6)
	sch, _, err := rcbr.Optimize(tr, rcbr.OptimizeOptions{
		Levels:         rcbr.UniformLevels(48e3, 5e6, 10),
		BufferBits:     300e3,
		BufferGridBits: 300e3 / 2048,
		Cost:           rcbr.CostModel{Alpha: 1e6, Beta: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cal.Book(0, sch); err != nil {
		t.Fatal(err)
	}

	// Model fitting.
	model, err := rcbr.FitTraceModel(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(model.ClassMeans) < 2 {
		t.Fatalf("model classes %v", model.ClassMeans)
	}
}

// TestSwitchMemoryAdmitter wires the live memory-based MBAC into a switch
// through the facade: a LifecycleAdmitter installed with WithAdmitter sees
// setups and teardowns, and IsCapacityError still collapses its denials.
func TestSwitchMemoryAdmitter(t *testing.T) {
	adm, err := rcbr.NewSwitchMemoryAdmitter([]float64{64e3, 4e6}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	var _ rcbr.LifecycleAdmitter = adm // the switch gets lifecycle callbacks

	sw := rcbr.NewSwitch(rcbr.WithAdmitter(adm), rcbr.WithSwitchShards(4))
	if err := sw.AddPort(1, 10e6); err != nil {
		t.Fatal(err)
	}
	for id := rcbr.VCID(1); id <= 2; id++ {
		if err := sw.SetupID(id, 1, 4e6); err != nil {
			t.Fatal(err)
		}
	}
	if got := adm.PortCalls(1); got != 2 {
		t.Fatalf("admitter tracks %d calls, want 2", got)
	}
	time.Sleep(time.Millisecond) // accrue dwell history at 4 Mb/s per call
	if err := sw.SetupID(3, 1, 64e3); !rcbr.IsCapacityError(err) {
		t.Fatalf("third call: err = %v, want an admission denial", err)
	}
	for id := rcbr.VCID(1); id <= 2; id++ {
		if err := sw.TeardownID(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := adm.PortCalls(1); got != 0 {
		t.Fatalf("admitter tracks %d calls after drain, want 0", got)
	}
}
