package rcbr_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"rcbr"
)

// TestMeshFacade drives the public multi-hop API end to end: topology
// building, VCID-native setup, min-along-path renegotiation with a
// counter-offer error, and teardown.
func TestMeshFacade(t *testing.T) {
	reg := rcbr.NewMetricsRegistry()
	ring := rcbr.NewEventLog(64)
	m := rcbr.NewMesh(
		rcbr.WithHopTimeout(2*time.Second),
		rcbr.WithMeshMetrics(reg),
		rcbr.WithMeshEvents(ring),
		rcbr.WithMeshDelayScale(0),
	)
	for _, name := range []string{"ingress", "core", "egress"} {
		if err := m.AddSwitch(name, rcbr.NewSwitch()); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.AddHost("sink"); err != nil {
		t.Fatal(err)
	}
	for _, l := range []struct {
		from, to string
		capacity float64
	}{
		{"ingress", "core", 10e6},
		{"core", "egress", 2e6}, // the bottleneck
		{"egress", "sink", 10e6},
	} {
		if err := m.AddLink(l.from, l.to, 1, l.capacity, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	hops, err := m.Route("ingress", "core", "egress", "sink")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	id := rcbr.MakeVCID(3, 42)
	p, err := m.SetupPath(ctx, id, hops, 500e3)
	if err != nil {
		t.Fatal(err)
	}
	if p.VCID() != id || p.Hops() != 3 {
		t.Fatalf("path: id=%s hops=%d", p.VCID(), p.Hops())
	}
	// 5 Mb/s exceeds the 2 Mb/s core->egress link: the path settles at
	// the bottleneck rate and surfaces the counter-offer.
	got, err := p.Renegotiate(ctx, 5e6)
	if !errors.Is(err, rcbr.ErrCapacity) {
		t.Fatalf("want ErrCapacity via RateError, got %v", err)
	}
	var re *rcbr.RateError
	if !errors.As(err, &re) {
		t.Fatalf("want *rcbr.RateError, got %T", err)
	}
	if got != 2e6 || re.Offered != 2e6 || re.HopName != "core" {
		t.Fatalf("counter-offer: got=%v err=%+v", got, re)
	}
	if !rcbr.IsCapacityError(err) {
		t.Error("IsCapacityError must recognize a mesh RateError")
	}
	if err := p.Teardown(ctx); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters[rcbr.MetricMeshSetups] != 1 ||
		snap.Counters[rcbr.MetricMeshPartialGrants] != 1 ||
		snap.Counters[rcbr.MetricMeshTeardowns] != 1 {
		t.Fatalf("mesh counters: %+v", snap.Counters)
	}
	kinds := make(map[string]bool)
	for _, e := range ring.Events() {
		kinds[e.Kind.String()] = true
	}
	for _, want := range []string{"path-setup", "path-partial", "path-teardown"} {
		if !kinds[want] {
			t.Errorf("event ring missing %q (have %v)", want, kinds)
		}
	}
}
