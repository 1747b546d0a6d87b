package netproto

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcbr/internal/switchfab"
)

// wireDelay is the simulated one-way signaling delay injected by the proxy
// in front of the switch. Renegotiation RTTs are dominated by propagation
// and switch-CPU service time, not by loopback syscalls, so the benchmark
// models a metro-area RTT and measures how well the signaling plane keeps
// requests in flight across it. The serial baseline pays the delay once per
// request; the concurrent plane overlaps the 32 sources' requests.
const wireDelay = 300 * time.Microsecond

// BenchmarkSignalThroughput drives 32 concurrent sources through a
// loopback-UDP switch behind a wireDelay shaping proxy and reports granted
// renegotiations per second. The "serial" variant reproduces the
// pre-concurrency signaling plane — a single server handler and one request
// in flight at a time on the client socket — and is the baseline the
// concurrent variants are measured against; "workers=N" runs the
// worker-pool server with the multiplexed client fully parallel.
func BenchmarkSignalThroughput(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchSignalThroughput(b, 1, true) })
	b.Run("workers=1", func(b *testing.B) { benchSignalThroughput(b, 1, false) })
	b.Run("workers=8", func(b *testing.B) { benchSignalThroughput(b, 8, false) })
}

func benchSignalThroughput(b *testing.B, workers int, serialize bool) {
	const sources = 32
	sw := switchfab.New()
	if err := sw.AddPort(1, 1e12); err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", sw, WithWorkers(workers), WithQueue(1024))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve() //nolint:errcheck

	proxy := newShapingProxy(b, srv.Addr().String(), nil,
		func(int) time.Duration { return wireDelay })
	cl, err := DialContext(ctx, proxy.Addr(), WithTimeout(2*time.Second), WithRetries(3))
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < sources; i++ {
		if err := cl.Setup(ctx, uint16(i+1), 1, 64e3); err != nil {
			b.Fatal(err)
		}
	}

	// serialMu reimposes the old one-request-at-a-time client discipline.
	var serialMu sync.Mutex
	var grants atomic.Int64
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < sources; s++ {
		n := b.N / sources
		if s < b.N%sources {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(vci uint16, n int) {
			defer wg.Done()
			cur := 64e3
			for k := 0; k < n; k++ {
				target := 64e3 + float64(k%7)*16e3
				if serialize {
					serialMu.Lock()
				}
				granted, ok, err := cl.Renegotiate(ctx, vci, cur, target)
				if serialize {
					serialMu.Unlock()
				}
				if err != nil {
					b.Error(err)
					return
				}
				if ok {
					grants.Add(1)
				}
				cur = granted
			}
		}(uint16(s+1), n)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	if got := grants.Load(); got != int64(b.N) {
		b.Fatalf("grants = %d, want %d (denials on an uncontended link?)", got, b.N)
	}
	b.ReportMetric(float64(grants.Load())/elapsed.Seconds(), "grants/s")
}
