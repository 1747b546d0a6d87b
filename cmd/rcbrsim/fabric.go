package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"rcbr/internal/cell"
	"rcbr/internal/switchfab"
)

// fabricRun drives renegotiation load straight into a switchfab.Switch —
// no sockets, no codec — to measure the fabric itself: how per-RM cost
// behaves as the established-VC population grows, sharded vs. the legacy
// single lock, singleton vs. batched. This is the load generator behind the
// EXPERIMENTS.md scaling curve.
func fabricRun(args []string) error {
	fs := flag.NewFlagSet("fabric", flag.ExitOnError)
	vcsFlag := fs.String("vcs", "1,16384,65536,100000", "established-VC populations to sweep")
	shardsFlag := fs.String("shards", "1,32", "shard counts to sweep (1 = legacy single lock)")
	procs := fs.Int("procs", 0, "load-generator goroutines (0 = GOMAXPROCS)")
	ports := fs.Int("ports", 64, "output ports to stripe VCs over")
	batch := fs.Int("batch", 0, "coalesce K RM messages per HandleRMBatch call (0 = singleton HandleRM)")
	dur := fs.Duration("dur", 500*time.Millisecond, "measurement time per configuration")
	prof := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	vcsList, err := parseInts(*vcsFlag)
	if err != nil {
		return err
	}
	shardsList, err := parseInts(*shardsFlag)
	if err != nil {
		return err
	}
	if *batch < 0 || *batch > switchfab.DefaultShards*64 {
		return fmt.Errorf("bad batch size %d", *batch)
	}
	workers := *procs
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	stopProf, err := prof.start()
	if err != nil {
		return err
	}
	defer stopProf()

	mode := "singleton"
	if *batch > 0 {
		mode = fmt.Sprintf("batch=%d", *batch)
	}
	fmt.Printf("fabric: %d workers, %d ports, %s RM load, %s per point (GOMAXPROCS=%d)\n",
		workers, *ports, mode, *dur, runtime.GOMAXPROCS(0))
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "vcs\tshards\tops\tns/op\tMops/s")
	for _, vcs := range vcsList {
		for _, shards := range shardsList {
			ops, elapsed, err := fabricPoint(vcs, shards, *ports, workers, *batch, *dur)
			if err != nil {
				return err
			}
			nsPerOp := float64(elapsed.Nanoseconds()) / float64(ops)
			fmt.Fprintf(w, "%d\t%d\t%d\t%.1f\t%.2f\n",
				vcs, shards, ops, nsPerOp, float64(ops)/elapsed.Seconds()/1e6)
		}
	}
	return w.Flush()
}

// fabricPoint measures one (population, shard count) configuration and
// returns the RM messages processed and the wall time spent.
func fabricPoint(vcs, shards, ports, workers, batch int, dur time.Duration) (int64, time.Duration, error) {
	if vcs < 1 || shards < 1 || ports < 1 {
		return 0, 0, fmt.Errorf("bad configuration vcs=%d shards=%d ports=%d", vcs, shards, ports)
	}
	s := switchfab.New(switchfab.WithShards(shards))
	for p := 0; p < ports; p++ {
		if err := s.AddPort(p, 1e12); err != nil {
			return 0, 0, err
		}
	}
	for i := 0; i < vcs; i++ {
		id := switchfab.MakeVCID(uint8(i>>16), uint16(i))
		if err := s.SetupID(id, i%ports, 100e3); err != nil {
			return 0, 0, err
		}
	}

	var (
		ops  atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	start := time.Now()
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			// Each worker strides its own VC sequence; resyncs to the
			// current rate are idempotent, so the load never drifts.
			m := cell.RM{Resync: true, ER: 100e3}
			if batch == 0 {
				for i := wkr; !stop.Load(); i += workers {
					idx := i % vcs
					id := switchfab.MakeVCID(uint8(idx>>16), uint16(idx))
					h := cell.Header{VPI: id.VPI(), VCI: id.VCI()}
					if _, err := s.HandleRM(h, m); err != nil {
						panic(err) // established VC cannot fail
					}
					ops.Add(1)
				}
				return
			}
			items := make([]switchfab.RMItem, batch)
			out := make([]switchfab.RMItem, 0, batch)
			for i := wkr; !stop.Load(); i += workers * batch {
				for j := range items {
					idx := (i + j*workers) % vcs
					id := switchfab.MakeVCID(uint8(idx>>16), uint16(idx))
					items[j] = switchfab.RMItem{ID: id, M: m}
				}
				out = s.HandleRMBatch(items, out[:0])
				ops.Add(int64(len(items)))
			}
		}(wkr)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	return ops.Load(), time.Since(start), nil
}
