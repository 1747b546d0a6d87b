package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one operation share
// req; a span's parent is the span of its tree parent name in the same
// operation whose interval holds it.
type span struct {
	name       string
	req        int64
	start, end int64 // nanoseconds since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced passes run the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts a wall-clock reading to the tracer's time base.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.epoch)) }

func (t *tracer) record(name string, req, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, req: req, start: start, end: end})
	t.mu.Unlock()
}

// spanStats collects one span name's durations and self times.
type spanStats struct {
	dur, self samples
	selfSum   float64 // total self time, ns
}

// budget is the analyzed trace.
type budget struct {
	byName map[string]*spanStats
	// rootSum is the total duration of root spans, the base every share is
	// taken of.
	rootSum float64
	// overruns counts child spans with no parent span holding them.
	overruns int
}

// analyze nests each operation's spans by the tree (child name -> parent
// name, "" for a root) and computes every span's self time: its duration
// minus the part of its interval its children cover.
func analyze(spans []span, tree map[string]string) budget {
	b := budget{byName: map[string]*spanStats{}}
	idx := make([]int, len(spans))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		a, c := spans[idx[i]], spans[idx[j]]
		if a.req != c.req {
			return a.req < c.req
		}
		return a.start < c.start
	})
	for lo := 0; lo < len(idx); {
		hi := lo
		for hi < len(idx) && spans[idx[hi]].req == spans[idx[lo]].req {
			hi++
		}
		group := make([]span, 0, hi-lo)
		for _, i := range idx[lo:hi] {
			group = append(group, spans[i])
		}
		b.addGroup(group, tree)
		lo = hi
	}
	return b
}

// addGroup analyzes the spans of one operation, sorted by start.
func (b *budget) addGroup(group []span, tree map[string]string) {
	children := make([][][2]int64, len(group))
	for i, s := range group {
		parentName := tree[s.name]
		if parentName == "" {
			continue
		}
		p := -1
		for j, c := range group {
			if j != i && c.name == parentName && c.start <= s.start && s.end <= c.end {
				p = j
				break
			}
		}
		if p < 0 {
			b.overruns++
			continue
		}
		children[p] = append(children[p], [2]int64{s.start, s.end})
	}
	for i, s := range group {
		st := b.byName[s.name]
		if st == nil {
			st = &spanStats{}
			b.byName[s.name] = st
		}
		d := s.end - s.start
		self := d - covered(s.start, s.end, children[i])
		st.dur.add(time.Duration(d))
		st.self.add(time.Duration(self))
		st.selfSum += float64(self)
		if tree[s.name] == "" {
			b.rootSum += float64(d)
		}
	}
}

// covered returns how much of [lo, hi] the intervals cover, counting
// overlapping intervals once.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// spanMetric maps per-layer metric names to the span figure they report.
var spanMetrics = []struct {
	metric, span string
	self         bool
	q            float64
	scale        float64 // ns per reported unit
}{
	{"netproto.client.call_us.p50", "Client.Renegotiate", false, 0.5, 1e3},
	{"netproto.client.call_us.p99", "Client.Renegotiate", false, 0.99, 1e3},
	{"netproto.server.residence_us.p50", "server.residence", false, 0.5, 1e3},
	{"netproto.server.residence_us.p99", "server.residence", false, 0.99, 1e3},
	{"netproto.client.self_us.p50", "Client.Renegotiate", true, 0.5, 1e3},
	{"datapath.on_rate_change_ns.p50", "DataPlane.OnRateChange", false, 0.5, 1},
	{"switchfab.setup_ns.p50", "SetupID", false, 0.5, 1},
	{"switchfab.setup_ns.p99", "SetupID", false, 0.99, 1},
	{"switchfab.teardown_ns.p50", "TeardownID", false, 0.5, 1},
	{"switchfab.reneg_ns.p50", "RenegotiateID", false, 0.5, 1},
	{"admission.admit_call_ns.p50", "Admitter.AdmitCall", false, 0.5, 1},
	{"admission.admit_call_ns.p99", "Admitter.AdmitCall", false, 0.99, 1},
	{"admission.on_admit_ns.p50", "Admitter.OnAdmit", false, 0.5, 1},
	{"admission.on_depart_ns.p50", "Admitter.OnDepart", false, 0.5, 1},
	{"admission.on_rate_change_ns.p50", "Admitter.OnRateChange", false, 0.5, 1},
	{"switchfab.setup_self_ns.p50", "SetupID", true, 0.5, 1},
	{"datapath.add_vc_ns.p50", "DataPlane.OnSetup", false, 0.5, 1},
	{"datapath.remove_vc_ns.p50", "DataPlane.OnTeardown", false, 0.5, 1},
	{"mesh.cellpath.inject_ns.p50", "InjectStamped", false, 0.5, 1},
	{"mesh.cellpath.step_ns.p50", "Step", false, 0.5, 1},
	{"mesh.cellpath.step_ns.p99", "Step", false, 0.99, 1},
	{"mesh.path.renegotiate_us.p50", "Path.Renegotiate", false, 0.5, 1e3},
}

// spanLayerMetrics derives the span-based per-layer metrics present in b.
func spanLayerMetrics(b budget) map[string]float64 {
	out := map[string]float64{}
	for _, m := range spanMetrics {
		st := b.byName[m.span]
		if st == nil {
			continue
		}
		s := &st.dur
		if m.self {
			s = &st.self
		}
		out[m.metric] = s.quantile(m.q) / m.scale
	}
	return out
}

// printBudget prints each span's self time and its share of the traced
// operations' total time; the shares of one workload add up to 1 when every
// child nests in its parent.
func printBudget(out io.Writer, b budget, tree map[string]string, tracedP50, plainP50 float64) {
	fmt.Fprintf(out, "stage budget (traced op median %.3f us, untraced %.3f us, tracing overhead %+.1f%%):\n",
		tracedP50/1e3, plainP50/1e3, 100*(tracedP50/plainP50-1))
	fmt.Fprintf(out, "  %-26s %-22s %10s %12s %12s %8s\n", "span", "parent", "count", "self p50 us", "dur p50 us", "share")
	names := make([]string, 0, len(b.byName))
	for n := range b.byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		di, dj := depth(names[i], tree), depth(names[j], tree)
		if di != dj {
			return di < dj
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		st := b.byName[n]
		share := 0.0
		if b.rootSum > 0 {
			share = st.selfSum / b.rootSum
		}
		fmt.Fprintf(out, "  %-26s %-22s %10d %12.3f %12.3f %8.4f\n", n, tree[n], st.dur.n(),
			st.self.quantile(0.5)/1e3, st.dur.quantile(0.5)/1e3, share)
	}
}

func depth(name string, tree map[string]string) int {
	d := 0
	for p := tree[name]; p != "" && d < 16; p = tree[p] {
		d++
	}
	return d
}

// writeSpans writes one line per span: request, name, parent name, start
// and end in nanoseconds since the trace began.
func writeSpans(path string, spans []span, tree map[string]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "req\tname\tparent\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\n", s.req, s.name, tree[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
