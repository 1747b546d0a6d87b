// Command perfbench is the repository benchmark. One invocation runs one
// named workload against the program's public Go APIs, checks that every
// output is correct, and prints as its last line a JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1):
//
//	bash perfbench/run.sh --workload reneg-udp --seed 1 --seconds 10 --trace 0
//
// Every component is built with its defaults, the way cmd/rcbrd builds it:
// a metrics registry and event log attached, and a datapath.Forwarder as the
// switch's data plane. No tuning option is set, so a change to a default is
// measured as it ships. The workload inputs (traces, renegotiation streams,
// the call mix) are generated here from --seed; the program receives only the
// generated inputs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of each workload sees; every workload reports
// every one of them, each defined on that workload's unit of work (see
// BENCHMARK.json and the workload files).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ok_frac", "ratio"},
	{"max_rss_mb", "MiB"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
}

// perLayer is reported by the traced run of every workload. A layer the
// workload does not exercise reads 0. The operation's tail percentiles lead
// the list: too noisy on a shared 2-CPU host to gate like the median, they
// are reported here, from the untraced pass, without a bound.
var perLayer = []metricDef{
	{"op.p90_us", "us"},
	{"op.p99_us", "us"},
	{"gen.late_us.p99", "us"},
	{"netproto.client.call_us.p50", "us"},
	{"netproto.client.call_us.p99", "us"},
	{"netproto.server.residence_us.p50", "us"},
	{"netproto.server.residence_us.p99", "us"},
	{"netproto.client.self_us.p50", "us"},
	{"switchfab.reneg_us.mean", "us"},
	{"datapath.on_rate_change_ns.p50", "ns"},
	{"netproto.server.dropped_frac", "ratio"},
	{"netproto.client.retries_per_req", "ratio"},
	{"process.cpu_us_per_req", "us"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cycles_per_kop", "count"},
	{"switchfab.grant_frac", "ratio"},
	{"admission.admit_frac", "ratio"},
	{"switchfab.setup_ns.p50", "ns"},
	{"switchfab.setup_ns.p99", "ns"},
	{"switchfab.teardown_ns.p50", "ns"},
	{"switchfab.reneg_ns.p50", "ns"},
	{"admission.admit_call_ns.p50", "ns"},
	{"admission.admit_call_ns.p99", "ns"},
	{"admission.on_admit_ns.p50", "ns"},
	{"admission.on_depart_ns.p50", "ns"},
	{"admission.on_rate_change_ns.p50", "ns"},
	{"switchfab.setup_self_ns.p50", "ns"},
	{"datapath.add_vc_ns.p50", "ns"},
	{"datapath.remove_vc_ns.p50", "ns"},
	{"mesh.cellpath.inject_ns.p50", "ns"},
	{"mesh.cellpath.step_ns.p50", "ns"},
	{"mesh.cellpath.step_ns.p99", "ns"},
	{"datapath.cells_per_sweep", "cells"},
	{"datapath.policed", "count"},
	{"datapath.overflow", "count"},
	{"datapath.ring_in_max_cells", "cells"},
	{"datapath.ring_out_max_cells", "cells"},
	{"mesh.path.renegotiate_us.p50", "us"},
	{"trellis.nodes_expanded", "count"},
	{"trellis.ns_per_node", "ns"},
	{"trellis.max_frontier", "count"},
	{"trace.overhead_frac", "ratio"},
	{"trace.child_overruns", "count"},
}

// config is one invocation's arguments.
type config struct {
	seed    uint64
	seconds float64
}

// outcome is one measured pass of a workload.
type outcome struct {
	setup     []float64 // seconds per program set-up
	ops       samples   // per-operation wall time
	opsPerSec float64
	attempted int64
	failed    int64
	checks    []check
	// extra holds workload-specific figures printed by name and unit.
	extra []figure
	log   []string
	// layer holds per-layer figures read from counters and registries;
	// span-derived figures are added from the trace.
	layer map[string]float64
	// maxRSS is the peak resident memory, in MiB, read when the workload's
	// measured phase ends; 0 reads it when the run ends.
	maxRSS float64
	// allocBytes and gcCycles cover the measured phase; opsForAlloc is
	// the operation count they are divided by.
	allocBytes, gcCycles, opsForAlloc float64
}

type figure struct {
	name  string
	value float64
	unit  string
}

type check struct {
	name string
	ok   bool
	info string
}

func (o *outcome) checkf(ok bool, name, format string, args ...any) {
	o.checks = append(o.checks, check{name: name, ok: ok, info: fmt.Sprintf(format, args...)})
}

func (o *outcome) logf(format string, args ...any) {
	o.log = append(o.log, fmt.Sprintf(format, args...))
}

func (o *outcome) figure(name string, value float64, unit string) {
	o.extra = append(o.extra, figure{name, value, unit})
}

// pass is one measured pass of a workload.
type pass struct {
	tr      *tracer // nil for an untraced pass
	seconds float64
	// full marks the untraced end-to-end run: it sets the program up
	// setups times and runs every phase. The passes of a traced run set up
	// once and run the workload's main phase only.
	full   bool
	setups int
}

func (p pass) reps() int {
	if p.full {
		return p.setups
	}
	return 1
}

type workload struct {
	name    string
	summary string
	// tree maps each span name to its parent's; root names map to "".
	tree map[string]string
	// setups is how many times the untraced run sets the program up;
	// setup_s is their median. A cheap set-up is repeated more, so the
	// median of one run is steady.
	setups  int
	measure func(cfg config, p pass) (*outcome, error)
}

var workloads = []workload{renegWorkload, churnWorkload, cellpathWorkload, optimizeWorkload}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer pass")
	spansOut := fs.String("spans", "", "traced run: also write every span to this file, tab-separated")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds}
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	fmt.Fprintf(out, "meta: %s\n", metaJSON(cfg, w.name, *traced == 1))
	fmt.Fprintf(out, "workload %s: %s\n", w.name, w.summary)

	var res result
	var err error
	if *traced == 1 {
		res, err = tracedRun(out, w, cfg, *spansOut)
	} else {
		res, err = untracedRun(out, w, cfg)
	}
	if err != nil {
		out.Flush()
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// result is the last line of output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func untracedRun(out io.Writer, w *workload, cfg config) (result, error) {
	o, err := w.measure(cfg, pass{seconds: cfg.seconds, full: true, setups: w.setups})
	if err != nil {
		return result{}, err
	}
	e2e := endToEndValues(o)
	printOutcome(out, o)
	fmt.Fprintln(out, "end-to-end:")
	for _, m := range endToEnd {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", m.name, e2e[m.name], m.unit)
	}
	return makeResult(o, endToEnd, e2e), nil
}

// tracedRun measures an untraced pass and a traced pass of half the time
// each, so the tracing overhead is the difference between the two passes'
// operation medians on the same host, in the same process.
func tracedRun(out io.Writer, w *workload, cfg config, spansOut string) (result, error) {
	half := cfg.seconds / 2
	plain, err := w.measure(cfg, pass{seconds: half})
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	o, err := w.measure(cfg, pass{tr: tr, seconds: half})
	if err != nil {
		return result{}, err
	}
	// Figures read from counters and clocks come from the untraced pass;
	// the trace adds the span-derived ones.
	layer := map[string]float64{}
	for _, src := range []map[string]float64{o.layer, plain.layer} {
		for k, v := range src {
			layer[k] = v
		}
	}
	layer["op.p90_us"] = plain.ops.quantile(0.9) / 1e3
	layer["op.p99_us"] = plain.ops.quantile(0.99) / 1e3
	if plain.opsForAlloc > 0 {
		layer["go.alloc_bytes_per_op"] = plain.allocBytes / plain.opsForAlloc
		layer["go.gc_cycles_per_kop"] = plain.gcCycles / plain.opsForAlloc * 1000
	}
	st := analyze(tr.spans, w.tree)
	for k, v := range spanLayerMetrics(st) {
		layer[k] = v
	}
	plainP50 := plain.ops.quantile(0.5)
	tracedP50 := o.ops.quantile(0.5)
	if plainP50 > 0 {
		layer["trace.overhead_frac"] = tracedP50/plainP50 - 1
	}
	layer["trace.child_overruns"] = float64(st.overruns)
	o.checkf(st.overruns == 0, "spans nest", "%d child spans outside their parent", st.overruns)
	o.checks = append(o.checks, plain.checks...)
	o.attempted += plain.attempted
	o.failed += plain.failed

	printOutcome(out, o)
	fmt.Fprintf(out, "trace: %d spans\n", len(tr.spans))
	if spansOut != "" {
		if err := writeSpans(spansOut, tr.spans, w.tree); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "trace: spans written to %s\n", spansOut)
	}
	printBudget(out, st, w.tree, tracedP50, plainP50)
	fmt.Fprintln(out, "per-layer:")
	for _, m := range perLayer {
		fmt.Fprintf(out, "  %-36s %14.6g %s\n", m.name, layer[m.name], m.unit)
	}
	return makeResult(o, perLayer, layer), nil
}

func endToEndValues(o *outcome) map[string]float64 {
	ok := 0.0
	if o.attempted > 0 {
		ok = float64(o.attempted-o.failed) / float64(o.attempted)
	}
	rss := o.maxRSS
	if rss == 0 {
		rss = maxRSSMiB()
	}
	return map[string]float64{
		"setup_s":    median(o.setup),
		"ok_frac":    ok,
		"max_rss_mb": rss,
		"ops_per_s":  o.opsPerSec,
		"op_p50_us":  o.ops.quantile(0.5) / 1e3,
	}
}

func makeResult(o *outcome, defs []metricDef, values map[string]float64) result {
	res := result{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]valueUnit{}}
	for _, c := range o.checks {
		res.Correct = res.Correct && c.ok
	}
	if res.Attempted < 1 {
		res.Correct = false
		res.Attempted = 1
		res.Failed = 1
	}
	for _, m := range defs {
		res.Metrics[m.name] = valueUnit{Value: values[m.name], Unit: m.unit}
	}
	return res
}

func printOutcome(out io.Writer, o *outcome) {
	for _, l := range o.log {
		fmt.Fprintf(out, "  %s\n", l)
	}
	fmt.Fprintf(out, "operations: %d attempted, %d failed; set-up median of %d: %.6g s (min %.6g, max %.6g)\n",
		o.attempted, o.failed, len(o.setup), median(o.setup), slices.Min(o.setup), slices.Max(o.setup))
	fmt.Fprintf(out, "op latency: %s\n", o.ops.summary())
	fmt.Fprintln(out, "workload figures:")
	for _, f := range o.extra {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", f.name, f.value, f.unit)
	}
	fmt.Fprintln(out, "checks:")
	for _, c := range o.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(out, "  %s %-28s %s\n", status, c.name, c.info)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocSnapshot reads the heap counters a measured phase is charged with.
func allocSnapshot() (totalAlloc, numGC float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc), float64(ms.NumGC)
}

func metaJSON(cfg config, name string, traced bool) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	meta := map[string]any{
		"workload":   name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"traced":     traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit,
	}
	b, _ := json.Marshal(meta) // plain map of strings and numbers
	return string(b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
