// Command perfbench is the repository's benchmark. It runs one workload
// through the program's public APIs, checks every output, and prints one
// JSON result line:
//
//	go run . --workload clients --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off; with --trace 1 a separate traced run reports the per-layer
// metrics (spans recorded around the benchmark's own calls into each layer,
// plus a CPU profile). --workload all runs every workload in turn, and
// --repeat N reruns a workload N times on consecutive seeds and prints the
// spread of every metric. See README.md for what each number means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"ironfs/internal/stat"
)

// workload is one benchmark input set. setup builds everything a round
// needs from the seed and may run several times (the last result is
// kept); round runs one whole round of operations, recording spans when
// tr is non-nil; control runs the checks that sit outside the timed phase.
type workload interface {
	setup(seed int64) error
	round(tr *tracer) (*roundOut, error)
	control() error
}

// roundOut is what one round reports. vt holds the virtual-clock metrics,
// which must repeat exactly in every round of a run; layer holds the
// round's per-layer counters. An operation that fails is a failed check
// (the round returns an error), so no round reports failed operations.
type roundOut struct {
	ops   int64
	watch stopwatch
	vt    map[string]float64
	layer map[string]float64
}

var workloads = map[string]func() workload{
	"fingerprint": func() workload { return &fingerprintWL{} },
	"crashhunt":   func() workload { return &crashhuntWL{} },
	"clients":     func() workload { return &clientsWL{} },
	"serve":       func() workload { return &serveWL{} },
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"fingerprint", "crashhunt", "clients", "serve"}

// setupRuns is how many times set-up runs; setup_s is their median.
const setupRuns = 5

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "all", "workload: fingerprint, crashhunt, clients, serve or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured time per run (whole rounds; at least one)")
	traced := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	repeat := flag.Int("repeat", 0, "rerun the workload N times on consecutive seeds and print metric spreads")
	flag.Parse()

	if *repeat > 0 {
		os.Exit(repeatMode(*name, *seed, *seconds, *traced, *repeat))
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *traced))
	}
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := run(*name, mk(), *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if res != nil {
		printJSON(res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *name, err)
		os.Exit(1)
	}
}

// run sets up and measures one workload. A non-nil result with a non-nil
// error is a completed run whose outputs failed a check.
func run(name string, w workload, seed int64, budget time.Duration, traced bool) (*result, error) {
	// A fresh registry before any stack is built: every handle the
	// workload's layers resolve is ours alone.
	stat.SetDefault(stat.NewRegistry())
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		runtime.GC() // start each set-up from the same heap state
		t0 := cpuTime()
		if err := w.setup(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, (cpuTime() - t0).Seconds())
	}
	runtime.GC()

	var res *result
	var err error
	if traced {
		res, err = measureTraced(name, w, budget)
	} else {
		res, err = measure(w, budget)
		if res != nil {
			res.Metrics["setup_s"] = value{median(setups), "s"}
		}
	}
	if err != nil {
		if res == nil {
			return nil, err
		}
		res.Correct = false
		return res, err
	}
	if cerr := w.control(); cerr != nil {
		res.Correct = false
		return res, fmt.Errorf("control: %w", cerr)
	}
	return res, nil
}

// rounds runs whole rounds until the budget is spent (at least one). Every
// round must report the same virtual-clock metrics as the first.
func rounds(w workload, budget time.Duration, tr *tracer) ([]*roundOut, error) {
	var outs []*roundOut
	start := time.Now()
	for len(outs) == 0 || time.Since(start) < budget {
		out, err := w.round(tr)
		if err != nil {
			return outs, err
		}
		if len(outs) > 0 {
			if d := diffMetrics(outs[0].vt, out.vt); d != "" {
				return outs, fmt.Errorf("round %d virtual-clock metrics differ from round 0: %s", len(outs), d)
			}
		}
		outs = append(outs, out)
	}
	return outs, nil
}

// measure is the untraced run: it reports the end-to-end metrics.
func measure(w workload, budget time.Duration) (*result, error) {
	outs, err := rounds(w, budget, nil)
	res := &result{Correct: err == nil, Metrics: map[string]value{}}
	var watch stopwatch
	for _, o := range outs {
		res.Attempted += o.ops
		watch.add(o.watch)
	}
	if res.Attempted == 0 {
		return nil, err
	}
	res.Metrics["host_ops_per_s"] = value{float64(res.Attempted) / watch.elapsed.Seconds(), "op/s"}
	res.Metrics["alloc_bytes_per_op"] = value{float64(watch.alloc) / float64(res.Attempted), "B/op"}
	return res, err
}

// measureTraced is the traced run: one untraced reference round, then
// traced rounds under a CPU profile. It reports every per-layer metric
// (zero where a layer has no work on this workload), requires the traced
// rounds' virtual-clock metrics to equal the reference round's, and
// reports its overhead as the ratio of traced to untraced throughput.
func measureTraced(name string, w workload, budget time.Duration) (*result, error) {
	ref, err := w.round(nil)
	if err != nil {
		return nil, fmt.Errorf("reference round: %w", err)
	}
	tr := newTracer()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	gc0 := gcCycles()
	outs, rerr := rounds(w, budget, tr)
	gcs := gcCycles() - gc0
	cpu, perr := prof.stop()
	if rerr == nil && perr != nil {
		rerr = perr
	}
	res := &result{Correct: rerr == nil, Metrics: map[string]value{}}
	for _, m := range perLayerMetrics {
		res.Metrics[m.name] = value{0, m.unit}
	}
	if len(outs) == 0 {
		return nil, rerr
	}
	if d := diffMetrics(ref.vt, outs[0].vt); d != "" && rerr == nil {
		rerr = fmt.Errorf("traced virtual-clock metrics differ from the untraced run: %s", d)
	}
	n := float64(len(outs))
	var watch stopwatch
	for _, o := range outs {
		res.Attempted += o.ops
		watch.add(o.watch)
	}
	set := func(k string, v float64) {
		m, ok := res.Metrics[k]
		if !ok {
			panic("perfbench: metric " + k + " is not in the per-layer list")
		}
		m.Value = v
		res.Metrics[k] = m
	}
	// Counters are per round: every round does the same work.
	for k, v := range outs[0].layer {
		set(k, v)
	}
	for k, v := range outs[0].vt {
		set(k, v)
	}
	for k, v := range tr.layerMetrics(n) {
		set(k, v)
	}
	for k, v := range cpu {
		if _, ok := res.Metrics[k]; ok {
			set(k, v/n)
		}
	}
	set("runtime.gc_cycles", float64(gcs)/n)
	set("runtime.peak_rss_mb", peakRSSMiB())
	tracedRate := float64(res.Attempted) / watch.elapsed.Seconds()
	set("trace.host_ops_ratio", tracedRate/(float64(ref.ops)/ref.watch.elapsed.Seconds()))
	if err := tr.writeSpans(name, prof); err != nil && rerr == nil {
		rerr = err
	}
	return res, rerr
}

// diffMetrics names the first key whose value differs between a and b.
func diffMetrics(a, b map[string]float64) string {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		va, oka := a[k]
		vb, okb := b[k]
		if !oka || !okb || va != vb && !(math.IsNaN(va) && math.IsNaN(vb)) {
			return fmt.Sprintf("%s: %v vs %v", k, va, vb)
		}
	}
	return ""
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
