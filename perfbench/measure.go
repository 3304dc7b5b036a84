package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ironfs/internal/disk"
)

// stopwatch accumulates host CPU time and heap allocation over the timed
// sections of a round; set-up and checks between sections are excluded.
type stopwatch struct {
	elapsed time.Duration
	alloc   uint64
	t0      time.Duration
	a0      uint64
}

// timedLabels marks the goroutine (and any goroutine it starts) as inside
// a timed section, so the traced run's CPU profile can leave set-up and
// checks out of the cpu.* metrics.
var timedLabels = pprof.WithLabels(context.Background(), pprof.Labels("phase", "timed"))

func (s *stopwatch) start() {
	pprof.SetGoroutineLabels(timedLabels)
	s.a0, s.t0 = allocBytes(), cpuTime()
}

func (s *stopwatch) stop() {
	s.elapsed += cpuTime() - s.t0
	s.alloc += allocBytes() - s.a0
	pprof.SetGoroutineLabels(context.Background())
}

// cpuTime is the CPU time the process has used, user plus system, over
// all its threads. Host timings use it rather than wall time: on a shared
// virtual machine, wall time also counts the time other tenants held the
// CPU, which varies from run to run far more than the work measured.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (s *stopwatch) add(o stopwatch) {
	s.elapsed += o.elapsed
	s.alloc += o.alloc
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// allocBytes is the Go heap's cumulative allocation count in bytes.
func allocBytes() uint64 {
	metrics.Read(runtimeSamples[:1])
	return runtimeSamples[0].Value.Uint64()
}

// gcCycles is the cumulative number of completed GC cycles.
func gcCycles() uint64 {
	metrics.Read(runtimeSamples[1:])
	return runtimeSamples[1].Value.Uint64()
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns Q1 and Q3 by the same rule as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(j int) float64 {
		m := float64(n + 1)
		pos := float64(j) * m / 4
		i := int(math.Floor(pos))
		frac := pos - float64(i)
		if i < 1 {
			return s[0]
		}
		if i >= n {
			return s[n-1]
		}
		return s[i-1] + frac*(s[i]-s[i-1])
	}
	return at(1), at(3)
}

// geomean of xs (all positive).
func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ms converts virtual nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / float64(disk.Millisecond) }

// splitKey inverts stat.Key: name{a=b,c=d} → name, a, b, c, d.
func splitKey(key string) (string, []string) {
	i := strings.IndexByte(key, '{')
	if i < 0 {
		return key, nil
	}
	var labels []string
	for _, kv := range strings.Split(strings.TrimSuffix(key[i+1:], "}"), ",") {
		k, v, _ := strings.Cut(kv, "=")
		labels = append(labels, k, v)
	}
	return key[:i], labels
}

// runAll runs every workload in its own process and prints each result,
// then one summary line whose metrics are prefixed by workload name.
func runAll(seed int64, seconds float64, traced int) int {
	sum := result{Correct: true, Metrics: map[string]value{}}
	for _, name := range workloadOrder {
		res, err := child(name, seed, seconds, traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			sum.Correct = false
			continue
		}
		fmt.Printf("%-12s correct=%t attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
		for _, k := range sortedKeys(res.Metrics) {
			fmt.Printf("  %-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
			sum.Metrics[name+"."+k] = res.Metrics[k]
		}
		sum.Correct = sum.Correct && res.Correct
		sum.Attempted += res.Attempted
		sum.Failed += res.Failed
	}
	printJSON(sum)
	if !sum.Correct {
		return 1
	}
	return 0
}

// repeatMode reruns one workload (or all) n times on seeds seed..seed+n-1,
// each in a fresh process, and prints per metric the median, quartiles,
// the quartile spread as a share of the median (what a bound is checked
// against) and the largest distance of any run from the median.
func repeatMode(name string, seed int64, seconds float64, traced, n int) int {
	names := []string{name}
	if name == "all" {
		names = workloadOrder
	}
	code := 0
	for _, wl := range names {
		vals := map[string][]float64{}
		units := map[string]string{}
		var failShare []float64
		for i := 0; i < n; i++ {
			res, err := child(wl, seed+int64(i), seconds, traced)
			if err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", wl, seed+int64(i), err)
				code = 1
				continue
			}
			failShare = append(failShare, float64(res.Failed)/float64(res.Attempted))
			for k, v := range res.Metrics {
				vals[k] = append(vals[k], v.Value)
				units[k] = v.Unit
			}
		}
		fmt.Printf("%s: %d runs, seeds %d..%d, failed share %v\n", wl, n, seed, seed+int64(n)-1, failShare)
		fmt.Printf("  %-28s %12s %12s %12s %8s %8s %s\n", "metric", "median", "q1", "q3", "iqr/med", "max/med", "unit")
		for _, k := range sortedKeys(vals) {
			xs := vals[k]
			med := median(xs)
			q1, q3 := quartiles(xs)
			worst := 0.0
			for _, x := range xs {
				worst = math.Max(worst, math.Abs(x-med))
			}
			fmt.Printf("  %-28s %12.6g %12.6g %12.6g %8.4f %8.4f %s\n", k, med, q1, q3,
				(q3-q1)/med, worst/med, units[k])
		}
	}
	return code
}

// child runs one workload in a fresh process of this binary and parses
// its result line.
func child(name string, seed int64, seconds float64, traced int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(traced))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	var last string
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("parse result: %w", err)
	}
	if runErr != nil {
		return &res, runErr
	}
	return &res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
