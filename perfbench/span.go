package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ironfs/internal/disk"
	"ironfs/internal/trace"
)

// span is one timed call the benchmark made into a layer: its name, the
// span open when it began, and its host and virtual start and end.
type span struct {
	name         string
	parent       int32
	host0, host1 int64 // host ns since the tracer started: begin, end
	vt0, vt1     int64 // virtual ns: begin, end
}

// tracer records spans in memory. It is used from one goroutine: every
// traced call is made by the benchmark's single driving goroutine, and
// hunt's worker goroutines run inside one span, never open their own. A
// nil tracer records nothing.
type tracer struct {
	base  time.Time
	spans []span
	stack []int32
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span at virtual instant vt and returns its id.
func (t *tracer) begin(name string, vt disk.Duration) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent,
		host0: int64(time.Since(t.base)), vt0: int64(vt)})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id at virtual instant vt.
func (t *tracer) end(id int32, vt disk.Duration) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.host1 = int64(time.Since(t.base))
	s.vt1 = int64(vt)
	t.stack = t.stack[:len(t.stack)-1]
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	hostSelf, vtSelf   int64
	hostTotal, vtTotal int64
	hostDur            []int64
}

// summarize aggregates spans by name. A span's self time is its duration
// minus its children's durations.
func (t *tracer) summarize() map[string]*spanStats {
	childHost := make([]int64, len(t.spans))
	childVT := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childHost[s.parent] += s.host1 - s.host0
			childVT[s.parent] += s.vt1 - s.vt0
		}
	}
	out := map[string]*spanStats{}
	for i, s := range t.spans {
		st := out[s.name]
		if st == nil {
			st = &spanStats{}
			out[s.name] = st
		}
		st.hostTotal += s.host1 - s.host0
		st.vtTotal += s.vt1 - s.vt0
		st.hostSelf += s.host1 - s.host0 - childHost[i]
		st.vtSelf += s.vt1 - s.vt0 - childVT[i]
		st.hostDur = append(st.hostDur, s.host1-s.host0)
	}
	return out
}

// p50us is the median host duration of a span name in microseconds.
func (st *spanStats) p50us() float64 {
	if st == nil || len(st.hostDur) == 0 {
		return 0
	}
	d := append([]int64(nil), st.hostDur...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return float64(d[(len(d)-1)/2]) / 1e3
}

// layerMetrics derives the span-based per-layer metrics, per round.
func (t *tracer) layerMetrics(rounds float64) map[string]float64 {
	sum := t.summarize()
	m := map[string]float64{}
	// seconds sums one field of every span name with the prefix.
	seconds := func(prefix string, field func(*spanStats) int64) float64 {
		var ns int64
		for name, st := range sum {
			if strings.HasPrefix(name, prefix) {
				ns += field(st)
			}
		}
		return float64(ns) / 1e9 / rounds
	}
	hostSelf := func(st *spanStats) int64 { return st.hostSelf }
	m["vfs.host_self_s"] = seconds("vfs.", hostSelf)
	m["vfs.vt_self_s"] = seconds("vfs.", func(st *spanStats) int64 { return st.vtSelf })
	m["sched.host_self_s"] = seconds("sched.", hostSelf)
	m["sched.vt_s"] = seconds("sched.", func(st *spanStats) int64 { return st.vtTotal })
	m["disk.host_self_s"] = seconds("disk.", hostSelf)
	for _, op := range []string{"read", "write", "create", "unlink", "fsync", "stat"} {
		m["vfs."+op+".host_us_p50"] = sum["vfs."+op].p50us()
	}
	m["serve.submit.host_us_p50"] = sum["serve.submit"].p50us()
	m["serve.dispatch.host_us_p50"] = sum["serve.dispatch"].p50us()
	for name, st := range sum {
		for _, pre := range []string{"fingerprint.", "hunt."} {
			if strings.HasPrefix(name, pre) && strings.HasSuffix(name, ".run") {
				m[strings.TrimSuffix(name, ".run")+".host_s"] = float64(st.hostTotal) / 1e9 / rounds
			}
		}
	}
	return m
}

// writeSpans writes the recorded spans, one per line (id, parent, name,
// host start/end ns, virtual start/end ns), to
// .bench_build/spans/<workload>.tsv under the working directory, and the
// traced run's CPU profile beside them as <workload>.pprof.
func (t *tracer) writeSpans(workload string, prof *profile) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, workload+".pprof"), prof.buf.Bytes(), 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".tsv"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\n", i, s.parent, s.name, s.host0, s.host1, s.vt0, s.vt1)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// devShim is a pass-through disk.Device that records a span around every
// call. It forwards Clock and Tracer, so disk.ClockOf and trace.Of see
// through it exactly as they see through the device it wraps.
type devShim struct {
	inner disk.Device
	tr    *tracer
	clk   *disk.Clock
	// Span names, "<layer>.read" and so on.
	read, write, batch, barrier string
}

// newShim wraps inner; layer ("sched" or "disk") prefixes the span names.
func newShim(inner disk.Device, layer string, tr *tracer) *devShim {
	return &devShim{inner: inner, tr: tr, clk: disk.ClockOf(inner),
		read: layer + ".read", write: layer + ".write", batch: layer + ".batch", barrier: layer + ".barrier"}
}

func (s *devShim) ReadBlock(n int64, buf []byte) error {
	id := s.tr.begin(s.read, s.clk.Now())
	err := s.inner.ReadBlock(n, buf)
	s.tr.end(id, s.clk.Now())
	return err
}

func (s *devShim) WriteBlock(n int64, buf []byte) error {
	id := s.tr.begin(s.write, s.clk.Now())
	err := s.inner.WriteBlock(n, buf)
	s.tr.end(id, s.clk.Now())
	return err
}

func (s *devShim) WriteBatch(reqs []disk.Request) error {
	id := s.tr.begin(s.batch, s.clk.Now())
	err := s.inner.WriteBatch(reqs)
	s.tr.end(id, s.clk.Now())
	return err
}

func (s *devShim) Barrier() error {
	id := s.tr.begin(s.barrier, s.clk.Now())
	err := s.inner.Barrier()
	s.tr.end(id, s.clk.Now())
	return err
}

func (s *devShim) BlockSize() int        { return s.inner.BlockSize() }
func (s *devShim) NumBlocks() int64      { return s.inner.NumBlocks() }
func (s *devShim) Close() error          { return s.inner.Close() }
func (s *devShim) Clock() *disk.Clock    { return s.clk }
func (s *devShim) Tracer() *trace.Tracer { return trace.Of(s.inner) }

var _ disk.Device = (*devShim)(nil)
