package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"ironfs/internal/fingerprint"
	"ironfs/internal/fs"
	"ironfs/internal/hunt"
	"ironfs/internal/iron"
	"ironfs/internal/serve"
	"ironfs/internal/stat"
)

// smallClients is a clients workload small enough for a unit test.
var smallClients = clientsConfig{
	blocks: 20480, clients: 8, docs: 8, docBytes: 64 << 10,
	cycles: 4, minWrite: 4 << 10, maxWrite: 16 << 10, depth: 32,
}

// TestPassiveTracing runs a small clients round untraced (fs.MountVolume)
// and traced (the same tower with span shims) and requires identical
// virtual-clock metrics, disk and scheduler counters, and registry
// contents. It logs the traced run's throughput as a share of the
// untraced run's.
func TestPassiveTracing(t *testing.T) {
	w := &clientsWL{cfg: smallClients}
	if err := w.setup(7); err != nil {
		t.Fatal(err)
	}
	plain, err := w.round(nil)
	if err != nil {
		t.Fatal(err)
	}
	plainStacks, plainReg := w.stacks, stat.Default().Snapshot()

	tr := newTracer()
	traced, err := w.round(tr)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffMetrics(plain.vt, traced.vt); d != "" {
		t.Errorf("virtual-clock metrics differ: %s", d)
	}
	if !reflect.DeepEqual(plainStacks, w.stacks) {
		t.Errorf("device counters differ:\nuntraced %+v\ntraced   %+v", plainStacks, w.stacks)
	}
	if !reflect.DeepEqual(plainReg, stat.Default().Snapshot()) {
		t.Error("registry contents differ between the untraced and traced rounds")
	}
	if len(tr.spans) == 0 || len(tr.summarize()["disk.read"].hostDur) == 0 {
		t.Error("traced round recorded no disk spans")
	}
	rate := func(o *roundOut) float64 { return float64(o.ops) / o.watch.elapsed.Seconds() }
	t.Logf("traced throughput is %.3f of untraced (%d ops)", rate(traced)/rate(plain), traced.ops)
}

// TestReadCheckRejectsFlippedByte serves a document with one byte flipped
// and requires the read check to fail.
func TestReadCheckRejectsFlippedByte(t *testing.T) {
	w := &clientsWL{cfg: smallClients, docs: [][]byte{make([]byte, 64<<10)}}
	for i := range w.docs[0] {
		w.docs[0][i] = byte(i * 13)
	}
	v, err := fs.MountVolume(fs.MountOpts{FS: "ext3"})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.FS.Mkdir("/docs", 0o755); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), w.docs[0]...)
	bad[clChunk+5] ^= 0x40
	if err := v.FS.Create(docPath(0), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := v.FS.Write(docPath(0), 0, bad); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, clChunk)
	good := &clOp{kind: clRead, path: docPath(0), doc: 0, off: 0, size: clChunk}
	if err := w.exec(v.FS, good, buf); err != nil {
		t.Fatalf("intact chunk rejected: %v", err)
	}
	flipped := &clOp{kind: clRead, path: docPath(0), doc: 0, off: clChunk, size: clChunk}
	if err := w.exec(v.FS, flipped, buf); err == nil {
		t.Fatal("read check accepted a chunk with a flipped byte")
	}
}

// TestTreeCheckRejectsMissingFile removes one live client file before
// the remount check and requires it to fail.
func TestTreeCheckRejectsMissingFile(t *testing.T) {
	docs := [][]byte{[]byte("doc")}
	want := map[string]map[string][]byte{"/c00": {"/c00/f00": []byte("one"), "/c00/f01": []byte("two")}}
	v, err := fs.MountVolume(fs.MountOpts{FS: "jfs"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"/docs", "/c00"} {
		if err := v.FS.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	files := map[string][]byte{docPath(0): docs[0], "/c00/f00": []byte("one"), "/c00/f01": []byte("two")}
	for _, p := range sortedKeys(files) {
		if err := v.FS.Create(p, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := v.FS.Write(p, 0, files[p]); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkTree(v.FS, docs, want); err != nil {
		t.Fatalf("intact tree rejected: %v", err)
	}
	if err := v.FS.Unlink("/c00/f01"); err != nil {
		t.Fatal(err)
	}
	if err := checkTree(v.FS, docs, want); err == nil {
		t.Fatal("tree check accepted a tree missing a live file")
	}
}

// TestHuntCheckRejectsLoss fabricates a loss verdict on a target that
// honours barriers and requires the hunt check to fail, and requires the
// positive-control check to reject a clean result.
func TestHuntCheckRejectsLoss(t *testing.T) {
	clean := &hunt.TargetResult{Target: "ext3", Seqs: huntSeqs, States: 10, OK: 8, Detected: 2}
	if err := checkHunt([]*hunt.TargetResult{clean}, huntSeqs); err != nil {
		t.Fatalf("clean result rejected: %v", err)
	}
	lossy := *clean
	lossy.OK, lossy.LossSilent = 7, 1
	if err := checkHunt([]*hunt.TargetResult{&lossy}, huntSeqs); err == nil {
		t.Fatal("hunt check accepted a loss verdict on ext3")
	}
	miscounted := *clean
	miscounted.States = 11
	if err := checkHunt([]*hunt.TargetResult{&miscounted}, huntSeqs); err == nil {
		t.Fatal("hunt check accepted states that do not equal the verdict sum")
	}
	if err := checkFlagged(clean); err == nil {
		t.Fatal("positive control accepted an unflagged result")
	}
}

// syntheticFingerprint builds one fingerprint result per target with one
// scenario per cell, every cell inapplicable except those that make the
// paper's findings hold, and ixt3 with detectedAndRecovered fired
// scenarios in which it both detects and recovers.
func syntheticFingerprint(detectedAndRecovered int) ([]fingerprint.Target, []*fingerprint.Result) {
	targets := fingerprint.Targets()
	var results []*fingerprint.Result
	for _, tg := range targets {
		r := &fingerprint.Result{Target: tg.Name}
		n := 0
		for _, wl := range fingerprint.WorkloadLabels() {
			for _, b := range tg.Blocks {
				for _, f := range []iron.FaultClass{iron.ReadFailure, iron.WriteFailure, iron.Corruption} {
					s := fingerprint.Scenario{Workload: wl, Block: b, Fault: f}
					switch {
					case tg.Name == "ixt3" && n < detectedAndRecovered:
						s.Applicable, s.Fired = true, 1
						s.Detection.Add(iron.DRedundancy)
						s.Recovery.Add(iron.RRedundancy)
						n++
					case tg.Name == "reiserfs" && f == iron.WriteFailure && b != "data":
						s.Applicable, s.Fired = true, 1
						s.Detection.Add(iron.DErrorCode)
						s.Recovery.Add(iron.RStop)
					case tg.Name == "ext3" && f == iron.WriteFailure:
						s.Applicable, s.Fired = true, 1
					}
					r.Scenarios = append(r.Scenarios, s)
				}
			}
		}
		results = append(results, r)
	}
	return targets, results
}

// TestFingerprintCheckRejects200 requires more than 200 detected-and-
// recovered ixt3 scenarios: 201 passes, 200 fails.
func TestFingerprintCheckRejects200(t *testing.T) {
	if err := checkFingerprint(syntheticFingerprint(201)); err != nil {
		t.Fatalf("201 detected-and-recovered scenarios rejected: %v", err)
	}
	if err := checkFingerprint(syntheticFingerprint(200)); err == nil {
		t.Fatal("fingerprint check accepted 200 detected-and-recovered ixt3 scenarios")
	}
}

// TestServeCheckRejectsError feeds the response check a response that
// carries an error.
func TestServeCheckRejectsError(t *testing.T) {
	w := &serveWL{cfg: defaultServe}
	lp := &ladderPoint{all: stat.NewHistogram(), read: stat.NewHistogram(), write: stat.NewHistogram(),
		fsync: stat.NewHistogram(), queueWait: stat.NewHistogram(), exec: stat.NewHistogram(), lag: stat.NewHistogram()}
	shadow := map[string][]byte{"v00/t0000_0": make([]byte, 8192)}
	a := &arrival{due: 5, req: serve.Request{Volume: "v00", Tenant: "t0000", Op: serve.OpRead, Path: "/t0000_0", Size: 4096}}
	ok := &serve.Response{Tenant: "t0000", Volume: "v00", Op: serve.OpRead, N: 4096, Queued: 5, Started: 6, Done: 9}
	if err := w.complete(lp, shadow, 0, a, ok); err != nil {
		t.Fatalf("good response rejected: %v", err)
	}
	failed := *ok
	failed.Err = &serve.RouteError{Volume: "v00", Err: serve.ErrVolumeUnavailable}
	if err := w.complete(lp, shadow, 0, a, &failed); !errors.Is(err, serve.ErrVolumeUnavailable) {
		t.Fatalf("response check returned %v for a response carrying an error", err)
	}
}

// TestBenchmarkJSONMatches requires BENCHMARK.json to list exactly the
// workloads and metrics this program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadOrder) {
		t.Errorf("workloads %v, want %v", names, workloadOrder)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s %s, want %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndMetrics)
	same("per_layer", b.PerLayer, perLayerMetrics)
}
