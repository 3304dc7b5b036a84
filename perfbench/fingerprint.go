package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"ironfs/internal/fingerprint"
	"ironfs/internal/fs"
	"ironfs/internal/iron"
	"ironfs/internal/stat"
	"ironfs/internal/vfs"
)

// fingerprintWL runs fingerprint.Run on all five targets, all three fault
// classes, sticky faults, at the workload seed (which seeds the fault
// layer's corruption noise). One op is one (workload × block type ×
// fault) scenario.
type fingerprintWL struct {
	seed    int64
	targets []fingerprint.Target
}

// setup smoke-tests a fresh volume of every target (see smoke), so a
// round starts with every stack known to build, take writes and check
// clean.
func (w *fingerprintWL) setup(seed int64) error {
	w.seed = seed
	w.targets = fingerprint.Targets()
	for _, t := range w.targets {
		v, err := fs.MountVolume(t.MountOpts())
		if err != nil {
			return err
		}
		if err := smoke(v.FS, seed); err != nil {
			return fmt.Errorf("%s: %w", t.Name, err)
		}
		if err := fs.Check(v.Name, v.Disk, v.Opts); err != nil {
			return fmt.Errorf("%s: check: %w", t.Name, err)
		}
	}
	return nil
}

// smoke exercises a mounted file system: it creates a
// directory of files with seeded contents, fsyncs each, reads each back,
// removes half and unmounts.
func smoke(fsys vfs.FileSystem, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	if err := fsys.Mkdir("/smoke", 0o755); err != nil {
		return err
	}
	data := make([]byte, 8<<10)
	got := make([]byte, len(data))
	for i := 0; i < 32; i++ {
		p := fmt.Sprintf("/smoke/f%02d", i)
		rng.Read(data)
		if err := fsys.Create(p, 0o644); err != nil {
			return err
		}
		if _, err := fsys.Write(p, 0, data); err != nil {
			return err
		}
		if err := fsys.Fsync(p); err != nil {
			return err
		}
		if n, err := fsys.Read(p, 0, got); err != nil || !bytes.Equal(got[:n], data) {
			return fmt.Errorf("smoke read %s: %d bytes, %v", p, n, err)
		}
		if i%2 == 1 {
			if err := fsys.Unlink(p); err != nil {
				return err
			}
		}
	}
	return fsys.Unmount()
}

func (w *fingerprintWL) round(tr *tracer) (*roundOut, error) {
	reg := stat.NewRegistry()
	stat.SetDefault(reg)
	out := &roundOut{}
	var results []*fingerprint.Result
	var fired int
	for _, t := range w.targets {
		out.watch.start()
		id := tr.begin("fingerprint."+t.Name+".run", 0)
		r, err := fingerprint.Run(t, fingerprint.Config{Seed: w.seed})
		tr.end(id, 0)
		out.watch.stop()
		if err != nil {
			return nil, err
		}
		results = append(results, r)
		out.ops += int64(len(r.Scenarios))
		for _, s := range r.Scenarios {
			fired += s.Fired
		}
	}
	if err := checkFingerprint(w.targets, results); err != nil {
		return out, err
	}
	out.layer = registryLayers(reg, 0)
	out.layer["fingerprint.scenarios"] = float64(out.ops)
	out.layer["fingerprint.fired"] = float64(fired)
	return out, nil
}

func (w *fingerprintWL) control() error { return nil }

// checkFingerprint checks the campaign's shape and the paper's findings:
// one scenario per (workload × block type × fault class) on each target;
// ixt3 detects and recovers more than 200 fired scenarios (§6.2);
// ReiserFS stops on metadata write failures (§5.2); most ext3 write
// failures go undetected (§5.1); and none of the four commodity file
// systems shows redundancy-based detection or recovery, JFS's secondary
// superblock excepted (§5).
func checkFingerprint(targets []fingerprint.Target, results []*fingerprint.Result) error {
	if len(results) != len(targets) {
		return fmt.Errorf("fingerprint: %d results for %d targets", len(results), len(targets))
	}
	faults := []iron.FaultClass{iron.ReadFailure, iron.WriteFailure, iron.Corruption}
	byName := map[string]*fingerprint.Result{}
	for i, t := range targets {
		r := results[i]
		type cell struct {
			w string
			b iron.BlockType
			f iron.FaultClass
		}
		seen := map[cell]int{}
		for _, s := range r.Scenarios {
			seen[cell{s.Workload, s.Block, s.Fault}]++
		}
		for _, wl := range fingerprint.WorkloadLabels() {
			for _, b := range t.Blocks {
				for _, f := range faults {
					if n := seen[cell{wl, b, f}]; n != 1 {
						return fmt.Errorf("fingerprint %s: %d scenarios for %s/%s/%s, want 1", t.Name, n, wl, b, f)
					}
				}
			}
		}
		if want := len(fingerprint.WorkloadLabels()) * len(t.Blocks) * len(faults); len(r.Scenarios) != want {
			return fmt.Errorf("fingerprint %s: %d scenarios, want %d", t.Name, len(r.Scenarios), want)
		}
		byName[t.Name] = r
	}
	fired := func(name string, keep func(fingerprint.Scenario) bool) []fingerprint.Scenario {
		var out []fingerprint.Scenario
		if r := byName[name]; r != nil {
			for _, s := range r.Scenarios {
				if s.Applicable && s.Fired > 0 && keep(s) {
					out = append(out, s)
				}
			}
		}
		return out
	}

	both := fired("ixt3", func(s fingerprint.Scenario) bool {
		return !s.Detection.Empty() && !s.Recovery.Empty()
	})
	if len(both) <= 200 {
		return fmt.Errorf("fingerprint ixt3: %d fired scenarios detected and recovered, want more than 200", len(both))
	}

	meta := fired("reiserfs", func(s fingerprint.Scenario) bool {
		return s.Fault == iron.WriteFailure && s.Block != "data"
	})
	stops := 0
	for _, s := range meta {
		if s.Recovery.Has(iron.RStop) {
			stops++
		}
	}
	if len(meta) == 0 || stops*4 < len(meta)*3 {
		return fmt.Errorf("fingerprint reiserfs: %d of %d metadata write failures stop (RStop), want at least three quarters", stops, len(meta))
	}

	wf := fired("ext3", func(s fingerprint.Scenario) bool { return s.Fault == iron.WriteFailure })
	zero := 0
	for _, s := range wf {
		if s.Detection.Empty() {
			zero++
		}
	}
	if len(wf) == 0 || zero*2 <= len(wf) {
		return fmt.Errorf("fingerprint ext3: %d of %d write failures undetected (DZero), want most", zero, len(wf))
	}

	for _, name := range []string{"ext3", "reiserfs", "jfs", "ntfs"} {
		red := fired(name, func(s fingerprint.Scenario) bool {
			// JFS's secondary superblock is the paper's one exception.
			jfsSuper := name == "jfs" && s.Block == "super"
			return s.Detection.Has(iron.DRedundancy) || s.Recovery.Has(iron.RRedundancy) && !jfsSuper
		})
		if len(red) > 0 {
			s := red[0]
			return fmt.Errorf("fingerprint %s: %d scenarios use redundancy (first %s/%s/%s)", name, len(red), s.Workload, s.Block, s.Fault)
		}
	}
	return nil
}
