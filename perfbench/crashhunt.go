package main

import (
	"fmt"
	"runtime"

	"ironfs/internal/disk"
	"ironfs/internal/fingerprint"
	"ironfs/internal/hunt"
	"ironfs/internal/stat"
)

const (
	huntSeqs    = 100 // seeded sample of sequences per target
	huntMaxOps  = 3   // sequence length bound
	huntWorkers = 2   // hunt.Run workers, capped at the CPU count
)

// crashhuntWL runs hunt.Run on the five targets that honour barriers,
// over a seeded sample of sequences of length ≤ 3 under the default
// crash-state policy. One op is one graded crash state.
type crashhuntWL struct {
	seed    int64
	workers int
	targets []fingerprint.HuntTarget
}

// setup selects the targets and smoke-tests each one on its own small
// disk geometry.
func (w *crashhuntWL) setup(seed int64) error {
	w.seed = seed
	w.workers = min(huntWorkers, runtime.NumCPU())
	w.targets = w.targets[:0]
	for _, t := range fingerprint.HuntTargets() {
		if t.Target.Name == "ext3-nobarrier" {
			continue
		}
		w.targets = append(w.targets, t)
		d, err := disk.New(t.Target.DiskBlocks, disk.DefaultGeometry(), nil)
		if err != nil {
			return err
		}
		if err := t.Target.Mkfs(d); err != nil {
			return fmt.Errorf("%s: mkfs: %w", t.Target.Name, err)
		}
		fsys := t.Target.New(d, nil)
		if err := fsys.Mount(); err != nil {
			return fmt.Errorf("%s: mount: %w", t.Target.Name, err)
		}
		if err := smoke(fsys, seed); err != nil {
			return fmt.Errorf("%s: %w", t.Target.Name, err)
		}
		if err := t.Target.Check(d); err != nil {
			return fmt.Errorf("%s: check: %w", t.Target.Name, err)
		}
	}
	return nil
}

func (w *crashhuntWL) round(tr *tracer) (*roundOut, error) {
	reg := stat.NewRegistry()
	stat.SetDefault(reg)
	out := &roundOut{}
	var results []*hunt.TargetResult
	var seqs, points int
	for _, t := range w.targets {
		cfg := hunt.Config{
			Bounds:  hunt.Bounds{MaxOps: huntMaxOps, MaxSeqs: huntSeqs, Seed: w.seed},
			Workers: w.workers,
		}
		out.watch.start()
		id := tr.begin("hunt."+t.Target.Name+".run", 0)
		r, err := hunt.Run(t.Target, cfg)
		tr.end(id, 0)
		out.watch.stop()
		if err != nil {
			return nil, err
		}
		results = append(results, r)
		out.ops += int64(r.States)
		seqs += r.Seqs
		points += r.Points
	}
	if err := checkHunt(results, huntSeqs); err != nil {
		return out, err
	}
	out.layer = registryLayers(reg, 0)
	out.layer["hunt.seqs"] = float64(seqs)
	out.layer["hunt.points"] = float64(points)
	out.layer["hunt.states_per_seq"] = float64(out.ops) / float64(seqs)
	return out, nil
}

// control is the positive control: ext3 without barriers, over the full
// length-≤2 enumeration at the default seed, must be flagged (§6.2).
func (w *crashhuntWL) control() error {
	t, err := fingerprint.HuntTargetByName("ext3-nobarrier")
	if err != nil {
		return err
	}
	r, err := hunt.Run(t.Target, hunt.Config{Bounds: hunt.Bounds{MaxOps: 2, MaxSeqs: -1}, Workers: w.workers})
	if err != nil {
		return err
	}
	return checkFlagged(r)
}

// checkHunt requires every target's crash states to equal the sum of its
// verdict counts, the sampled sequence count to be seqs, and no loss or
// structural verdict on a target that honours barriers.
func checkHunt(results []*hunt.TargetResult, seqs int) error {
	for _, r := range results {
		sum := r.OK + r.Detected + r.Refused + r.StructDetected + r.StructSilent + r.LossDetected + r.LossSilent
		if sum != r.States {
			return fmt.Errorf("hunt %s: %d states but verdicts sum to %d", r.Target, r.States, sum)
		}
		if r.Seqs != seqs {
			return fmt.Errorf("hunt %s: %d sequences, want %d", r.Target, r.Seqs, seqs)
		}
		if bad := r.StructDetected + r.StructSilent + r.LossDetected + r.LossSilent; bad > 0 || len(r.Bugs) > 0 {
			return fmt.Errorf("hunt %s: %d loss/structural verdicts, %d bugs on a target that honours barriers: %s",
				r.Target, bad, len(r.Bugs), r)
		}
	}
	return nil
}

// checkFlagged requires the hunt to have found a loss or structural
// violation.
func checkFlagged(r *hunt.TargetResult) error {
	if r.StructDetected+r.StructSilent+r.LossDetected+r.LossSilent == 0 || len(r.Bugs) == 0 {
		return fmt.Errorf("hunt %s: positive control not flagged: %s", r.Target, r)
	}
	return nil
}
