package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"

	"ironfs/internal/disk"
	"ironfs/internal/fs"
	"ironfs/internal/serve"
	"ironfs/internal/stat"
)

// serveConfig sizes the serve workload.
type serveConfig struct {
	volumes   int       // volumes, spread over the five file systems
	tenants   int       // tenants, spread over the volumes
	files     int       // working-set files per tenant
	fileBytes int       // bytes per file
	depth     int       // per-volume scheduler queue depth
	requests  int       // arrivals per ladder rate
	rates     []float64 // offered rates in ops per virtual second; rates[0] is nominal
	limit     disk.Duration
}

// defaultServe is the benchmark's serve workload: 1,024 tenants on 16
// volumes at queue depth 8, each tenant with two 16 KiB files (a volume's
// 64 tenants touch 512 blocks, well inside its 2048-block cache). Each
// ladder rate offers 6,000 Poisson arrivals to a server whose caches were
// warmed by reading every working-set file; a rate is sustained when the
// p99 latency from the due instant stays within one virtual second and
// the backlog left at the last arrival could be served within it.
var defaultServe = serveConfig{
	volumes: 16, tenants: 1024, files: 2, fileBytes: 16 << 10, depth: 8,
	requests: 6000, rates: []float64{150, 200, 250, 300, 350, 400}, limit: disk.Second,
}

// arrival is one scheduled request and the instant it was due.
type arrival struct {
	due disk.Duration
	req serve.Request
}

// serveWL drives serve.Server.Submit/Dispatch with the benchmark's own
// open-loop generator: Poisson arrivals at a fixed offered rate spread
// uniformly over tenants (equivalently, one Poisson stream per tenant),
// no rate caps, queues deep enough that nothing is refused.
type serveWL struct {
	cfg    serveConfig
	fsOf   []string            // volume → file system
	images []sparseImage       // volume → formatted image with the working set
	files  []map[string][]byte // volume → initial file contents
	ladder [][]arrival         // rate → schedule
	buf    []byte
}

func volumeID(v int) string { return fmt.Sprintf("v%02d", v) }

func tenantName(t int) string { return fmt.Sprintf("t%04d", t) }

func tenantFile(t, i int) string { return fmt.Sprintf("/t%04d_%d", t, i) }

func (w *serveWL) setup(seed int64) error {
	if w.cfg.volumes == 0 {
		w.cfg = defaultServe
	}
	cfg := w.cfg
	rng := rand.New(rand.NewSource(seed))
	w.fsOf = make([]string, cfg.volumes)
	w.images = make([]sparseImage, cfg.volumes)
	w.files = make([]map[string][]byte, cfg.volumes)
	for v := range w.fsOf {
		w.fsOf[v] = fsNames[v%len(fsNames)]
		w.files[v] = map[string][]byte{}
	}
	for t := 0; t < cfg.tenants; t++ {
		for i := 0; i < cfg.files; i++ {
			data := make([]byte, cfg.fileBytes)
			rng.Read(data)
			w.files[t%cfg.volumes][tenantFile(t, i)] = data
		}
	}
	for v := range w.fsOf {
		img, err := w.buildImage(v)
		if err != nil {
			return fmt.Errorf("volume %s (%s): %w", volumeID(v), w.fsOf[v], err)
		}
		w.images[v] = img
	}
	w.ladder = make([][]arrival, len(cfg.rates))
	for r, rate := range cfg.rates {
		w.ladder[r] = w.schedule(rng, rate)
	}
	if w.buf == nil {
		w.buf = make([]byte, 4096*int64(disk.DefaultGeometry().BlockSize))
	}
	return nil
}

// buildImage formats volume v and writes its tenants' working sets.
func (w *serveWL) buildImage(v int) (sparseImage, error) {
	name := w.fsOf[v]
	vol, err := fs.MountVolume(fs.MountOpts{FS: name, Opts: clientOptions(name)})
	if err != nil {
		return sparseImage{}, err
	}
	for t := v; t < w.cfg.tenants; t += w.cfg.volumes {
		for i := 0; i < w.cfg.files; i++ {
			p := tenantFile(t, i)
			if err := vol.FS.Create(p, 0o644); err != nil {
				return sparseImage{}, err
			}
			if _, err := vol.FS.Write(p, 0, w.files[v][p]); err != nil {
				return sparseImage{}, err
			}
		}
	}
	if err := vol.Unmount(); err != nil {
		return sparseImage{}, err
	}
	return newSparseImage(vol.Disk.Snapshot(), vol.Disk.BlockSize()), nil
}

// schedule draws one ladder rate's arrivals: exponential gaps at the
// aggregate rate, a uniform tenant, and an op from the mix — 45% 4 KiB
// reads, 30% 4 KiB writes (each with its own seeded buffer, since Submit
// keeps Request.Data until dispatch), 15% stat, 10% fsync.
func (w *serveWL) schedule(rng *rand.Rand, rate float64) []arrival {
	bs := disk.DefaultGeometry().BlockSize
	blocks := w.cfg.fileBytes / bs
	out := make([]arrival, w.cfg.requests)
	due := disk.Duration(0)
	for i := range out {
		due += max(disk.Duration(rng.ExpFloat64()/rate*float64(disk.Second)), disk.Microsecond)
		t := rng.Intn(w.cfg.tenants)
		req := serve.Request{Volume: volumeID(t % w.cfg.volumes), Tenant: tenantName(t), Path: tenantFile(t, rng.Intn(w.cfg.files))}
		switch p := rng.Intn(100); {
		case p < 45:
			req.Op, req.Off, req.Size = serve.OpRead, int64(rng.Intn(blocks)*bs), bs
		case p < 75:
			req.Op, req.Off = serve.OpWrite, int64(rng.Intn(blocks)*bs)
			req.Data = make([]byte, bs)
			rng.Read(req.Data)
		case p < 90:
			req.Op = serve.OpStat
		default:
			req.Op = serve.OpFsync
		}
		out[i] = arrival{due: due, req: req}
	}
	return out
}

// ladderPoint is one offered rate's outcome.
type ladderPoint struct {
	ops, asked, devWritten int64
	backlogMax, backlogEnd int
	// Latencies from the due instant, by op class, plus the stages.
	all, read, write, fsync *stat.Histogram
	queueWait, exec, lag    *stat.Histogram
}

func (w *serveWL) round(tr *tracer) (*roundOut, error) {
	reg := stat.NewRegistry()
	stat.SetDefault(reg)
	out := &roundOut{vt: map[string]float64{}, layer: map[string]float64{}}
	var asked, devWritten int64
	maxRate := 0.0
	var nominal *ladderPoint
	for r, rate := range w.cfg.rates {
		lp, err := w.runRate(r, &out.watch, tr)
		if err != nil {
			return nil, fmt.Errorf("rate %g: %w", rate, err)
		}
		if r == 0 {
			nominal = lp
		}
		runtime.GC() // drop this rate's server before the next is built
		out.ops += lp.ops
		asked += lp.asked
		devWritten += lp.devWritten
		if lp.all.Quantile(0.99) <= int64(w.cfg.limit) &&
			float64(lp.backlogEnd) <= rate*w.cfg.limit.Seconds() {
			maxRate = rate
		}
	}
	out.vt["vt_read_p99_ms"] = ms(nominal.read.Quantile(0.99))
	out.vt["vt_write_p99_ms"] = ms(nominal.write.Quantile(0.99))
	out.vt["vt_fsync_p50_ms"] = ms(nominal.fsync.Quantile(0.5))
	out.vt["vt_fsync_p99_ms"] = ms(nominal.fsync.Quantile(0.99))
	out.vt["vt_max_rate_ops"] = maxRate
	out.vt["write_amp"] = float64(devWritten) / float64(asked)
	out.vt["serve.queue_wait_p99_ms"] = ms(nominal.queueWait.Quantile(0.99))
	out.vt["serve.exec_p99_ms"] = ms(nominal.exec.Quantile(0.99))
	out.vt["serve.gen_lag_p99_ms"] = ms(nominal.lag.Quantile(0.99))
	out.vt["serve.backlog_max"] = float64(nominal.backlogMax)
	var mutations int64
	for _, a := range w.ladder {
		for _, x := range a {
			if x.req.Op == serve.OpWrite {
				mutations++
			}
		}
	}
	for k, v := range registryLayers(reg, mutations) {
		out.layer[k] = v
	}
	return out, nil
}

// runRate builds a fresh server from the images and offers ladder rate r.
func (w *serveWL) runRate(r int, watch *stopwatch, tr *tracer) (*ladderPoint, error) {
	clk := disk.NewClock()
	s := serve.New(clk)
	vols := make([]*fs.Volume, len(w.fsOf))
	shadow := map[string][]byte{}
	for v, name := range w.fsOf {
		w.images[v].fill(w.buf)
		vol, err := s.AddVolume(volumeID(v), fs.MountOpts{FS: name, Opts: clientOptions(name),
			Image: w.buf, QueueDepth: w.cfg.depth})
		if err != nil {
			return nil, err
		}
		vols[v] = vol
		for p, data := range w.files[v] {
			shadow[volumeID(v)+p] = append([]byte(nil), data...)
		}
	}
	for t := 0; t < w.cfg.tenants; t++ {
		if err := s.AddTenant(tenantName(t), serve.TenantConfig{QueueCap: w.cfg.requests}); err != nil {
			return nil, err
		}
	}
	// Warm every cache with the working set before the clock that times
	// requests starts.
	for v, vol := range vols {
		for _, p := range sortedKeys(w.files[v]) {
			if _, err := vol.FS.Read(p, 0, make([]byte, w.cfg.fileBytes)); err != nil {
				return nil, fmt.Errorf("warm %s: %w", p, err)
			}
		}
	}
	before := make([]disk.Stats, len(vols))
	for v, vol := range vols {
		before[v] = vol.Disk.Stats()
	}
	t0 := clk.Now()

	lp := &ladderPoint{all: stat.NewHistogram(), read: stat.NewHistogram(), write: stat.NewHistogram(),
		fsync: stat.NewHistogram(), queueWait: stat.NewHistogram(), exec: stat.NewHistogram(), lag: stat.NewHistogram()}
	sched := w.ladder[r]
	dueOf := make(map[*serve.Response]*arrival, len(sched))
	watch.start()
	next, pending := 0, 0
	for next < len(sched) || pending > 0 {
		now := clk.Now()
		for next < len(sched) && t0+sched[next].due <= now {
			a := &sched[next]
			req := a.req
			id := tr.begin("serve.submit", clk.Now())
			resp, err := s.Submit(&req)
			tr.end(id, clk.Now())
			if err != nil {
				watch.stop()
				return nil, fmt.Errorf("submit %d refused: %w", next, err)
			}
			dueOf[resp] = a
			next++
			pending++
			if next == len(sched) {
				lp.backlogEnd = pending
			}
		}
		if pending == 0 {
			clk.Advance(t0 + sched[next].due - now)
			continue
		}
		lp.backlogMax = max(lp.backlogMax, pending)
		id := tr.begin("serve.dispatch", clk.Now())
		resp, ok := s.Dispatch()
		tr.end(id, clk.Now())
		if !ok {
			watch.stop()
			return nil, fmt.Errorf("dispatch found no work with %d pending", pending)
		}
		pending--
		a := dueOf[resp]
		if err := w.complete(lp, shadow, t0, a, resp); err != nil {
			watch.stop()
			return nil, err
		}
	}
	watch.stop()
	if len(dueOf) != len(sched) || lp.ops != int64(len(sched)) {
		return nil, fmt.Errorf("%d completions for %d submissions", lp.ops, len(sched))
	}
	if err := s.Unmount(); err != nil {
		return nil, err
	}
	for v, vol := range vols {
		lp.devWritten += vol.Disk.Stats().Sub(before[v]).BytesWritten
		if err := verifyVolume(w.fsOf[v], vol.Disk, w.buf, volumeID(v), shadow); err != nil {
			return nil, fmt.Errorf("volume %s: %w", volumeID(v), err)
		}
	}
	return lp, nil
}

// complete checks one response against the shadow copy (updated in
// dispatch order) and records its latencies from the due instant.
func (w *serveWL) complete(lp *ladderPoint, shadow map[string][]byte, t0 disk.Duration, a *arrival, resp *serve.Response) error {
	req := &a.req
	if resp.Err != nil {
		return fmt.Errorf("%s %s on %s: %w", req.Op, req.Path, req.Volume, resp.Err)
	}
	if resp.Tenant != req.Tenant || resp.Volume != req.Volume || resp.Op != req.Op {
		return fmt.Errorf("response for %s/%s/%s answers %s/%s/%s", req.Tenant, req.Volume, req.Op, resp.Tenant, resp.Volume, resp.Op)
	}
	file := shadow[req.Volume+req.Path]
	switch req.Op {
	case serve.OpRead:
		if want := min(req.Size, len(file)-int(req.Off)); resp.N != want {
			return fmt.Errorf("read %s@%d returned %d bytes, want %d", req.Path, req.Off, resp.N, want)
		}
	case serve.OpWrite:
		if resp.N != len(req.Data) {
			return fmt.Errorf("write %s returned %d of %d bytes", req.Path, resp.N, len(req.Data))
		}
		copy(file[req.Off:], req.Data)
		lp.asked += int64(len(req.Data))
	case serve.OpStat:
		if resp.Info.Size != int64(len(file)) {
			return fmt.Errorf("stat %s: size %d, want %d", req.Path, resp.Info.Size, len(file))
		}
	}
	due := t0 + a.due
	lat := int64(resp.Done - due)
	lp.all.Observe(lat)
	switch req.Op {
	case serve.OpRead:
		lp.read.Observe(lat)
	case serve.OpWrite:
		lp.write.Observe(lat)
	case serve.OpFsync:
		lp.fsync.Observe(lat)
	}
	lp.queueWait.Observe(int64(resp.Started - due))
	lp.exec.Observe(int64(resp.Done - resp.Started))
	lp.lag.Observe(int64(resp.Queued - due))
	lp.ops++
	return nil
}

// verifyVolume checks an unmounted served volume: the consistency check
// passes and, after a remount, every working-set file equals the shadow.
// It works on a copy of the disk under a scratch metrics registry.
func verifyVolume(name string, raw *disk.Disk, buf []byte, id string, shadow map[string][]byte) error {
	prev := stat.SetDefault(stat.NewRegistry())
	defer stat.SetDefault(prev)
	if err := copyImage(buf, raw); err != nil {
		return err
	}
	v, err := fs.MountVolume(fs.MountOpts{FS: name, Opts: clientOptions(name), Blocks: raw.NumBlocks(),
		Image: buf, NoMount: true})
	if err != nil {
		return err
	}
	if err := fs.Check(name, v.Disk, v.Opts); err != nil {
		return fmt.Errorf("check after unmount: %w", err)
	}
	if err := v.FS.Mount(); err != nil {
		return fmt.Errorf("remount: %w", err)
	}
	for key, data := range shadow {
		if key[:len(id)] != id {
			continue
		}
		p := key[len(id):]
		buf := make([]byte, len(data)+1)
		n, err := v.FS.Read(p, 0, buf)
		if err != nil {
			return fmt.Errorf("read %s: %w", p, err)
		}
		if !bytes.Equal(buf[:n], data) {
			return fmt.Errorf("%s holds %d bytes that differ from the shadow copy", p, n)
		}
	}
	return nil
}

func (w *serveWL) control() error { return nil }
