package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"ironfs/internal/disk"
	"ironfs/internal/fs"
	"ironfs/internal/sched"
	"ironfs/internal/stat"
	"ironfs/internal/vfs"
)

// clientsConfig sizes the clients workload.
type clientsConfig struct {
	blocks   int64 // disk size per volume
	clients  int   // modelled clients per file system
	docs     int   // shared documents
	docBytes int   // bytes per document
	cycles   int   // churn cycles per client
	minWrite int   // smallest write payload
	maxWrite int   // largest write payload
	depth    int   // scheduler queue depth
}

// defaultClients is the benchmark's clients workload: 64 clients per file
// system reading a 72 × 256 KiB document set (4608 blocks, 2.25× the
// 2048-block buffer cache) beside create/write/fsync/unlink churn that
// keeps at most two live files per client. 64 client directories, 128
// live files and the documents fit NTFS's MFT (320 records at 20480
// blocks) and JFS's 1024-inode table. Payloads start at 4 KiB: files
// small enough for a ReiserFS tail (2048 bytes or less), written into
// interleaved client directories, overflow a leaf and panic the volume
// ("block header free space invalid"), so they are left out. Read-ahead
// is off: a prefetched block that is dirty in the buffer cache is
// replaced by its stale on-disk copy, which loses directory entries on
// ReiserFS and JFS on some seeds.
var defaultClients = clientsConfig{
	blocks: 20480, clients: 64, docs: 72, docBytes: 256 << 10,
	cycles: 16, minWrite: 4 << 10, maxWrite: 16 << 10, depth: 32,
}

const (
	clChunk     = 16 << 10 // bytes per Read call
	clScan      = 4        // Read calls per sequential scan
	clWindow    = 2        // live churn files per client
	clReadCPU   = 50 * disk.Microsecond
	clMutateCPU = 100 * disk.Microsecond
)

type clKind int

const (
	clMkdir clKind = iota
	clRead
	clStat
	clCreate
	clWrite
	clFsync
	clUnlink
)

var clSpanNames = [...]string{
	clMkdir: "vfs.mkdir", clRead: "vfs.read", clStat: "vfs.stat", clCreate: "vfs.create",
	clWrite: "vfs.write", clFsync: "vfs.fsync", clUnlink: "vfs.unlink",
}

// clOp is one planned client call. Reads name their document so the
// bytes returned can be checked against the generated content.
type clOp struct {
	kind clKind
	path string
	doc  int
	off  int64
	size int
	data []byte
}

// clientsWL drives every file system in turn with the benchmark's own
// deterministic single-threaded dispatcher: the next op always belongs to
// the client furthest behind in virtual time (lowest id on ties).
type clientsWL struct {
	cfg   clientsConfig
	docs  [][]byte
	plans [][]clOp
	// want is each client directory's final contents.
	want map[string]map[string][]byte
	// asked is the payload bytes one pass over one file system writes.
	asked  int64
	images map[string]sparseImage
	// stacks holds each file system's device counters after its last
	// measured pass, for the passive-tracing check.
	stacks map[string]stackStats
	buf    []byte // full-size image scratch, reused across mounts
}

// clientOptions are the mount options per file system: no atime updates
// where supported, and every IRON mechanism on ixt3 (Table 6's last row).
func clientOptions(name string) fs.Options {
	o := fs.Options{NoAtime: true}
	if name == "ixt3" {
		o.Mc, o.Dc, o.Mr, o.Dp, o.Tc = true, true, true, true, true
	}
	if fs.Validate(name, o) != nil {
		o.NoAtime = false
	}
	return o
}

func docPath(d int) string { return fmt.Sprintf("/docs/d%03d", d) }

func (w *clientsWL) setup(seed int64) error {
	if w.cfg.clients == 0 {
		w.cfg = defaultClients
	}
	cfg := w.cfg
	rng := rand.New(rand.NewSource(seed))
	w.docs = make([][]byte, cfg.docs)
	for d := range w.docs {
		w.docs[d] = make([]byte, cfg.docBytes)
		rng.Read(w.docs[d])
	}
	w.plans = make([][]clOp, cfg.clients)
	w.want = map[string]map[string][]byte{}
	w.asked = 0
	for c := range w.plans {
		dir := fmt.Sprintf("/c%02d", c)
		live := map[string][]byte{}
		plan := []clOp{{kind: clMkdir, path: dir}}
		scans := cfg.docBytes / (clScan * clChunk)
		for i := 0; i < cfg.cycles; i++ {
			d := rng.Intn(cfg.docs)
			off := int64(rng.Intn(scans) * clScan * clChunk)
			for k := 0; k < clScan; k++ {
				plan = append(plan, clOp{kind: clRead, path: docPath(d), doc: d, off: off + int64(k*clChunk), size: clChunk})
			}
			plan = append(plan, clOp{kind: clStat, path: docPath(rng.Intn(cfg.docs))})
			if i >= clWindow {
				old := fmt.Sprintf("%s/f%02d", dir, i-clWindow)
				plan = append(plan, clOp{kind: clUnlink, path: old})
				delete(live, old)
			}
			p := fmt.Sprintf("%s/f%02d", dir, i)
			data := make([]byte, cfg.minWrite+rng.Intn(cfg.maxWrite-cfg.minWrite+1))
			rng.Read(data)
			w.asked += int64(len(data))
			live[p] = data
			plan = append(plan,
				clOp{kind: clCreate, path: p},
				clOp{kind: clWrite, path: p, data: data},
				clOp{kind: clFsync, path: p})
		}
		w.plans[c] = plan
		w.want[dir] = live
	}
	w.images = map[string]sparseImage{}
	for _, name := range fsNames {
		img, err := w.buildImage(name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		w.images[name] = img
		runtime.GC()
	}
	if w.buf == nil {
		w.buf = make([]byte, cfg.blocks*int64(disk.DefaultGeometry().BlockSize))
	}
	return nil
}

// buildImage formats a volume, writes the document set and unmounts.
func (w *clientsWL) buildImage(name string) (sparseImage, error) {
	v, err := fs.MountVolume(fs.MountOpts{FS: name, Opts: clientOptions(name), Blocks: w.cfg.blocks})
	if err != nil {
		return sparseImage{}, err
	}
	if err := v.FS.Mkdir("/docs", 0o755); err != nil {
		return sparseImage{}, err
	}
	for d, data := range w.docs {
		if err := v.FS.Create(docPath(d), 0o644); err != nil {
			return sparseImage{}, err
		}
		for off := 0; off < len(data); off += 64 << 10 {
			if _, err := v.FS.Write(docPath(d), int64(off), data[off:off+64<<10]); err != nil {
				return sparseImage{}, err
			}
		}
	}
	if err := v.Unmount(); err != nil {
		return sparseImage{}, err
	}
	return newSparseImage(v.Disk.Snapshot(), v.Disk.BlockSize()), nil
}

// copyImage copies raw's blocks into buf through the debug port, which
// neither advances the clock nor counts as traffic.
func copyImage(buf []byte, raw *disk.Disk) error {
	bs := int64(raw.BlockSize())
	for b := int64(0); b < raw.NumBlocks(); b++ {
		if err := raw.ReadRaw(b, buf[b*bs:(b+1)*bs]); err != nil {
			return err
		}
	}
	return nil
}

// sparseImage keeps a disk image's non-zero blocks only.
type sparseImage struct {
	bs     int
	blocks []int64
	data   []byte
}

func newSparseImage(img []byte, bs int) sparseImage {
	s := sparseImage{bs: bs}
	for b := 0; b*bs < len(img); b++ {
		blk := img[b*bs : (b+1)*bs]
		for _, x := range blk {
			if x != 0 {
				s.blocks = append(s.blocks, int64(b))
				s.data = append(s.data, blk...)
				break
			}
		}
	}
	return s
}

// fill writes the image into buf (a whole disk's worth of bytes).
func (s sparseImage) fill(buf []byte) {
	clear(buf)
	for i, b := range s.blocks {
		copy(buf[b*int64(s.bs):], s.data[i*s.bs:(i+1)*s.bs])
	}
}

// clVolume is one mounted clients volume, built either by fs.MountVolume
// (untraced) or as the same tower with span shims (traced).
type clVolume struct {
	raw  *disk.Disk
	clk  *disk.Clock
	fsys vfs.FileSystem
	dev  disk.Device // the scheduler (or its shim) beneath the file system
	sch  *sched.Scheduler
}

func (w *clientsWL) mount(name string, tr *tracer) (*clVolume, error) {
	w.images[name].fill(w.buf)
	opts := clientOptions(name)
	if tr == nil {
		v, err := fs.MountVolume(fs.MountOpts{
			FS: name, Opts: opts, Blocks: w.cfg.blocks, Image: w.buf,
			QueueDepth: w.cfg.depth, SchedPolicy: sched.PolicyAdaptive,
		})
		if err != nil {
			return nil, err
		}
		return &clVolume{raw: v.Disk, clk: v.Clock, fsys: v.FS, dev: v.Dev, sch: v.Sched}, nil
	}
	// The traced tower is built exactly as fs.MountVolume builds it, with
	// a span shim above the disk and above the scheduler.
	d, err := disk.New(w.cfg.blocks, disk.DefaultGeometry(), nil)
	if err != nil {
		return nil, err
	}
	if err := d.Restore(w.buf); err != nil {
		return nil, err
	}
	s := sched.New(newShim(d, "disk", tr), sched.Config{QueueDepth: w.cfg.depth, Policy: sched.PolicyAdaptive})
	dev := newShim(s, "sched", tr)
	fsys, err := fs.New(name, dev, opts, nil)
	if err != nil {
		return nil, err
	}
	if err := fsys.Mount(); err != nil {
		return nil, err
	}
	return &clVolume{raw: d, clk: d.Clock(), fsys: fsys, dev: dev, sch: s}, nil
}

type stackStats struct {
	disk  disk.Stats
	sched sched.Stats
}

// clPass is one file system's measured pass.
type clPass struct {
	ops, mutations int64
	vt             disk.Duration
	read, write    *stat.Histogram
	fsync          *stat.Histogram
	devWritten     int64
	host           time.Duration
}

func (w *clientsWL) round(tr *tracer) (*roundOut, error) {
	reg := stat.NewRegistry()
	stat.SetDefault(reg)
	out := &roundOut{vt: map[string]float64{}, layer: map[string]float64{}}
	var mutations, devWritten int64
	per := map[string][]float64{}
	vtOf := map[string]disk.Duration{}
	w.stacks = map[string]stackStats{}
	for _, name := range fsNames {
		vol, err := w.mount(name, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: mount: %w", name, err)
		}
		before := vol.raw.Stats()
		out.watch.start()
		t0 := cpuTime()
		p, err := w.drive(vol, tr)
		host := cpuTime() - t0
		out.watch.stop()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		p.devWritten = vol.raw.Stats().Sub(before).BytesWritten
		w.stacks[name] = stackStats{disk: vol.raw.Stats(), sched: vol.sch.Stats()}
		out.ops += p.ops
		mutations += p.mutations
		devWritten += p.devWritten
		vtOf[name] = p.vt
		vals := []float64{
			float64(p.ops) / p.vt.Seconds(),
			ms(p.read.Quantile(0.5)), ms(p.read.Quantile(0.99)),
			ms(p.write.Quantile(0.5)), ms(p.write.Quantile(0.99)),
			ms(p.fsync.Quantile(0.5)), ms(p.fsync.Quantile(0.99)),
		}
		for i, m := range vtMetrics {
			out.vt["fs."+name+"."+m.name] = vals[i]
			per[m.name] = append(per[m.name], vals[i])
		}
		out.layer["fs."+name+".host_ops_per_s"] = float64(p.ops) / host.Seconds()
		if err := vol.fsys.Unmount(); err != nil {
			return nil, fmt.Errorf("%s: unmount: %w", name, err)
		}
		if err := w.verify(name, vol.raw); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		runtime.GC()
	}
	for _, m := range vtMetrics {
		out.vt[m.name] = geomean(per[m.name])
	}
	out.vt["write_amp"] = float64(devWritten) / float64(w.asked*int64(len(fsNames)))
	out.vt["iron.overhead_x"] = vtOf["ixt3"].Seconds() / vtOf["ext3"].Seconds()
	for k, v := range registryLayers(reg, mutations) {
		out.layer[k] = v
	}
	return out, nil
}

// drive runs every client's plan to completion on one volume and makes
// the result durable. Each op's latency runs from the instant its client
// issued it to the instant the client is ready to issue the next: queueing
// behind the shared clock, device service, and the client's CPU time.
func (w *clientsWL) drive(vol *clVolume, tr *tracer) (*clPass, error) {
	p := &clPass{read: stat.NewHistogram(), write: stat.NewHistogram(), fsync: stat.NewHistogram()}
	clk := vol.clk
	next := make([]int, len(w.plans))
	vt := make([]disk.Duration, len(w.plans))
	start := clk.Now()
	for c := range vt {
		vt[c] = start
	}
	buf := make([]byte, clChunk)
	for {
		best := -1
		for c := range w.plans {
			if next[c] < len(w.plans[c]) && (best < 0 || vt[c] < vt[best]) {
				best = c
			}
		}
		if best < 0 {
			break
		}
		op := &w.plans[best][next[best]]
		next[best]++
		issue := vt[best]
		if now := clk.Now(); now < issue {
			clk.Advance(issue - now)
		}
		id := tr.begin(clSpanNames[op.kind], clk.Now())
		err := w.exec(vol.fsys, op, buf)
		tr.end(id, clk.Now())
		if err != nil {
			return nil, fmt.Errorf("client %d: %s %s: %w", best, clSpanNames[op.kind], op.path, err)
		}
		end := max(clk.Now(), issue)
		cpu := clMutateCPU
		if op.kind == clRead || op.kind == clStat {
			cpu = clReadCPU
		}
		vt[best] = end + cpu
		lat := int64(vt[best] - issue)
		switch op.kind {
		case clRead:
			p.read.Observe(lat)
		case clFsync:
			p.fsync.Observe(lat)
		case clStat:
		default:
			p.write.Observe(lat)
			p.mutations++
		}
		p.ops++
	}
	if err := vol.fsys.Sync(); err != nil {
		return nil, fmt.Errorf("sync: %w", err)
	}
	if err := vol.dev.Barrier(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	end := clk.Now()
	for _, v := range vt {
		end = max(end, v)
	}
	p.vt = end - start
	return p, nil
}

// exec issues one op and checks what it returns.
func (w *clientsWL) exec(fsys vfs.FileSystem, op *clOp, buf []byte) error {
	switch op.kind {
	case clMkdir:
		return fsys.Mkdir(op.path, 0o755)
	case clRead:
		n, err := fsys.Read(op.path, op.off, buf[:op.size])
		if err != nil {
			return err
		}
		if want := w.docs[op.doc][op.off : op.off+int64(op.size)]; n != op.size || !bytes.Equal(buf[:n], want) {
			return fmt.Errorf("read returned %d bytes that differ from the document at offset %d", n, op.off)
		}
	case clStat:
		fi, err := fsys.Stat(op.path)
		if err != nil {
			return err
		}
		if fi.Type != vfs.TypeRegular || fi.Size != int64(w.cfg.docBytes) {
			return fmt.Errorf("stat: type %v size %d, want a %d-byte regular file", fi.Type, fi.Size, w.cfg.docBytes)
		}
	case clCreate:
		return fsys.Create(op.path, 0o644)
	case clWrite:
		n, err := fsys.Write(op.path, 0, op.data)
		if err != nil {
			return err
		}
		if n != len(op.data) {
			return fmt.Errorf("short write %d of %d", n, len(op.data))
		}
	case clFsync:
		return fsys.Fsync(op.path)
	case clUnlink:
		return fsys.Unlink(op.path)
	}
	return nil
}

// verify checks the unmounted image: the registry's consistency check
// passes, and after a remount the namespace and every live file's bytes
// equal what each client left. It works on a copy of the disk under a
// scratch metrics registry, so the round's counters hold the measured
// pass alone.
func (w *clientsWL) verify(name string, raw *disk.Disk) error {
	prev := stat.SetDefault(stat.NewRegistry())
	defer stat.SetDefault(prev)
	if err := copyImage(w.buf, raw); err != nil {
		return err
	}
	v, err := fs.MountVolume(fs.MountOpts{FS: name, Opts: clientOptions(name), Blocks: w.cfg.blocks,
		Image: w.buf, NoMount: true})
	if err != nil {
		return err
	}
	if err := fs.Check(name, v.Disk, v.Opts); err != nil {
		return fmt.Errorf("check after unmount: %w", err)
	}
	if err := v.FS.Mount(); err != nil {
		return fmt.Errorf("remount: %w", err)
	}
	return checkTree(v.FS, w.docs, w.want)
}

// checkTree compares a mounted tree with the benchmark's record: the
// root holds /docs and one directory per client; /docs holds the
// documents; each client directory holds exactly its live files, with
// their bytes.
func checkTree(fsys vfs.FileSystem, docs [][]byte, want map[string]map[string][]byte) error {
	names := func(dir string) ([]string, error) {
		ents, err := fsys.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("readdir %s: %w", dir, err)
		}
		var out []string
		for _, e := range ents {
			if e.Name != "." && e.Name != ".." && e.Name != "lost+found" {
				out = append(out, e.Name)
			}
		}
		sort.Strings(out)
		return out, nil
	}
	wantRoot := []string{"docs"}
	for dir := range want {
		wantRoot = append(wantRoot, dir[1:])
	}
	sort.Strings(wantRoot)
	got, err := names("/")
	if err != nil {
		return err
	}
	if fmt.Sprint(got) != fmt.Sprint(wantRoot) {
		return fmt.Errorf("root holds %v, want %v", got, wantRoot)
	}
	got, err = names("/docs")
	if err != nil {
		return err
	}
	if len(got) != len(docs) {
		return fmt.Errorf("/docs holds %d entries, want %d", len(got), len(docs))
	}
	for dir, files := range want {
		got, err := names(dir)
		if err != nil {
			return err
		}
		var wantNames []string
		for p := range files {
			wantNames = append(wantNames, p[len(dir)+1:])
		}
		sort.Strings(wantNames)
		if fmt.Sprint(got) != fmt.Sprint(wantNames) {
			return fmt.Errorf("%s holds %v, want %v", dir, got, wantNames)
		}
		for p, data := range files {
			buf := make([]byte, len(data)+1)
			n, err := fsys.Read(p, 0, buf)
			if err != nil {
				return fmt.Errorf("read %s: %w", p, err)
			}
			if !bytes.Equal(buf[:n], data) {
				return fmt.Errorf("%s holds %d bytes that differ from the %d written", p, n, len(data))
			}
		}
	}
	return nil
}

func (w *clientsWL) control() error { return nil }
