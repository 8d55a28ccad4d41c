package layers

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"svqact/benchmarks/loadgen"
	"svqact/benchmarks/workload"
	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/kernel"
	"svqact/internal/obs"
	"svqact/internal/plan"
	"svqact/internal/rank"
	"svqact/internal/scanstat"
	"svqact/internal/store"
	"svqact/internal/video"
)

// Sink keeps measured calls' results alive so the compiler cannot drop them.
var Sink float64

// perOp times n calls of f and returns nanoseconds per call.
func perOp(n int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// StoreFigures are the table layer's own costs on one real table.
type StoreFigures struct {
	MemSortedAtNS, MemScoreOfNS   float64
	DiskSortedAtNS, DiskScoreOfNS float64
	WriteTableMS, OpenVerifyMS    float64
	BytesPerClip                  float64
}

// Store measures the table layer on the largest table of ix: row reads from
// the in-memory and the mmap-backed implementation, one table write (temp
// file, fsync, rename) and one verified open. dir receives the table file.
func Store(ix *rank.Index, dir string) (StoreFigures, error) {
	var big store.Table
	for _, types := range []map[string]*rank.TypeIndex{ix.Objects, ix.Actions} {
		for _, t := range types {
			if big == nil || t.Table.Len() > big.Len() {
				big = t.Table
			}
		}
	}
	if big == nil || big.Len() == 0 {
		return StoreFigures{}, fmt.Errorf("layers: index %s has no table rows", ix.Name)
	}
	entries := make([]store.Entry, big.Len())
	for i := range entries {
		e, err := big.SortedAt(i)
		if err != nil {
			return StoreFigures{}, err
		}
		entries[i] = e
	}
	var f StoreFigures
	mem, err := store.NewMemTable(big.Name(), entries)
	if err != nil {
		return f, err
	}
	path := filepath.Join(dir, "micro.tbl")
	start := time.Now()
	if err := store.WriteTable(path, big.Name(), entries); err != nil {
		return f, err
	}
	f.WriteTableMS = ms(time.Since(start))
	if st, err := os.Stat(path); err == nil {
		f.BytesPerClip = float64(st.Size()) / float64(len(entries))
	}
	start = time.Now()
	disk, err := store.OpenDiskTable(path)
	if err != nil {
		return f, err
	}
	defer disk.Close()
	f.OpenVerifyMS = ms(time.Since(start))

	// Several passes over every row, so a pass's cache misses are the
	// table's own and not the first touch's.
	const passes = 20
	n := len(entries)
	read := func(t store.Table) (sortedNS, scoreNS float64) {
		sortedNS = perOp(passes*n, func(i int) {
			e, _ := t.SortedAt(i % n)
			Sink += e.Score
		})
		scoreNS = perOp(passes*n, func(i int) {
			s, _, _ := t.ScoreOf(entries[(i*7919)%n].Clip)
			Sink += s
		})
		return
	}
	f.MemSortedAtNS, f.MemScoreOfNS = read(mem)
	f.DiskSortedAtNS, f.DiskScoreOfNS = read(disk)
	return f, nil
}

// countingFS counts what the durable write path asks of the filesystem.
type countingFS struct {
	store.FS
	syncs int
	bytes int64
}

type countingFile struct {
	store.File
	fs *countingFS
}

func (c *countingFS) Create(path string) (store.File, error) {
	f, err := c.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) SyncDir(path string) error {
	c.syncs++
	return c.FS.SyncDir(path)
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes += int64(n)
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs++
	return f.File.Sync()
}

// WriteFigures are the write path's device-level counts.
type WriteFigures struct {
	SyncsPerVideo        float64
	BytesWrittenPerClip  float64
	IngestClipsPerSecond float64
}

// sampleVideos is how many videos the write-path count ingests and saves.
const sampleVideos = 24

// WritePath ingests a sample of the world's videos and saves each through a
// counting filesystem: fsyncs per video and bytes written per clip, which
// repeat exactly, and the in-process ingest rate.
func WritePath(ctx context.Context, w *workload.World, dir string) (WriteFigures, error) {
	fs := &countingFS{FS: store.OS}
	models := workload.Models(w.Seed)
	videos := w.Videos()
	if len(videos) > sampleVideos {
		videos = videos[:sampleVideos]
	}
	clips := 0
	start := time.Now()
	for _, v := range videos {
		ix, err := rank.Ingest(ctx, v, models, rank.PaperScoring(), rank.DefaultIngestConfig())
		if err != nil {
			return WriteFigures{}, err
		}
		if err := rank.SaveFS(fs, filepath.Join(dir, "write-"+v.ID()), ix); err != nil {
			return WriteFigures{}, err
		}
		clips += ix.NumClips
	}
	elapsed := time.Since(start).Seconds()
	return WriteFigures{
		SyncsPerVideo:        float64(fs.syncs) / float64(len(videos)),
		BytesWrittenPerClip:  float64(fs.bytes) / float64(clips),
		IngestClipsPerSecond: float64(clips) / elapsed,
	}, nil
}

// RepoFigures are the repository's read-side start-up costs.
type RepoFigures struct {
	LoadMS, MergeMS float64
}

// Repo times opening the repository at dir (every member loaded and
// verified) and the first, cold build of its merged index.
func Repo(dir string) (RepoFigures, error) {
	start := time.Now()
	repo, err := rank.OpenRepository(dir)
	if err != nil {
		return RepoFigures{}, err
	}
	defer repo.Close()
	f := RepoFigures{LoadMS: ms(time.Since(start))}
	start = time.Now()
	if _, err := repo.Merged(); err != nil {
		return f, err
	}
	f.MergeMS = ms(time.Since(start))
	return f, nil
}

// KernelFigures are the per-call costs of the statistics under every online
// clip: a warm critical-value lookup, an estimator tick, a planner order read.
type KernelFigures struct {
	ScanstatAtNS, KernelTickNS, PlanOrderNS float64
}

// Kernels times the three calls on the engine's default configuration.
func Kernels() (KernelFigures, error) {
	cfg := core.DefaultConfig()
	g := video.DefaultGeometry
	grid := scanstat.Shared(g.FramesPerClip(), cfg.HorizonClips, cfg.Alpha, cfg.CritGrid)
	ps := make([]float64, 64)
	for i := range ps {
		ps[i] = 1e-4 * float64(1+i) // the background rates estimators sit at
		Sink += float64(grid.At(ps[i]))
	}
	const n = 2_000_000
	var f KernelFigures
	f.ScanstatAtNS = perOp(n, func(i int) { Sink += float64(grid.At(ps[i%len(ps)])) })
	est, err := kernel.NewEstimator(cfg.BandwidthFrames, cfg.P0Object)
	if err != nil {
		return f, err
	}
	f.KernelTickNS = perOp(n, func(i int) { est.Tick(i%97 == 0) })
	Sink += est.P()
	p := plan.New([]plan.Node{
		{Name: "a", PriorCost: 3 * time.Millisecond, PriorReject: 0.8},
		{Name: "b", PriorCost: 5 * time.Millisecond, PriorReject: 0.5},
		{Name: "c", PriorCost: 9 * time.Millisecond, PriorReject: 0.9},
	}, plan.Options{})
	var order []int
	f.PlanOrderNS = perOp(n, func(int) { order = p.AppendOrder(order[:0]) })
	Sink += float64(len(order))
	return f, nil
}

// DetectScoreNS times one simulated object inference (one frame, one type)
// on the first video of the world.
func DetectScoreNS(w *workload.World) float64 {
	v := w.YouTube.Videos[0]
	det := workload.Models(w.Seed).Objects
	frames := v.NumFrames()
	return perOp(400_000, func(i int) { Sink += det.FrameScore(v, "person", i%frames) })
}

// EngineFigures are the online engine's own costs on one stream.
type EngineFigures struct {
	AllocsPerRun       float64
	TraceOverheadRatio float64
}

// Engine runs one basic query over the first YouTube set: heap allocations
// per run, and the run time with a trace in the context over the run time
// without one.
func Engine(ctx context.Context, w *workload.World) (EngineFigures, error) {
	spec := w.YouTube.Queries[0]
	stream, err := w.Stream(spec.Name)
	if err != nil {
		return EngineFigures{}, err
	}
	eng, err := core.NewSVAQD(workload.Models(w.Seed), core.DefaultConfig())
	if err != nil {
		return EngineFigures{}, err
	}
	q := core.Query{Action: spec.Action, Objects: spec.Objects}
	run := func(ctx context.Context) error {
		_, err := eng.Run(ctx, stream, q)
		return err
	}
	if err := run(ctx); err != nil { // warm: critical values, scratch pools
		return EngineFigures{}, err
	}
	const runs = 30
	timed := func(mk func() context.Context) (float64, error) {
		times := make([]float64, runs)
		for i := range times {
			start := time.Now()
			if err := run(mk()); err != nil {
				return 0, err
			}
			times[i] = ms(time.Since(start))
		}
		return loadgen.Median(times), nil
	}
	var f EngineFigures
	before := Mallocs()
	plain, err := timed(func() context.Context { return obs.WithoutTrace(ctx) })
	if err != nil {
		return f, err
	}
	f.AllocsPerRun = float64(Mallocs()-before) / runs
	traced, err := timed(func() context.Context { return obs.WithTrace(ctx, obs.NewTrace(obs.NewQueryID())) })
	if err != nil {
		return f, err
	}
	f.TraceOverheadRatio = traced / plain
	return f, nil
}

// FleetFigures are the worker pool's throughput and scaling.
type FleetFigures struct {
	VideosPerSecond float64
	// Speedup is the throughput at workers = nproc over workers = 1, with
	// GOMAXPROCS pinned to nproc for both.
	Speedup float64
}

// Fleet evaluates one query over every YouTube video as a fleet, with one
// worker and with nproc.
func Fleet(ctx context.Context, w *workload.World, nproc int) (FleetFigures, error) {
	prev := runtime.GOMAXPROCS(nproc)
	defer runtime.GOMAXPROCS(prev)
	eng, err := core.NewSVAQD(workload.Models(w.Seed), core.DefaultConfig())
	if err != nil {
		return FleetFigures{}, err
	}
	vids := make([]detect.TruthVideo, len(w.YouTube.Videos))
	for i, v := range w.YouTube.Videos {
		vids[i] = v
	}
	q := core.Query{Action: w.YouTube.Queries[0].Action, Objects: []string{"person"}}
	rate := func(workers int) (float64, error) {
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			if _, err := eng.RunAll(obs.WithoutTrace(ctx), vids, q, core.FleetOptions{Workers: workers}); err != nil {
				return 0, err
			}
			if r := float64(len(vids)) / time.Since(start).Seconds(); r > best {
				best = r
			}
		}
		return best, nil
	}
	one, err := rate(1)
	if err != nil {
		return FleetFigures{}, err
	}
	all, err := rate(nproc)
	if err != nil {
		return FleetFigures{}, err
	}
	return FleetFigures{VideosPerSecond: all, Speedup: all / one}, nil
}
