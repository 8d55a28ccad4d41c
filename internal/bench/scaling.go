package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/obs"
	"svqact/internal/synth"
	"svqact/internal/video"
)

// scalingFleetSize is the number of synthetic videos in the scaling fleet —
// large enough that the worker pool stays saturated across every measured
// worker count.
const scalingFleetSize = 64

// scalingWorkers are the candidate pool sizes; Scaling caps the sweep at
// runtime.NumCPU() — running more workers than cores measures scheduler
// oversubscription, not scaling, and earlier revisions of this experiment
// recorded exactly that as if it were speedup.
var scalingWorkers = []int{1, 2, 4, 8}

// ScalingPoint is one worker-count measurement of the fleet-scaling
// experiment.
type ScalingPoint struct {
	Workers         int
	ElapsedSeconds  float64
	VideosPerSecond float64
	SpeedupVsSerial float64
	// Per-video run latency percentiles, in seconds.
	VideoLatencyP50 float64
	VideoLatencyP90 float64
	VideoLatencyP99 float64
	// Heap allocation per evaluated video (runtime.MemStats deltas over the
	// whole point, divided by fleet size) — the -benchmem analogue for the
	// fleet sweep.
	AllocsPerVideo float64
	BytesPerVideo  float64
}

// ScalingReport is the outcome of the scaling experiment.
type ScalingReport struct {
	FleetSize      int
	FramesPerVideo int
	GOMAXPROCS     int
	// NumCPU records the cores the host actually exposes; together with
	// GOMAXPROCS it makes a recorded sweep interpretable after the fact.
	NumCPU int
	Points []ScalingPoint
}

// scalingFleet generates the fleet: distinct scripts (one per seed) so the
// videos are not trivially identical, small enough that the whole sweep stays
// in the experiment suite's time budget.
func (w *Workspace) scalingFleet() ([]detect.TruthVideo, core.Query, error) {
	frames := int(8000 * w.opts.Scale)
	if frames < 500 {
		frames = 500
	}
	vids := make([]detect.TruthVideo, scalingFleetSize)
	for i := range vids {
		v, err := synth.Generate(synth.Script{
			ID:       fmt.Sprintf("scale-%02d", i),
			Frames:   frames,
			FPS:      10,
			Geometry: video.DefaultGeometry,
			Seed:     w.opts.Seed + int64(1000+i),
			Actions:  []synth.ActionSpec{{Name: "jumping", MeanGapShots: 90, MeanDurShots: 30}},
			Objects: []synth.ObjectSpec{
				{Name: "human", MeanDurFrames: 300, CorrelatedWith: "jumping", CorrelationProb: 0.95},
			},
		})
		if err != nil {
			return nil, core.Query{}, err
		}
		vids[i] = v
	}
	return vids, core.Query{Objects: []string{"human"}, Action: "jumping"}, nil
}

// Scaling runs the fleet through core.RunAll once per worker count and
// measures end-to-end throughput plus per-video latency percentiles. All runs
// share the process-wide critical-value grid (scanstat.Shared), so only the
// first run pays for the Naus searches.
func (w *Workspace) Scaling() (*ScalingReport, error) {
	vids, q, err := w.scalingFleet()
	if err != nil {
		return nil, err
	}
	// Pin the scheduler to the hardware for the duration of the sweep: an
	// inherited GOMAXPROCS below NumCPU silently serialises every worker
	// count, and one above it measures contention. Restored on return.
	numCPU := runtime.NumCPU()
	prevProcs := runtime.GOMAXPROCS(numCPU)
	defer runtime.GOMAXPROCS(prevProcs)

	rep := &ScalingReport{
		FleetSize:      len(vids),
		FramesPerVideo: vids[0].NumFrames(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         numCPU,
	}
	// Warm the process-wide critical-value grid so the first measured point
	// does not pay for the Naus searches the later points get for free.
	warm, err := core.NewSVAQD(w.Models(), core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if _, err := warm.Run(context.Background(), vids[0], q); err != nil {
		return nil, err
	}
	var serial float64
	for _, workers := range scalingWorkers {
		if workers > numCPU && workers != 1 {
			// More workers than cores would only measure oversubscription;
			// the sweep stops at the hardware.
			w.logf("scaling: skipping workers=%d (only %d CPUs)", workers, numCPU)
			continue
		}
		eng, err := core.NewSVAQD(w.Models(), core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		h := obs.NewHistogram(nil)
		var msBefore runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		start := time.Now()
		fr, err := eng.RunAll(context.Background(), vids, q, core.FleetOptions{
			Workers:  workers,
			OnResult: func(vr core.VideoResult) { h.ObserveDuration(vr.Elapsed) },
		})
		if err != nil {
			return nil, fmt.Errorf("bench: scaling fleet (workers=%d): %w", workers, err)
		}
		if fr.OK != len(vids) {
			return nil, fmt.Errorf("bench: scaling fleet (workers=%d): %d of %d videos not ok", workers, len(vids)-fr.OK, len(vids))
		}
		elapsed := time.Since(start).Seconds()
		var msAfter runtime.MemStats
		runtime.ReadMemStats(&msAfter)
		p := ScalingPoint{
			Workers:         workers,
			ElapsedSeconds:  elapsed,
			VideosPerSecond: float64(len(vids)) / elapsed,
			VideoLatencyP50: h.Quantile(0.50),
			VideoLatencyP90: h.Quantile(0.90),
			VideoLatencyP99: h.Quantile(0.99),
			AllocsPerVideo:  float64(msAfter.Mallocs-msBefore.Mallocs) / float64(len(vids)),
			BytesPerVideo:   float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / float64(len(vids)),
		}
		if workers == 1 {
			serial = elapsed
		}
		if serial > 0 {
			p.SpeedupVsSerial = serial / elapsed
		}
		w.logf("scaling: workers=%d elapsed=%.2fs throughput=%.1f videos/s allocs/video=%.0f", workers, elapsed, p.VideosPerSecond, p.AllocsPerVideo)
		rep.Points = append(rep.Points, p)
	}
	return rep, nil
}

// ScalingExperiment renders the scaling sweep as a table.
func ScalingExperiment(w *Workspace) ([]Table, error) {
	rep, err := w.Scaling()
	if err != nil {
		return nil, err
	}
	t := Table{
		Title: fmt.Sprintf("Fleet scaling: throughput vs workers (%d videos × %d frames, SVAQD, GOMAXPROCS=%d, %d CPUs)",
			rep.FleetSize, rep.FramesPerVideo, rep.GOMAXPROCS, rep.NumCPU),
		Header: []string{"workers", "elapsed (s)", "videos/s", "speedup", "video p50/p90/p99 (ms)", "allocs/video", "KB/video"},
	}
	for _, p := range rep.Points {
		t.AddRow(
			fmt.Sprint(p.Workers),
			f2(p.ElapsedSeconds),
			f1(p.VideosPerSecond),
			f2(p.SpeedupVsSerial)+"x",
			fmt.Sprintf("%.0f/%.0f/%.0f", p.VideoLatencyP50*1e3, p.VideoLatencyP90*1e3, p.VideoLatencyP99*1e3),
			fmt.Sprintf("%.0f", p.AllocsPerVideo),
			f1(p.BytesPerVideo/1024),
		)
	}
	return []Table{t}, nil
}
