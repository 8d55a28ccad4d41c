package workload

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"svqact/internal/cluster"
	"svqact/internal/detect"
	"svqact/internal/rank"
	"svqact/internal/synth"
)

// World is the synthetic video collection of one run, generated from the
// seed exactly as cmd/serve generates it from its -seed flag.
type World struct {
	Seed int64
	// Scale is the dataset scale relative to the paper's durations.
	Scale   float64
	YouTube *synth.Dataset
	Movies  *synth.Dataset
	// GenerateTime is how long generation took.
	GenerateTime time.Duration
}

// NewWorld generates both datasets. The benchmark runs at Scale; only the
// smoke test shrinks the world.
func NewWorld(seed int64, scale float64) *World {
	start := time.Now()
	opts := synth.Options{Scale: scale, Seed: seed}
	w := &World{Seed: seed, Scale: scale, YouTube: synth.YouTube(opts), Movies: synth.Movies(opts)}
	w.GenerateTime = time.Since(start)
	return w
}

// Videos lists every video of the world: the repository's members.
func (w *World) Videos() []*synth.Video {
	return append(append([]*synth.Video(nil), w.YouTube.Videos...), w.Movies.Videos...)
}

// Stream resolves a PROCESS source the way the server does: a movie is its
// own stream, a YouTube set is the concatenation of the videos in which the
// set's action occurs.
func (w *World) Stream(source string) (detect.TruthVideo, error) {
	if v := w.Movies.Video(source); v != nil {
		return v, nil
	}
	vids, err := w.SetVideos(source)
	if err != nil {
		return nil, err
	}
	return synth.NewConcat(source, vids)
}

// SetVideos lists the component videos of a YouTube set, in fleet order.
func (w *World) SetVideos(set string) ([]*synth.Video, error) {
	spec := w.YouTube.Query(set)
	if spec == nil {
		return nil, fmt.Errorf("workload: unknown source %q", set)
	}
	var vids []*synth.Video
	for _, v := range w.YouTube.Videos {
		if !v.ActionPresence(spec.Action).Empty() {
			vids = append(vids, v)
		}
	}
	return vids, nil
}

// Models returns the accurate simulated models the server builds from the
// same seed.
func Models(seed int64) detect.Models {
	return detect.NewModels(
		detect.NewObjectDetector(detect.MaskRCNN, seed),
		detect.NewActionRecognizer(detect.I3D, seed),
	)
}

// IngestStats describes one repository build.
type IngestStats struct {
	Videos  int
	Clips   int
	Elapsed time.Duration
}

// ClipsPerSecond is the write path's throughput: clips ingested and durably
// committed per second.
func (s IngestStats) ClipsPerSecond() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Clips) / s.Elapsed.Seconds()
}

// IngestRepository ingests every video of the world into a fresh repository
// at dir through rank.Ingest and Repository.Add — each Add writes the
// member's tables, syncs them and commits a generation.
func IngestRepository(ctx context.Context, w *World, dir string) (IngestStats, error) {
	start := time.Now()
	repo, err := rank.OpenRepository(dir)
	if err != nil {
		return IngestStats{}, err
	}
	defer repo.Close()
	models := Models(w.Seed)
	cfg := rank.DefaultIngestConfig()
	var st IngestStats
	for _, v := range w.Videos() {
		ix, err := rank.Ingest(ctx, v, models, rank.PaperScoring(), cfg)
		if err != nil {
			return st, fmt.Errorf("workload: ingesting %s: %w", v.ID(), err)
		}
		if err := repo.Add(ix); err != nil {
			return st, fmt.Errorf("workload: adding %s: %w", v.ID(), err)
		}
		st.Videos++
		st.Clips += ix.NumClips
	}
	st.Elapsed = time.Since(start)
	return st, nil
}

// ShardDirs names the shard repositories split out of the repository at dir.
func ShardDirs(dir string) []string {
	out := make([]string, Shards)
	for i := range out {
		out[i] = filepath.Join(dir+"-shards", fmt.Sprintf("shard%d", i))
	}
	return out
}

// SplitRepository partitions the repository at dir into ShardDirs(dir).
func SplitRepository(dir string) error {
	return cluster.SplitRepository(dir, ShardDirs(dir))
}
