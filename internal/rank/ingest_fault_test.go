package rank

import (
	"context"
	"testing"

	"svqact/internal/detect"
	"svqact/internal/video"
)

// TestIngestObjectTableUnderFaults is the object twin of
// TestIngestActionTableUnderFaults: the object tables come from one retried
// events read per clip, which stops at a frame that still fails; ingestion
// resumes after it, so a clip's score is the sum over exactly the frames
// some attempt scored. That holds with the default CenterTrack wrapper —
// which changes identities, never scores, and must not hide the detector's
// faults — and without a tracker.
func TestIngestObjectTableUnderFaults(t *testing.T) {
	v := repoVideo(t, "rank-faulty-objects", 9)
	const seed, attempts = 19, 4
	fc := detect.FaultConfig{TransientRate: 0.3, PermanentRate: 0.02, Seed: 3}
	obj := detect.InjectObjectFaults(detect.NewObjectDetector(detect.MaskRCNN, seed), fc)
	models := detect.NewModels(obj, detect.NewActionRecognizer(detect.I3D, seed))

	// A frame contributes its detections' scores iff one of its attempts
	// succeeds, summed in frame order as ingestion sums them.
	g := v.Geometry()
	want := make([]float64, g.NumClips(v.NumFrames()))
	lost := 0
	var ev detect.Events
	for c := range want {
		fr := g.FrameRangeOfClip(c)
	frames:
		for f := fr.Start; f <= fr.End; f++ {
			for a := 0; a < attempts; a++ {
				ev.Reset()
				_, err := obj.Events(v, "car", video.Interval{Start: f, End: f}, &ev, a)
				if err == nil {
					for _, s := range ev.Scores {
						want[c] += s
					}
					continue frames
				}
				if !detect.IsTransient(err) {
					break
				}
			}
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("no frame lost to faults: the resume-after-failure path was not exercised")
	}

	tracked, untracked := DefaultIngestConfig(), DefaultIngestConfig()
	untracked.Tracker = nil
	for name, cfg := range map[string]IngestConfig{"tracked": tracked, "untracked": untracked} {
		cfg.Core.Retry = detect.RetryConfig{Attempts: attempts} // zero BaseDelay: no backoff sleeps in-test
		cfg.Core.FailureBudget = 1                              // flag, never degrade
		ix, err := Ingest(context.Background(), v, models, PaperScoring(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for c, w := range want {
			got, _, err := ix.Objects["car"].Table.ScoreOf(c)
			if err != nil {
				t.Fatal(err)
			}
			if got != w {
				t.Fatalf("%s: clip %d scores %v, want %v", name, c, got, w)
			}
		}
	}
}
