package detect

import (
	"context"

	"svqact/internal/video"
)

// Events is a struct-of-arrays batch of object detection events: three
// parallel columns (unit, track, score) that a caller can Reset and reuse,
// so thousands of events per video cost three allocations, not one slice per
// frame.
type Events struct {
	// Units holds each event's frame; int32 covers any video the engine sees.
	Units []int32
	// Tracks holds each event's instance identity, int64 because tracker
	// remapping widens IDs by a factor of one million.
	Tracks []int64
	// Scores holds each event's detection score.
	Scores []float64
}

// Len returns the number of buffered events.
func (e *Events) Len() int { return len(e.Units) }

// Reset empties the batch, retaining the columns' capacity for reuse.
func (e *Events) Reset() {
	e.Units = e.Units[:0]
	e.Tracks = e.Tracks[:0]
	e.Scores = e.Scores[:0]
}

// Append adds one event to the batch.
func (e *Events) Append(unit int, track int64, score float64) {
	e.Units = append(e.Units, int32(unit))
	e.Tracks = append(e.Tracks, track)
	e.Scores = append(e.Scores, score)
}

// ReadEvents appends d's detections of typ on frames to ev, retried the way
// Scorer.Score retries a one-tier chain: one Events batch at attempt 0, a
// failing frame retried alone under retry, then the batch resumed after it.
// It stops at the first frame that still fails, or once ctx has ended, and
// returns how many frames came before it. Every frame reached is charged to
// acc's tier 0, per attempt.
func ReadEvents(ctx context.Context, d ObjectDetector, v TruthVideo, typ string, frames video.Interval, ev *Events, retry RetryConfig, acc *Account) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	cost := d.UnitCost()
	for f := frames.Start; f <= frames.End; f++ {
		n, err0 := d.Events(v, typ, video.Interval{Start: f, End: frames.End}, ev, 0)
		acc.charge(0, int64(n), int64(n), cost)
		if f += n; err0 == nil {
			break
		}
		attempts, err := retryAfter(ctx, retry, acc, err0, func(a int) error {
			_, err := d.Events(v, typ, video.Interval{Start: f, End: f}, ev, a)
			return err
		})
		acc.charge(0, 1, attempts, cost)
		if err != nil {
			return f - frames.Start, err
		}
	}
	return frames.Len(), nil
}
