package rank

import (
	"context"
	"fmt"

	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/obs"
	"svqact/internal/plan"
	"svqact/internal/store"
	"svqact/internal/video"
)

// IngestConfig tunes the ingestion phase.
type IngestConfig struct {
	// Core configures the adaptive indicator machinery used to materialise
	// the per-type individual sequences.
	Core core.Config
	// Tracker optionally wraps the object detector with simulated tracking
	// before score aggregation (the paper ingests with an object tracker so
	// the h function can aggregate per tracked instance).
	Tracker func(detect.ObjectDetector) detect.ObjectDetector
}

// DefaultIngestConfig ingests with the engine's default configuration and
// CenterTrack-style tracking.
func DefaultIngestConfig() IngestConfig {
	return IngestConfig{
		Core:    core.DefaultConfig(),
		Tracker: func(d detect.ObjectDetector) detect.ObjectDetector { return detect.CenterTrack(d) },
	}
}

// Ingest processes one video with the detection models and materialises its
// query-independent metadata (paper §4.2): for every object and action type
// the models support on this video, the clip score table (h-aggregated
// detection scores per clip) and the individual sequences (positive clips
// per type, computed with the adaptive SVAQD machinery).
//
// The returned Index is in-memory; Save persists it for later Load.
//
// Ingestion honours ctx between clips and retries failed model invocations
// with the configured backoff; a unit that still fails after retries
// contributes no score (the engine-side individual sequences independently
// flag such clips and enforce the failure budget).
func Ingest(ctx context.Context, v detect.TruthVideo, models detect.Models, scoring Scoring, cfg IngestConfig) (*Index, error) {
	if err := scoring.Validate(); err != nil {
		return nil, err
	}
	if models.Objects == nil || models.Actions == nil {
		return nil, fmt.Errorf("rank: ingestion needs both detection models")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	g := v.Geometry()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	objTypes, actTypes := v.ObjectTypes(), v.ActionTypes()

	span := obs.StartSpan(ctx, "rank.ingest").SetAttr("video", v.ID()).
		SetAttr("object_types", len(objTypes)).SetAttr("action_types", len(actTypes))
	defer span.End()

	eng, err := core.NewSVAQD(models, cfg.Core)
	if err != nil {
		return nil, err
	}
	objSeqs, actSeqs, err := eng.EvaluateTypes(ctx, v, objTypes, actTypes)
	if err != nil {
		return nil, err
	}

	// Offline tier choice: ingestion is a static plan, so a cascaded action
	// recogniser is walked from the entry tier priced once from the
	// calibrated escalation priors. TierCascade keeps the cascade (its scores
	// are identical to the accurate tier's under a recall-complete cheap
	// tier, so the score tables and top-k do not move); TierAccurate enters
	// at the accurate tier. Object events are read through the detector as
	// given — a cascade decides each frame itself — wrapped by the tracker.
	chain := detect.ScorerOf(models.Actions)
	from := 0
	if mode := plan.StaticTierChoice(core.TierCosts(chain.Tiers())); mode != plan.TierSingle {
		span.SetAttr("tier:actions", mode.String())
		if mode == plan.TierAccurate {
			from = len(chain.Tiers()) - 1
		}
	}
	det := models.Objects
	if cfg.Tracker != nil {
		det = cfg.Tracker(det)
	}
	retry := cfg.Core.Retry
	if retry.Attempts == 0 {
		retry = detect.DefaultRetryConfig()
	}

	ix := &Index{
		Name:     v.ID(),
		NumClips: g.NumClips(v.NumFrames()),
		Objects:  make(map[string]*TypeIndex, len(objTypes)),
		Actions:  make(map[string]*TypeIndex, len(actTypes)),
	}

	// Clip score tables: h aggregates every detection score of the type
	// within the clip (per tracked instance and frame for objects, per shot
	// for actions) — the paper's §5 instantiation of h. Object tables sum the
	// events of one retried detect.ReadEvents call per clip, action tables
	// the shot scores of the same Score call the engine evaluates clips
	// with, at threshold 0: a table sums the full scores, not their side of
	// T_act. Both retry every model under the engine's policy; a unit that
	// still fails contributes no score (EvaluateTypes flags its clip) and the
	// rest of the clip is read after it. Scores are summed in unit order, so
	// the float accumulation does not depend on where a read stopped.
	var acc detect.Account // ingestion is not priced: filled and dropped
	acc.Reset(len(chain.Tiers()))
	var ev detect.Events
	var shotScores []float64
	table := func(typ string, units func(c int) video.Interval, read func(r video.Interval, sum float64) (float64, int, error)) (*TypeIndex, error) {
		var entries []store.Entry
		for c := 0; c < ix.NumClips; c++ {
			if cerr := ctx.Err(); cerr != nil {
				return nil, &core.InterruptedError{Processed: c, Total: ix.NumClips, Err: cerr}
			}
			sum := 0.0
			for r := units(c); r.Start <= r.End; {
				var n int
				var err error
				if sum, n, err = read(r, sum); err == nil {
					break
				}
				if ctx.Err() != nil {
					return nil, &core.InterruptedError{Processed: c, Total: ix.NumClips, Err: ctx.Err()}
				}
				r.Start += n + 1
			}
			if sum > 0 {
				entries = append(entries, store.Entry{Clip: c, Score: sum})
			}
		}
		tbl, err := store.NewMemTable(typ, entries)
		return &TypeIndex{Table: tbl}, err
	}
	for _, typ := range objTypes {
		ti, err := table(typ, g.FrameRangeOfClip, func(r video.Interval, sum float64) (float64, int, error) {
			ev.Reset()
			n, err := detect.ReadEvents(ctx, det, v, typ, r, &ev, retry, &acc)
			for _, s := range ev.Scores {
				sum += s
			}
			return sum, n, err
		})
		if err != nil {
			return nil, err
		}
		ti.Seqs = objSeqs[typ]
		ix.Objects[typ] = ti
	}
	for _, typ := range actTypes {
		ti, err := table(typ, g.ShotRangeOfClip, func(r video.Interval, sum float64) (float64, int, error) {
			shotScores = resized(shotScores, r.Len())
			n, err := chain.Score(ctx, v, typ, r.Start, from, shotScores, 0, 0, retry, &acc)
			for _, s := range shotScores[:n] {
				sum += s
			}
			return sum, n, err
		})
		if err != nil {
			return nil, err
		}
		ti.Seqs = actSeqs[typ]
		ix.Actions[typ] = ti
	}
	span.SetAttr("clips", ix.NumClips)
	return ix, nil
}

// IngestAll ingests every video of a collection and merges the per-video
// indexes into one repository index.
func IngestAll(ctx context.Context, name string, videos []detect.TruthVideo, models detect.Models, scoring Scoring, cfg IngestConfig) (*Index, error) {
	indexes := make([]*Index, 0, len(videos))
	for _, v := range videos {
		ix, err := Ingest(ctx, v, models, scoring, cfg)
		if err != nil {
			return nil, fmt.Errorf("rank: ingesting %s: %w", v.ID(), err)
		}
		indexes = append(indexes, ix)
	}
	return Merge(name, indexes)
}

// Pq computes the candidate sequences of a query (paper Equation 12): the
// interval-sweep intersection of the action's individual sequences with
// every query object's individual sequences.
func (ix *Index) Pq(q core.Query) (video.IntervalSet, error) {
	if err := q.Validate(); err != nil {
		return video.IntervalSet{}, err
	}
	act, ok := ix.Actions[q.Action]
	if !ok {
		return video.IntervalSet{}, &NotIngestedError{Kind: "action", Name: q.Action}
	}
	sets := []video.IntervalSet{act.Seqs}
	for _, o := range q.Objects {
		ti, ok := ix.Objects[o]
		if !ok {
			return video.IntervalSet{}, &NotIngestedError{Kind: "object", Name: o}
		}
		sets = append(sets, ti.Seqs)
	}
	return video.IntersectAll(sets...), nil
}

// scoreClip computes a clip's overall score via random accesses on every
// query table, filling the caller-owned scores column (grown if too small —
// callers size it once per query, so the hot path never reallocates).
// Missing rows contribute zero; table read failures surface as errors.
func scoreClip(tables []store.Table, scorer tableScorer, clip int, scores []float64) (float64, error) {
	if cap(scores) < len(tables) {
		scores = make([]float64, len(tables))
	}
	scores = scores[:len(tables)]
	for i, t := range tables {
		s, _, err := t.ScoreOf(clip)
		if err != nil {
			return 0, err
		}
		scores[i] = s
	}
	return scorer.scoreTables(scores), nil
}
