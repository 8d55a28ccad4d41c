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
// Ingestion honours ctx between clips, and retries transient failures of
// fallible detection models with the configured backoff; a unit that still
// fails after retries contributes no score (the engine-side individual
// sequences independently flag such clips and enforce the failure budget).
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

	// Offline tier choice: ingestion is a static plan, so cascaded models
	// run under the tier mode priced once from the calibrated escalation
	// priors. TierCascade keeps the cascade (its deciding-tier detections
	// and scores are identical to the accurate tier's under a
	// recall-complete cheap tier, so the score tables and top-k do not
	// move); TierAccurate unwraps to the accurate tier directly. The choice
	// happens before tracker wrapping so the tracker sees the chosen model.
	det := models.Objects
	objMode, actMode := plan.TierSingle, plan.TierSingle
	if casc, ok := det.(*detect.ObjectCascade); ok {
		objMode = plan.StaticTierChoice(core.TierCosts(casc.Tiers()))
		if objMode == plan.TierAccurate {
			det = casc.AccurateTier()
		}
	}
	rec := models.Actions
	if casc, ok := rec.(*detect.ActionCascade); ok {
		actMode = plan.StaticTierChoice(core.TierCosts(casc.Tiers()))
		if actMode == plan.TierAccurate {
			rec = casc.AccurateTier()
		}
	}
	if objMode != plan.TierSingle {
		span.SetAttr("tier:objects", objMode.String())
	}
	if actMode != plan.TierSingle {
		span.SetAttr("tier:actions", actMode.String())
	}
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
	// for actions) — the paper's §5 instantiation of h. Object tables
	// aggregate per-instance detections, which is not the one-score-per-unit
	// contract of the chain walker: infallible detectors take the columnar
	// events path — one reused Events buffer per clip, no per-frame retry
	// closure or []Detection heap slice; the scores land in the same order,
	// so the float accumulation is bit-identical — and fallible ones keep the
	// scalar per-attempt loop. Action tables sum the shot scores of the same
	// Score call the engine evaluates clips with.
	_, objFallible := det.(detect.FallibleObjectDetector)
	var ev detect.Events
	for _, typ := range objTypes {
		var entries []store.Entry
		for c := 0; c < ix.NumClips; c++ {
			if cerr := ctx.Err(); cerr != nil {
				return nil, &core.InterruptedError{Processed: c, Total: ix.NumClips, Err: cerr}
			}
			fr := g.FrameRangeOfClip(c)
			sum := 0.0
			if !objFallible {
				ev.Reset()
				detect.AppendFrameEvents(det, v, typ, fr, &ev)
				for _, s := range ev.Scores {
					sum += s
				}
			} else {
				for f := fr.Start; f <= fr.End; f++ {
					var dets []detect.Detection
					err := detect.Retry(ctx, retry, func(attempt int) error {
						var err error
						dets, err = detect.FrameDetectionsAttempt(det, v, typ, f, attempt)
						return err
					})
					if err != nil {
						if ctx.Err() != nil {
							return nil, &core.InterruptedError{Processed: c, Total: ix.NumClips, Err: ctx.Err()}
						}
						continue // flagged by EvaluateTypes; score the rest
					}
					for _, d := range dets {
						sum += d.Score
					}
				}
			}
			if sum > 0 {
				entries = append(entries, store.Entry{Clip: c, Score: sum})
			}
		}
		tbl, err := store.NewMemTable(typ, entries)
		if err != nil {
			return nil, err
		}
		ix.Objects[typ] = &TypeIndex{Table: tbl, Seqs: objSeqs[typ]}
	}
	chain := detect.ActionScorer(rec)
	var acc detect.Account // ingestion is not priced: filled and dropped
	acc.Reset(len(chain.Tiers()))
	var shotScores []float64
	for _, typ := range actTypes {
		var entries []store.Entry
		for c := 0; c < ix.NumClips; c++ {
			if cerr := ctx.Err(); cerr != nil {
				return nil, &core.InterruptedError{Processed: c, Total: ix.NumClips, Err: cerr}
			}
			sr := g.ShotRangeOfClip(c)
			if n := sr.Len(); cap(shotScores) < n {
				shotScores = make([]float64, n)
			}
			sum := 0.0
			for rest := shotScores[:sr.Len()]; len(rest) > 0; {
				scored, err := chain.Score(ctx, v, typ, sr.End+1-len(rest), 0, rest, retry, &acc)
				for _, s := range rest[:scored] {
					sum += s
				}
				if err == nil {
					break
				}
				if ctx.Err() != nil {
					return nil, &core.InterruptedError{Processed: c, Total: ix.NumClips, Err: ctx.Err()}
				}
				rest = rest[scored+1:] // flagged by EvaluateTypes; score the rest
			}
			if sum > 0 {
				entries = append(entries, store.Entry{Clip: c, Score: sum})
			}
		}
		tbl, err := store.NewMemTable(typ, entries)
		if err != nil {
			return nil, err
		}
		ix.Actions[typ] = &TypeIndex{Table: tbl, Seqs: actSeqs[typ]}
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
