package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"svqact/internal/detect"
	"svqact/internal/obs"
	"svqact/internal/plan"
)

// FleetOptions tunes a fleet evaluation.
type FleetOptions struct {
	// Workers bounds the videos evaluated concurrently; <= 0 means
	// GOMAXPROCS (mirroring rank.IngestAllParallel).
	Workers int
	// OnResult, when set, receives each video's outcome as soon as its run
	// completes, from the completing worker's goroutine — the streaming
	// consumption path. It must be safe for concurrent invocation.
	OnResult func(VideoResult)
	// PerVideoTrace gives every video's run its own span tree (its trace
	// ID is the fleet's query ID suffixed with the video ID) attached to
	// the VideoResult, instead of suppressing per-run spans entirely. The
	// fleet trace still carries its one summary span per video.
	PerVideoTrace bool
}

// VideoResult is the outcome of one video of a fleet evaluation.
type VideoResult struct {
	// Index is the video's position in the input slice; ID its identifier.
	Index int
	ID    string
	// Result is the run's (possibly partial) result; nil when the run could
	// not start or the video was never dispatched.
	Result *Result
	// Err is the run's terminal error: nil for a clean run, *DegradedError
	// or *InterruptedError for partial runs, the context error for videos
	// the fleet never dispatched after cancellation.
	Err error
	// Elapsed is the wall-clock duration of this video's run.
	Elapsed time.Duration
	// Trace is the run's own span tree when FleetOptions.PerVideoTrace
	// was set; nil otherwise.
	Trace *obs.Trace
}

// Outcome classifies the video's run for aggregation and metrics:
// "ok", "degraded", "interrupted", "skipped" (never dispatched) or "error".
func (vr *VideoResult) Outcome() string {
	if vr.Err == nil {
		// Before the errors.As targets: they escape, so declaring them
		// costs two allocations.
		return "ok"
	}
	var de *DegradedError
	var ie *InterruptedError
	switch {
	case errors.As(vr.Err, &de):
		return "degraded"
	case errors.As(vr.Err, &ie):
		return "interrupted"
	case vr.Result == nil && (errors.Is(vr.Err, context.Canceled) || errors.Is(vr.Err, context.DeadlineExceeded)):
		return "skipped"
	default:
		return "error"
	}
}

// FleetResult aggregates a fleet evaluation over a video repository.
type FleetResult struct {
	// Videos holds every video's outcome in input order. After a
	// cancellation, videos the dispatcher never handed to a worker carry the
	// context error and a nil Result.
	Videos []VideoResult

	// OK, Degraded, Interrupted, Skipped and Failed partition Videos by
	// outcome.
	OK, Degraded, Interrupted, Skipped, Failed int

	// TotalClips sums the clip counts of every started video;
	// ProcessedClips the clips actually evaluated (smaller when runs were
	// cut short); TotalSequences and FlaggedClips sum the per-video result
	// sequences and flagged clips.
	TotalClips, ProcessedClips int
	TotalSequences             int
	FlaggedClips               int

	// Elapsed is the fleet's wall-clock duration.
	Elapsed time.Duration

	// Plan is the fleet-cumulative report of the shared predicate planner
	// every run warm-started from (nil without a first video to bind). Its
	// observed_clips counts the sampled clips of every video: each
	// estimatorSampleEvery-th clip, plus the bootstrap prefix of an SVAQD
	// video longer than robustWindowClips clips. Its observed costs are
	// what those evaluations charged: a full scan in such an SVAQD video,
	// whose estimators read the counts, and the scan up to the decision in
	// every other video. Workers share the planner, so the order it sets on
	// a video's unsampled clips, and what they cost, depends on which
	// videos finished first; the answers do not.
	Plan *plan.Report
}

// add folds one video outcome into the aggregate (callers hold the lock).
func (fr *FleetResult) add(vr VideoResult) {
	switch vr.Outcome() {
	case "ok":
		fr.OK++
	case "degraded":
		fr.Degraded++
	case "interrupted":
		fr.Interrupted++
	case "skipped":
		fr.Skipped++
	default:
		fr.Failed++
	}
	if vr.Result != nil {
		fr.TotalClips += vr.Result.NumClips
		fr.ProcessedClips += vr.Result.Processed
		fr.TotalSequences += vr.Result.Sequences.NumIntervals()
		fr.FlaggedClips += vr.Result.Flagged.TotalLen()
	}
}

// RunAll evaluates one basic query over a repository of videos on a bounded
// worker pool — the fleet analogue of running the paper's per-video
// Algorithm 1/3 loop once per video. Per-video failures do not abort the
// fleet: degraded and interrupted runs surface in their VideoResult (with
// partial results) and in the aggregate counts.
//
// RunAll honours ctx: on cancellation it stops dispatching, lets in-flight
// runs stop at their next clip boundary, and returns the partial FleetResult
// together with an *InterruptedError whose Processed counts completed videos.
// Results stream through FleetOptions.OnResult as they complete; the
// returned FleetResult.Videos is always in input order.
//
// All Dynamic-mode runs of the fleet read one process-wide, immutable
// critical-value table per predicate configuration (scanstat.Shared), built
// on the process's first use of that configuration.
//
// All runs of the fleet also share one predicate planner, so the cost model
// a video warms up (observed rejection rates, measured evaluation cost)
// carries into every later video of the same query instead of being
// re-learnt per video. Cost priors are taken at the first video's geometry.
func (e *Engine) RunAll(ctx context.Context, videos []detect.TruthVideo, q Query, opts FleetOptions) (*FleetResult, error) {
	return e.runAll(ctx, videos, opts, q.Validate(), func(ctx context.Context, v detect.TruthVideo, pl *plan.Planner) (*Run, error) {
		return e.newRun(ctx, v, q, pl)
	})
}

// RunAllCNF is RunAll for an extended query: every video runs RunCNF's
// clause loop, and the shared planner, the shared table and the inference
// budget apply as they do to a basic query.
func (e *Engine) RunAllCNF(ctx context.Context, videos []detect.TruthVideo, q CNF, opts FleetOptions) (*FleetResult, error) {
	return e.runAll(ctx, videos, opts, q.Validate(), func(ctx context.Context, v detect.TruthVideo, pl *plan.Planner) (*Run, error) {
		return e.newRunCNF(ctx, v, q, pl)
	})
}

// binder binds one video's run of a fleet's statement to a shared planner.
type binder func(ctx context.Context, v detect.TruthVideo, pl *plan.Planner) (*Run, error)

// runAll is the fleet's one worker loop: invalid is the statement's
// validation error, bind binds one video's run of it.
func (e *Engine) runAll(ctx context.Context, videos []detect.TruthVideo, opts FleetOptions, invalid error, bind binder) (*FleetResult, error) {
	if invalid != nil {
		return nil, invalid
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(videos) {
		workers = len(videos)
	}

	start := time.Now()
	trace := obs.TraceFrom(ctx)
	fr := &FleetResult{Videos: make([]VideoResult, len(videos))}
	if len(videos) == 0 {
		return fr, nil
	}

	// Workers pull indices from jobs; the engine's per-run span tree is
	// suppressed (the fleet emits one span per video instead), while ctx
	// cancellation still flows into every run.
	runCtx := obs.WithoutTrace(ctx)

	// Every run shares the planner a fresh run over the first video builds:
	// Run.start prices each atom at that video's geometry.
	var shared *plan.Planner
	if r, err := bind(runCtx, videos[0], nil); err == nil {
		shared = r.planner
		r.release()
	}

	// The fleet's root span opens live so every per-video span parents
	// under it in the assembled tree.
	fleetSpan := obs.StartSpan(ctx, "fleet.run_all")

	jobs := make(chan int)
	var mu sync.Mutex // guards fr aggregation
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				v := videos[i]
				vctx := runCtx
				var vtrace *obs.Trace
				if opts.PerVideoTrace {
					id := trace.ID()
					if id != "" {
						id += ":"
					}
					vtrace = obs.NewTrace(id + v.ID())
					vctx = obs.WithTrace(runCtx, vtrace)
				}
				t0 := time.Now()
				res, err := finish(bind(vctx, v, shared))
				vr := VideoResult{Index: i, ID: v.ID(), Result: res, Err: err, Elapsed: time.Since(t0), Trace: vtrace}
				sp := trace.AddSpanUnder(fleetSpan, "fleet.video:"+vr.ID, t0, vr.Elapsed)
				sp.SetAttr("outcome", vr.Outcome())
				if res != nil {
					sp.SetAttr("num_clips", res.NumClips)
					sp.SetAttr("sequences", res.Sequences.NumIntervals())
					sp.SetAttr("flagged_clips", res.Flagged.TotalLen())
				}
				mu.Lock()
				fr.Videos[i] = vr
				fr.add(vr)
				mu.Unlock()
				if opts.OnResult != nil {
					opts.OnResult(vr)
				}
			}
		}()
	}

	dispatched := make([]bool, len(videos))
dispatch:
	for i := range videos {
		select {
		case jobs <- i:
			dispatched[i] = true
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	// Mark the videos the dispatcher never handed out, so Videos fully
	// accounts for the input.
	if cerr := ctx.Err(); cerr != nil {
		for i, d := range dispatched {
			if !d {
				fr.Videos[i] = VideoResult{Index: i, ID: videos[i].ID(), Err: cerr}
				fr.add(fr.Videos[i])
			}
		}
	}
	fr.Elapsed = time.Since(start)
	fr.Plan = shared.Report()

	sp := fleetSpan
	sp.SetAttr("mode", e.mode.String())
	if fr.Plan != nil {
		sp.SetAttr("plan_replans", fr.Plan.Replans)
		sp.SetAttr("plan_skipped_evaluations", fr.Plan.SkippedEvaluations)
	}
	sp.SetAttr("videos", len(videos))
	sp.SetAttr("workers", workers)
	sp.SetAttr("ok", fr.OK)
	sp.SetAttr("degraded", fr.Degraded)
	sp.SetAttr("interrupted", fr.Interrupted)
	sp.SetAttr("skipped", fr.Skipped)
	sp.SetAttr("failed", fr.Failed)
	sp.End()

	if cerr := ctx.Err(); cerr != nil {
		return fr, &InterruptedError{Processed: fr.OK + fr.Degraded + fr.Failed, Total: len(videos), Err: cerr}
	}
	return fr, nil
}
