// Package stmt executes one planned statement of the SQL-like dialect: the
// single place that turns a sqlq.Plan into an engine run (SVAQ/SVAQD over a
// stream or a fleet of videos) or a ranked top-k (RVAQ over an ad-hoc index
// or a saved repository). cmd/serve renders the Answer as JSON, cmd/svq as text.
package stmt

import (
	"context"
	"errors"
	"fmt"

	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/obs"
	"svqact/internal/plan"
	"svqact/internal/rank"
	"svqact/internal/sqlq"
	"svqact/internal/video"
)

// Env says where a statement finds what it runs against.
type Env struct {
	// Models are the detection models of online engines.
	Models detect.Models
	// Engine configures the engine an online statement builds.
	Engine core.Config

	// Stream resolves a PROCESS source to its stream. Online statements run
	// over it; ranked ones without a repository rank over its index.
	Stream func(source string) (detect.TruthVideo, error)
	// Videos resolves a PROCESS source to the videos of an ExecuteFleet.
	Videos func(source string) ([]detect.TruthVideo, error)
	// Index returns the ingested index of a resolved source (ranked
	// statements without a repository).
	Index func(ctx context.Context, source string, stream detect.TruthVideo) (*rank.Index, error)

	// Repo, when set, is a saved repository's merged view: ranked statements
	// rank over it whatever their PROCESS source, and answers resolve clips
	// to the member video. Generation is the repository generation reported
	// with them.
	Repo       *rank.Index
	Generation int
	// Shard marks Repo as one shard of a cluster, which holds only its own
	// videos' vocabulary: a predicate type it never ingested means "no
	// candidates here", not an error.
	Shard bool
}

// Sequence is one result sequence. Repository-backed answers resolve clips
// to the member video and report member-local clip ids with no frame ranges
// (the repository stores clip score tables, not video geometry). Ranked
// answers additionally carry the score bounds (rank.Bounds): Lower == Upper
// when Exact, and a scatter-gather coordinator merges shards on the bounds
// rather than the point score.
type Sequence struct {
	StartClip  int     `json:"start_clip"`
	EndClip    int     `json:"end_clip"`
	StartFrame int     `json:"start_frame"`
	EndFrame   int     `json:"end_frame"`
	Score      float64 `json:"score,omitempty"`
	Video      string  `json:"video,omitempty"`
	Lower      float64 `json:"lower,omitempty"`
	Upper      float64 `json:"upper,omitempty"`
	Exact      bool    `json:"exact,omitempty"`
}

// Answer is the outcome of one statement, online or ranked.
type Answer struct {
	Source string `json:"source"`
	// Mode is SVAQ or SVAQD for an online statement, the ranking
	// algorithm's name for a ranked one.
	Mode     string `json:"mode"`
	Extended bool   `json:"extended,omitempty"`
	// K and Candidates are the top-k bound and the candidate sequences it
	// was chosen from (ranked statements).
	K          int        `json:"k,omitempty"`
	Candidates int        `json:"candidates,omitempty"`
	NumClips   int        `json:"num_clips"`
	Sequences  []Sequence `json:"sequences"`
	// FlaggedClips counts clips skipped after detector retry exhaustion or
	// inference-budget exhaustion (online statements).
	FlaggedClips int `json:"flagged_clips,omitempty"`
	// RandomAccesses, SortedAccesses and ClipsScored are the ranked
	// statement's table work.
	RandomAccesses int64 `json:"random_accesses,omitempty"`
	SortedAccesses int64 `json:"-"`
	ClipsScored    int   `json:"-"`
	// Truncated reports that ranked candidates beyond the returned top-k
	// exist; ResidualUpper then bounds every omitted candidate's score —
	// the coordinator's distributed Blo_K pruning signal.
	Truncated     bool    `json:"truncated,omitempty"`
	ResidualUpper float64 `json:"residual_upper,omitempty"`
	// Generation is the repository generation that answered (repository-
	// backed ranked statements only).
	Generation int `json:"generation,omitempty"`
	// Plan reports the predicate plan the statement executed with: adaptive
	// or pinned, the chosen vs declared order, and per-predicate cost and
	// selectivity statistics. Ordering never changes results.
	Plan *plan.Report `json:"plan,omitempty"`
	// Predicates holds an online statement's per-predicate diagnostics.
	Predicates []core.PredicateStats `json:"-"`
}

// ErrUnknownAlgorithm is what NewEngine returns (wrapped) for an algo it
// does not know — the caller's mistake, not a failure of the run.
var ErrUnknownAlgorithm = errors.New("unknown algorithm")

// ErrNotOnline is ExecuteFleet's refusal of a ranked plan (one top-k per source).
var ErrNotOnline = errors.New("batch evaluation requires an online (streaming) statement; offline top-k queries use /query")

// NewEngine builds the online engine an algo names: "svaqd" (also the
// default for "") or "svaq".
func NewEngine(algo string, models detect.Models, cfg core.Config) (*core.Engine, error) {
	switch algo {
	case "", "svaqd":
		return core.NewSVAQD(models, cfg)
	case "svaq":
		return core.NewSVAQ(models, cfg)
	}
	return nil, fmt.Errorf("%w %q", ErrUnknownAlgorithm, algo)
}

// Execute runs a planned statement: an online one streams its source
// through the algo's engine, a ranked one takes the top-k of the repository
// (when the Env has one) or of the source's index.
func Execute(ctx context.Context, p sqlq.Plan, algo string, env Env) (*Answer, error) {
	ans := &Answer{Source: p.Source, Extended: p.Extended}
	if !p.Online && env.Repo != nil {
		if err := ans.rank(ctx, p, env.Repo, nil, env); err != nil {
			return nil, err
		}
		return ans, nil
	}
	stream, err := env.Stream(p.Source)
	if err != nil {
		return nil, err
	}
	g := stream.Geometry()
	if !p.Online {
		ix, err := env.Index(ctx, p.Source, stream)
		if err == nil {
			err = ans.rank(ctx, p, ix, &g, env)
		}
		if err != nil {
			return nil, err
		}
		return ans, nil
	}
	eng, err := NewEngine(algo, env.Models, env.Engine)
	if err != nil {
		return nil, err
	}
	var res *core.Result
	if p.Extended {
		res, err = eng.RunCNF(ctx, stream, p.CNF)
	} else {
		res, err = eng.Run(ctx, stream, p.Query)
	}
	if err != nil {
		return nil, err
	}
	ans.Mode = eng.Mode().String()
	ans.NumClips = res.NumClips
	ans.FlaggedClips = res.Flagged.TotalLen()
	ans.Plan = res.Plan
	ans.Predicates = res.Predicates
	ans.Sequences = ClipSequences(res.Sequences, g)
	return ans, nil
}

// ExecuteFleet runs an online plan over every video of its source (RunAll
// or RunAllCNF, as Execute picks Run or RunCNF) and returns the algo's
// engine mode and the fleet result: partial after a *core.InterruptedError,
// nil after any other error.
func ExecuteFleet(ctx context.Context, p sqlq.Plan, algo string, env Env, opts core.FleetOptions) (core.Mode, *core.FleetResult, error) {
	if !p.Online {
		return 0, nil, ErrNotOnline
	}
	vids, err := env.Videos(p.Source)
	if err != nil {
		return 0, nil, err
	}
	eng, err := NewEngine(algo, env.Models, env.Engine)
	if err != nil {
		return 0, nil, err
	}
	if p.Extended {
		fr, err := eng.RunAllCNF(ctx, vids, p.CNF, opts)
		return eng.Mode(), fr, err
	}
	fr, err := eng.RunAll(ctx, vids, p.Query, opts)
	return eng.Mode(), fr, err
}

// ClipSequences reports runs of clips in a stream's own clip and frame
// numbering.
func ClipSequences(clips video.IntervalSet, g video.Geometry) []Sequence {
	var out []Sequence
	for _, iv := range clips.Intervals() {
		out = append(out, clipSequence(iv, g))
	}
	return out
}

func clipSequence(iv video.Interval, g video.Geometry) Sequence {
	fr := g.FrameRangeOfClips(iv)
	return Sequence{StartClip: iv.Start, EndClip: iv.End, StartFrame: fr.Start, EndFrame: fr.End}
}

// rank fills the answer with the top-k of ix. A nil geometry means ix is a
// repository's merged view, whose clips resolve to (member video, local
// clip) instead of frame ranges.
//
// The ranked engine is chosen here and only here. RVAQ and RVAQCNF stay two
// scorers: RVAQ ranks a clip by the paper's g = act × Σ obj, RVAQCNF by
// Π_clause max_atom, so RVAQ is not RVAQCNF over FromQuery.
func (ans *Answer) rank(ctx context.Context, p sqlq.Plan, ix *rank.Index, g *video.Geometry, env Env) error {
	ans.Mode, ans.K, ans.NumClips, ans.Generation = "RVAQ", p.K, ix.NumClips, env.Generation
	var res *rank.Result
	var err error
	switch {
	case !p.Extended:
		res, err = rank.RVAQ(ctx, ix, p.Query, p.K, rank.Options{})
	case env.Shard:
		// Only a shard may drop an un-ingested atom from its OR-group; a
		// monolith keeps rejecting unknown vocabulary.
		res, err = rank.RVAQCNFShard(ctx, ix, p.CNF, p.K, rank.Options{})
	default:
		res, err = rank.RVAQCNF(ctx, ix, p.CNF, p.K, rank.Options{})
	}
	var miss *rank.NotIngestedError
	if env.Shard && errors.As(err, &miss) {
		// Other shards of the repository may hold the type. Record the
		// empty top-k stage on the trace so the assembled cluster tree
		// shows why this shard contributed nothing.
		obs.StartSpan(ctx, "rank.topk").SetAttr("candidates", 0).SetAttr("not_ingested", miss.Error()).End()
		return nil
	}
	if err != nil {
		return err
	}
	ans.Mode = res.Algorithm
	ans.Candidates = res.Candidates
	ans.RandomAccesses, ans.SortedAccesses, ans.ClipsScored = res.Stats.Random, res.Stats.Sorted, res.ClipsScored
	ans.Truncated, ans.ResidualUpper = res.Truncated, res.ResidualUpper
	ans.Plan = res.Plan
	for _, sr := range res.Sequences {
		var seq Sequence
		if g != nil {
			seq = clipSequence(sr.Seq, *g)
		} else {
			vid, local := ix.Resolve(sr.Seq.Start)
			seq = Sequence{Video: vid, StartClip: local, EndClip: local + sr.Seq.Len() - 1}
		}
		seq.Score, seq.Lower, seq.Upper, seq.Exact = sr.Score(), sr.Lower, sr.Upper, sr.Exact
		ans.Sequences = append(ans.Sequences, seq)
	}
	return nil
}
