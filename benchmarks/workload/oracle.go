package workload

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"svqact/internal/core"
	"svqact/internal/rank"
	"svqact/internal/sqlq"
	"svqact/internal/video"
)

// Seq is one result sequence as every endpoint reports it.
type Seq struct {
	Video     string  `json:"video"`
	StartClip int     `json:"start_clip"`
	EndClip   int     `json:"end_clip"`
	Score     float64 `json:"score"`
}

// Reply is the part of a /query, /query/batch or coordinator response the
// benchmark reads; everything else (ids, timings, traces) varies by run.
type Reply struct {
	Sequences []Seq `json:"sequences"`
	// Videos is set by /query/batch: one entry per component video.
	Videos []struct {
		ID        string `json:"id"`
		Outcome   string `json:"outcome"`
		Sequences []Seq  `json:"sequences"`
	} `json:"videos"`
	// Degraded and Error flag a partial or failed answer; either is a
	// failed operation however plausible the sequences look.
	Degraded bool   `json:"degraded"`
	Error    string `json:"error"`
}

// DecodeReply parses a response body.
func DecodeReply(body []byte) (*Reply, error) {
	var r Reply
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("workload: response is not JSON: %w", err)
	}
	return &r, nil
}

// Healthy reports whether the reply is a complete answer.
func (r *Reply) Healthy() error {
	if r.Error != "" {
		return fmt.Errorf("answer carries an error: %s", r.Error)
	}
	if r.Degraded {
		return fmt.Errorf("answer is degraded")
	}
	for _, v := range r.Videos {
		if v.Outcome != "ok" {
			return fmt.Errorf("video %s outcome %s", v.ID, v.Outcome)
		}
	}
	return nil
}

// Hash digests the sequences of a reply: two replies to the same statement
// from the same deployment must hash equal.
func (r *Reply) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	seqs := func(ss []Seq) {
		put(uint64(len(ss)))
		for _, s := range ss {
			h.Write([]byte(s.Video))
			put(uint64(s.StartClip))
			put(uint64(s.EndClip))
			put(math.Float64bits(s.Score))
		}
	}
	seqs(r.Sequences)
	for _, v := range r.Videos {
		h.Write([]byte(v.ID))
		seqs(v.Sequences)
	}
	return h.Sum64()
}

// Oracle computes reference answers in-process from the same seed: online
// statements by running the engine over the same streams, ranked statements
// by exhaustively scoring every candidate sequence of the merged index.
type Oracle struct {
	world  *World
	merged *rank.Index // nil for online workloads
	fleet  bool
}

// NewOracle builds the oracle of a workload. merged is the repository's
// merged index for ranked workloads and nil otherwise.
func NewOracle(spec Spec, w *World, merged *rank.Index) *Oracle {
	return &Oracle{world: w, merged: merged, fleet: spec.Fleet}
}

// Check compares a reply with the reference answer of its statement.
func (o *Oracle) Check(ctx context.Context, st Statement, r *Reply) error {
	if err := r.Healthy(); err != nil {
		return err
	}
	parsed, err := sqlq.Parse(st.SQL)
	if err != nil {
		return fmt.Errorf("workload: pool statement does not parse: %w", err)
	}
	plan, err := parsed.Plan()
	if err != nil {
		return fmt.Errorf("workload: pool statement does not plan: %w", err)
	}
	switch {
	case o.merged != nil:
		return o.checkRanked(plan, r)
	case o.fleet:
		return o.checkFleet(ctx, plan, st.Algo, r)
	}
	return o.checkOnline(ctx, plan, st.Algo, r)
}

func (o *Oracle) engine(algo string) (*core.Engine, error) {
	models := Models(o.world.Seed)
	if algo == "svaq" {
		return core.NewSVAQ(models, core.DefaultConfig())
	}
	return core.NewSVAQD(models, core.DefaultConfig())
}

func (o *Oracle) checkOnline(ctx context.Context, plan sqlq.Plan, algo string, r *Reply) error {
	eng, err := o.engine(algo)
	if err != nil {
		return err
	}
	stream, err := o.world.Stream(plan.Source)
	if err != nil {
		return err
	}
	var want video.IntervalSet
	if plan.Extended {
		res, err := eng.RunCNF(ctx, stream, plan.CNF)
		if err != nil {
			return fmt.Errorf("workload: oracle run: %w", err)
		}
		want = res.Sequences
	} else {
		res, err := eng.Run(ctx, stream, plan.Query)
		if err != nil {
			return fmt.Errorf("workload: oracle run: %w", err)
		}
		want = res.Sequences
	}
	return sameIntervals(want.Intervals(), r.Sequences)
}

func (o *Oracle) checkFleet(ctx context.Context, plan sqlq.Plan, algo string, r *Reply) error {
	eng, err := o.engine(algo)
	if err != nil {
		return err
	}
	vids, err := o.world.SetVideos(plan.Source)
	if err != nil {
		return err
	}
	if len(r.Videos) != len(vids) {
		return fmt.Errorf("fleet answered %d videos, the set has %d", len(r.Videos), len(vids))
	}
	for i, v := range vids {
		if r.Videos[i].ID != v.ID() {
			return fmt.Errorf("fleet video %d is %s, want %s", i, r.Videos[i].ID, v.ID())
		}
		res, err := eng.Run(ctx, v, plan.Query)
		if err != nil {
			return fmt.Errorf("workload: oracle run on %s: %w", v.ID(), err)
		}
		if err := sameIntervals(res.Sequences.Intervals(), r.Videos[i].Sequences); err != nil {
			return fmt.Errorf("video %s: %w", v.ID(), err)
		}
	}
	return nil
}

func sameIntervals(want []video.Interval, got []Seq) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d sequences, want %d", len(got), len(want))
	}
	for i, iv := range want {
		if got[i].StartClip != iv.Start || got[i].EndClip != iv.End {
			return fmt.Errorf("sequence %d is clips %d..%d, want %d..%d", i, got[i].StartClip, got[i].EndClip, iv.Start, iv.End)
		}
	}
	return nil
}

// checkRanked compares score multisets: which of several equally scored
// sequences makes the cut is not defined, their scores are.
func (o *Oracle) checkRanked(plan sqlq.Plan, r *Reply) error {
	var truth []rank.SeqResult
	var err error
	if plan.Extended {
		truth, err = rank.TruthTopKCNF(o.merged, plan.CNF, plan.K, rank.PaperScoring())
	} else {
		truth, err = rank.TruthTopK(o.merged, plan.Query, plan.K, rank.PaperScoring())
	}
	if err != nil {
		return fmt.Errorf("workload: oracle top-k: %w", err)
	}
	if len(truth) != len(r.Sequences) {
		return fmt.Errorf("%d ranked sequences, want %d", len(r.Sequences), len(truth))
	}
	want := make([]float64, len(truth))
	got := make([]float64, len(truth))
	for i := range truth {
		want[i] = truth[i].Score()
		got[i] = r.Sequences[i].Score
	}
	sort.Float64s(want)
	sort.Float64s(got)
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
			return fmt.Errorf("ranked score %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}
