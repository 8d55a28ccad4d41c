package server

import (
	"strconv"

	"svqact/internal/jsonw"
	"svqact/internal/plan"
)

// The /query and /query/batch bodies are appended by hand rather than
// reflected: these writers produce exactly the bytes
// json.NewEncoder(w).Encode(resp) gives, with QueryResponse, stmt.Answer,
// BatchResponse, BatchVideo, Sequence and plan.Report's struct tags as the
// one wire schema (TestQueryAppendMatchesMarshal and
// TestBatchAppendMatchesMarshal hold every member to its tag and
// omitempty), and each batch video's trace is written straight from its
// live span tree (obs.Trace.AppendJSON).

// object writes one JSON object's members in order. Member names are
// struct tags, which need no escaping. The first encoding error sticks.
type object struct {
	b    []byte
	more bool
	err  error
}

func openObject(dst []byte) object { return object{b: append(dst, '{')} }

func (o *object) name(n string) {
	if o.more {
		o.b = append(o.b, ',')
	}
	o.more = true
	o.b = append(o.b, '"')
	o.b = append(o.b, n...)
	o.b = append(o.b, '"', ':')
}

func (o *object) set(b []byte, err error) {
	o.b = b
	if o.err == nil {
		o.err = err
	}
}

func (o *object) str(n, v string) {
	o.name(n)
	o.b = jsonw.String(o.b, v)
}

func (o *object) int(n string, v int64) {
	o.name(n)
	o.b = strconv.AppendInt(o.b, v, 10)
}

func (o *object) float(n string, v float64) {
	o.name(n)
	o.set(jsonw.Float(o.b, v))
}

func (o *object) bool(n string, v bool) {
	o.name(n)
	o.b = strconv.AppendBool(o.b, v)
}

func (o *object) strOmit(n, v string) {
	if v != "" {
		o.str(n, v)
	}
}

func (o *object) intOmit(n string, v int64) {
	if v != 0 {
		o.int(n, v)
	}
}

func (o *object) boolOmit(n string, v bool) {
	if v {
		o.bool(n, true)
	}
}

func (o *object) floatOmit(n string, v float64) {
	if v != 0 {
		o.float(n, v)
	}
}

func (o *object) strs(n string, vs []string) {
	o.name(n)
	if vs == nil {
		o.b = append(o.b, "null"...)
		return
	}
	o.b = append(o.b, '[')
	for i, v := range vs {
		if i > 0 {
			o.b = append(o.b, ',')
		}
		o.b = jsonw.String(o.b, v)
	}
	o.b = append(o.b, ']')
}

func (o *object) close() ([]byte, error) { return append(o.b, '}'), o.err }

// appendJSON appends the response and the newline that ends an encoded
// document. The embedded Answer's members sit between the query ID and the
// elapsed time, where encoding/json promotes them.
func (r *QueryResponse) appendJSON(dst []byte) ([]byte, error) {
	o := openObject(dst)
	o.strOmit("query_id", r.QueryID)
	a := &r.Answer
	o.str("source", a.Source)
	o.str("mode", a.Mode)
	o.boolOmit("extended", a.Extended)
	o.intOmit("k", int64(a.K))
	o.intOmit("candidates", int64(a.Candidates))
	o.int("num_clips", int64(a.NumClips))
	o.name("sequences")
	o.sequences(a.Sequences)
	o.intOmit("flagged_clips", int64(a.FlaggedClips))
	o.intOmit("random_accesses", a.RandomAccesses)
	o.boolOmit("truncated", a.Truncated)
	o.floatOmit("residual_upper", a.ResidualUpper)
	o.intOmit("generation", int64(a.Generation))
	if a.Plan != nil {
		o.name("plan")
		o.set(appendReport(o.b, a.Plan))
	}
	o.int("elapsed_ms", r.ElapsedMS)
	if r.Trace != nil {
		o.name("trace")
		o.set(r.Trace.AppendJSON(o.b))
	}
	b, err := o.close()
	return append(b, '\n'), err
}

// sequences writes a member's value: a JSON array of the sequences, or null
// for a nil slice.
func (o *object) sequences(seqs []Sequence) {
	if seqs == nil {
		o.b = append(o.b, "null"...)
		return
	}
	o.b = append(o.b, '[')
	for i := range seqs {
		if i > 0 {
			o.b = append(o.b, ',')
		}
		o.set(appendSequence(o.b, &seqs[i]))
	}
	o.b = append(o.b, ']')
}

// appendJSON appends the response and the newline that ends an encoded
// document.
func (r *BatchResponse) appendJSON(dst []byte) ([]byte, error) {
	o := openObject(dst)
	o.strOmit("query_id", r.QueryID)
	o.str("source", r.Source)
	o.str("mode", r.Mode)
	o.int("workers", int64(r.Workers))
	o.int("num_videos", int64(r.NumVideos))
	o.int("ok", int64(r.OK))
	o.intOmit("degraded", int64(r.Degraded))
	o.intOmit("interrupted", int64(r.Interrupted))
	o.intOmit("skipped", int64(r.Skipped))
	o.intOmit("failed", int64(r.Failed))
	o.int("total_sequences", int64(r.TotalSequences))
	o.intOmit("flagged_clips", int64(r.FlaggedClips))
	if r.Plan != nil {
		o.name("plan")
		o.set(appendReport(o.b, r.Plan))
	}
	o.name("videos")
	if r.Videos == nil {
		o.b = append(o.b, "null"...)
	} else {
		o.b = append(o.b, '[')
		for i := range r.Videos {
			if i > 0 {
				o.b = append(o.b, ',')
			}
			o.set(r.Videos[i].appendJSON(o.b))
		}
		o.b = append(o.b, ']')
	}
	o.int("elapsed_ms", r.ElapsedMS)
	o.strOmit("error", r.Error)
	if r.Trace != nil {
		o.name("trace")
		o.set(r.Trace.AppendJSON(o.b))
	}
	b, err := o.close()
	return append(b, '\n'), err
}

func (v *BatchVideo) appendJSON(dst []byte) ([]byte, error) {
	o := openObject(dst)
	o.str("id", v.ID)
	o.str("outcome", v.Outcome)
	o.intOmit("num_clips", int64(v.NumClips))
	o.intOmit("processed_clips", int64(v.ProcessedClips))
	o.intOmit("flagged_clips", int64(v.FlaggedClips))
	if len(v.Sequences) > 0 {
		o.name("sequences")
		o.sequences(v.Sequences)
	}
	o.strOmit("error", v.Error)
	o.int("elapsed_ms", v.ElapsedMS)
	switch {
	case v.live != nil:
		o.name("trace")
		o.set(v.live.AppendJSON(o.b))
	case v.Trace != nil:
		o.name("trace")
		o.set(v.Trace.AppendJSON(o.b))
	}
	return o.close()
}

func appendSequence(dst []byte, s *Sequence) ([]byte, error) {
	o := openObject(dst)
	o.int("start_clip", int64(s.StartClip))
	o.int("end_clip", int64(s.EndClip))
	o.int("start_frame", int64(s.StartFrame))
	o.int("end_frame", int64(s.EndFrame))
	o.floatOmit("score", s.Score)
	o.strOmit("video", s.Video)
	o.floatOmit("lower", s.Lower)
	o.floatOmit("upper", s.Upper)
	o.boolOmit("exact", s.Exact)
	return o.close()
}

func appendReport(dst []byte, r *plan.Report) ([]byte, error) {
	o := openObject(dst)
	o.bool("adaptive", r.Adaptive)
	o.strs("order", r.Order)
	o.strs("declared", r.Declared)
	o.int("replans", int64(r.Replans))
	o.int("observed_clips", r.ObservedClips)
	o.int("skipped_evaluations", r.SkippedEvaluations)
	o.float("saved_cost_ms", r.SavedCostMS)
	o.boolOmit("tiered", r.Tiered)
	if b := r.Budget; b != nil {
		o.name("budget")
		bo := openObject(o.b)
		bo.float("limit_ms", b.LimitMS)
		bo.float("spent_ms", b.SpentMS)
		bo.int("skipped_clips", b.SkippedClips)
		bo.bool("exhausted", b.Exhausted)
		o.set(bo.close())
	}
	o.name("nodes")
	if r.Nodes == nil {
		o.b = append(o.b, "null"...)
		return o.close()
	}
	o.b = append(o.b, '[')
	for i := range r.Nodes {
		if i > 0 {
			o.b = append(o.b, ',')
		}
		o.set(appendNode(o.b, &r.Nodes[i]))
	}
	o.b = append(o.b, ']')
	return o.close()
}

func appendNode(dst []byte, n *plan.NodeReport) ([]byte, error) {
	o := openObject(dst)
	o.str("name", n.Name)
	o.int("position", int64(n.Position))
	o.float("estimated_cost_ms", n.EstimatedCostMS)
	o.float("observed_cost_ms", n.ObservedCostMS)
	o.float("reject_rate", n.RejectRate)
	o.float("cost_to_reject_ms", n.CostToRejectMS)
	o.int("observed_evaluations", n.ObservedEvaluations)
	o.int("skipped_evaluations", n.SkippedEvaluations)
	o.strOmit("tier", n.Tier)
	o.floatOmit("escalation_rate", n.EscalationRate)
	if len(n.Tiers) > 0 {
		o.name("tiers")
		o.b = append(o.b, '[')
		for i := range n.Tiers {
			if i > 0 {
				o.b = append(o.b, ',')
			}
			t := &n.Tiers[i]
			to := openObject(o.b)
			to.str("name", t.Name)
			to.float("unit_cost_ms", t.UnitCostMS)
			to.int("units", t.Units)
			to.int("escalated", t.Escalated)
			to.float("escalation_rate", t.EscalationRate)
			to.float("spent_ms", t.SpentMS)
			o.set(to.close())
		}
		o.b = append(o.b, ']')
	}
	return o.close()
}
