// Package cluster is the scatter-gather serving tier: a coordinator
// partitions a generation-based repository by video into shards (each
// served by a cmd/serve -repo process, or by an in-process backend in
// tests), fans ranked queries out to every shard, and merges the per-shard
// top-k lists using RVAQ's score bounds as a distributed threshold
// algorithm — a shard whose best possible residual upper bound falls below
// the global k-th lower bound (Blo_K) holds nothing further worth pulling.
//
// The tier is built for partial failure, not for the happy path:
//
//   - every shard has a replica set with health-checked failover;
//   - transient replica errors retry with exponential backoff and
//     deterministic jitter (keyed on query, shard and attempt, so failover
//     schedules replay identically in tests);
//   - slow replicas are hedged: after an adaptive latency percentile the
//     coordinator races a second replica and takes the first answer;
//   - repeatedly failing replicas trip a per-replica circuit breaker and
//     stop being tried until a cool-off probe passes;
//   - the coordinator's deadline propagates to every shard call via
//     context;
//   - and when a whole shard's replica set is exhausted the query degrades
//     gracefully: the response still carries the merged top-k of the
//     surviving shards plus a shards {ok, degraded, failed} partition
//     (mirroring the fleet's per-video outcome partition) and a typed
//     *DegradedError instead of a hard failure;
//   - the admission gate and HTTP request front are internal/httpd's,
//     shared with cmd/serve: excess load is shed with 429 + Retry-After
//     before any shard is touched (and while a shard pushes back), request
//     bodies are size-limited, and handler panics answer JSON 500s.
package cluster

import (
	"context"
	"fmt"
	"strings"
	"time"

	"svqact/internal/httpd"
	"svqact/internal/obs"
	"svqact/internal/rank"
	"svqact/internal/video"
)

// Request is what the coordinator sends one shard replica: the statement
// text plus the coordinator's top-k override for distributed-threshold
// refinement rounds and the query ID for cross-tier correlation.
// ParentSpan carries the coordinator-side span id of the attempt issuing
// the request (the X-SVQ-Parent-Span header), so the shard's own trace can
// be grafted back under the right attempt in the assembled tree.
type Request struct {
	SQL        string
	K          int
	QueryID    string
	ParentSpan string
}

// RankedSeq is one merged result sequence, identified by its member video
// and member-local clip range (video spans are disjoint across shards, so
// the pair is globally unique). Lower/Upper/Exact are the rank.Bounds the
// merge operated on.
type RankedSeq struct {
	Video     string  `json:"video"`
	StartClip int     `json:"start_clip"`
	EndClip   int     `json:"end_clip"`
	Score     float64 `json:"score"`
	Lower     float64 `json:"lower"`
	Upper     float64 `json:"upper"`
	Exact     bool    `json:"exact,omitempty"`
	Shard     string  `json:"shard,omitempty"`
}

// Bounds converts the sequence into the rank-layer bounds the distributed
// threshold computations (Blo_K, separation) operate on. The interval is
// the member-local clip range; only the score bounds matter to the merge.
func (s RankedSeq) Bounds() rank.Bounds {
	return rank.Bounds{
		Seq:   video.Interval{Start: s.StartClip, End: s.EndClip},
		Lo:    s.Lower,
		Up:    s.Upper,
		Exact: s.Exact,
	}
}

// Response is one shard's answer to a ranked Request.
type Response struct {
	// Shard and Replica attribute the answer; Generation is the
	// repository generation that served it.
	Shard      string
	Replica    string
	Generation int
	Sequences  []RankedSeq
	// Candidates counts the shard's candidate sequences; Truncated and
	// ResidualUpper mirror rank.Result — the shard holds candidates
	// beyond the returned top-k, all scoring at most ResidualUpper.
	Candidates    int
	Truncated     bool
	ResidualUpper float64
	// Trace is the shard's own span tree for this request, when the shard
	// reported one; the coordinator grafts it under the winning attempt's
	// span.
	Trace *obs.TraceSnapshot
}

// Backend answers ranked queries for one shard replica. Implementations:
// HTTPBackend (a cmd/serve -repo process), LocalBackend (in-process index,
// the test and embedded mode) and FaultBackend (deterministic fault
// injection around either).
type Backend interface {
	// Name identifies the replica (address or label) in logs and metrics.
	Name() string
	// Query answers one ranked request, honouring ctx.
	Query(ctx context.Context, req Request) (*Response, error)
	// Healthy probes the replica; nil means it can serve.
	Healthy(ctx context.Context) error
}

// Partition is the per-shard outcome partition of one coordinator query —
// the cluster analogue of the fleet's ok/degraded/… video partition. A
// shard is ok when its primary answered first try, degraded when it
// answered only after retry, failover or hedging, and failed when its
// whole replica set was exhausted.
type Partition struct {
	OK       []string `json:"ok"`
	Degraded []string `json:"degraded,omitempty"`
	Failed   []string `json:"failed,omitempty"`
}

// Merge folds another partition in, keeping each shard's worst outcome
// (failed > degraded > ok) — the batch-level aggregation.
func (p *Partition) Merge(q Partition) {
	rank := func(shard string) int {
		for _, s := range p.Failed {
			if s == shard {
				return 2
			}
		}
		for _, s := range p.Degraded {
			if s == shard {
				return 1
			}
		}
		for _, s := range p.OK {
			if s == shard {
				return 0
			}
		}
		return -1
	}
	drop := func(list []string, shard string) []string {
		out := list[:0]
		for _, s := range list {
			if s != shard {
				out = append(out, s)
			}
		}
		return out
	}
	fold := func(shards []string, level int) {
		for _, s := range shards {
			cur := rank(s)
			if cur >= level {
				continue
			}
			if cur >= 0 {
				p.OK = drop(p.OK, s)
				p.Degraded = drop(p.Degraded, s)
				p.Failed = drop(p.Failed, s)
			}
			switch level {
			case 0:
				p.OK = append(p.OK, s)
			case 1:
				p.Degraded = append(p.Degraded, s)
			case 2:
				p.Failed = append(p.Failed, s)
			}
		}
	}
	fold(q.OK, 0)
	fold(q.Degraded, 1)
	fold(q.Failed, 2)
}

// DegradedError reports a scatter that lost one or more whole shards: the
// result alongside it is the correct merged top-k of the surviving shards,
// not the full repository. It mirrors core.DegradedError's
// partial-result-with-typed-error contract.
type DegradedError struct {
	// Failed names the shards whose replica sets were exhausted;
	// Degraded the shards that answered only via retry/failover/hedging.
	Failed   []string
	Degraded []string
	// Err is a sample failure from one exhausted shard.
	Err error
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("cluster: degraded answer: shards [%s] failed (degraded: [%s]): %v",
		strings.Join(e.Failed, " "), strings.Join(e.Degraded, " "), e.Err)
}

// Unwrap exposes the sample shard failure to errors.Is/As.
func (e *DegradedError) Unwrap() error { return e.Err }

// BadRequestError marks a rejection retrying cannot fix — the statement
// itself is invalid or unsupported. The coordinator propagates it to the
// client instead of failing over.
type BadRequestError struct{ Msg string }

func (e *BadRequestError) Error() string { return e.Msg }

// OverloadError reports a query shed by the coordinator's admission gate
// before any shard work was done; the HTTP layer maps it to 429 +
// Retry-After, the same contract cmd/serve speaks.
type OverloadError = httpd.OverloadError

// Reloader is the optional rollout surface of a Backend: triggering a
// repository generation swap on the replica and reading the generation it
// is serving. HTTPBackend maps it onto cmd/serve's POST /repo/reload and
// GET /repo/status; LocalBackend promotes a staged in-process index.
// Backends that do not implement it cannot be walked by `svq rollout`.
type Reloader interface {
	// Reload asks the replica to swap to the newest committed repository
	// generation and returns the generation serving afterwards. Replicas
	// fail reload closed: on error the old generation keeps serving.
	Reload(ctx context.Context) (generation int, err error)
	// Generation reports the repository generation currently serving.
	Generation(ctx context.Context) (generation int, err error)
}

// replicaError wraps a transient replica failure with its attribution.
type replicaError struct {
	Replica string
	Status  int // HTTP status when known, 0 for transport errors
	// RetryAfter carries the replica's Retry-After hint on 429/503
	// answers; the coordinator folds it into retry backoff and the
	// shard's backpressure signal. 0 means no hint.
	RetryAfter time.Duration
	Err        error
}

func (e *replicaError) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("replica %s: status %d: %v", e.Replica, e.Status, e.Err)
	}
	return fmt.Sprintf("replica %s: %v", e.Replica, e.Err)
}

func (e *replicaError) Unwrap() error { return e.Err }
