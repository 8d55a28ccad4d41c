package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"svqact/internal/obs"
	"svqact/internal/rank"
	"svqact/internal/sqlq"
)

// LocalBackend serves one shard from an in-process rank.Index — the test
// harness's replica, and the embedded single-process cluster mode. It
// implements the same ranked contract as a cmd/serve -repo process:
// offline statements only, honouring the coordinator's K override, and
// reporting Truncated/ResidualUpper for the distributed threshold.
type LocalBackend struct {
	name string

	// state is the serving (generation, index) pair, swapped atomically so
	// every query sees one consistent generation; staged is the next pair a
	// Reload will promote — the in-process equivalent of a committed
	// on-disk generation behind the CURRENT pointer.
	state  atomic.Pointer[localState]
	staged atomic.Pointer[localState]

	closed atomic.Bool
}

type localState struct {
	gen int
	ix  *rank.Index
}

// NewLocalBackend wraps a merged shard index. gen is reported as the
// serving generation.
func NewLocalBackend(name string, gen int, ix *rank.Index) *LocalBackend {
	b := &LocalBackend{name: name}
	b.state.Store(&localState{gen: gen, ix: ix})
	return b
}

// Close makes the backend refuse further queries — the in-process
// equivalent of killing the serving process.
func (b *LocalBackend) Close() { b.closed.Store(true) }

// Reopen reverses Close — the replica restarting.
func (b *LocalBackend) Reopen() { b.closed.Store(false) }

func (b *LocalBackend) Name() string { return b.name }

// StageGeneration stages the next (generation, index) pair for Reload to
// promote — the in-process analogue of committing a new generation to the
// shard's repository directory.
func (b *LocalBackend) StageGeneration(gen int, ix *rank.Index) {
	b.staged.Store(&localState{gen: gen, ix: ix})
}

// Reload promotes the staged generation, mirroring the serve process's
// fail-closed POST /repo/reload: with nothing staged the serving
// generation is simply re-reported (reloading to the same generation is a
// no-op, not an error), and a closed backend errors with the old state
// intact.
func (b *LocalBackend) Reload(ctx context.Context) (int, error) {
	if b.closed.Load() {
		return 0, &replicaError{Replica: b.name, Err: errors.New("backend closed")}
	}
	if next := b.staged.Swap(nil); next != nil {
		b.state.Store(next)
	}
	return b.state.Load().gen, nil
}

// Generation reports the serving generation.
func (b *LocalBackend) Generation(ctx context.Context) (int, error) {
	if b.closed.Load() {
		return 0, &replicaError{Replica: b.name, Err: errors.New("backend closed")}
	}
	return b.state.Load().gen, nil
}

// Healthy reports whether the backend can serve.
func (b *LocalBackend) Healthy(context.Context) error {
	if b.closed.Load() {
		return &replicaError{Replica: b.name, Err: errors.New("backend closed")}
	}
	return nil
}

// Query parses and answers one ranked statement against the shard index.
// Like a real serve process, the backend runs under its own trace — span
// offsets are relative to its own start — and reports the snapshot in the
// response, so the coordinator's graft path is exercised in-process too.
func (b *LocalBackend) Query(ctx context.Context, req Request) (*Response, error) {
	if b.closed.Load() {
		return nil, &replicaError{Replica: b.name, Err: errors.New("backend closed")}
	}
	// One atomic load: the whole query answers from a single consistent
	// (generation, index) pair even if a Reload swaps mid-flight.
	cur := b.state.Load()
	ltrace := obs.NewTrace(req.QueryID)
	ltrace.SetRemoteParent(req.ParentSpan)
	ctx = obs.WithTrace(ctx, ltrace)
	st, err := sqlq.Parse(req.SQL)
	if err != nil {
		return nil, &BadRequestError{Msg: err.Error()}
	}
	plan, err := st.Plan()
	if err != nil {
		return nil, &BadRequestError{Msg: err.Error()}
	}
	if plan.Online {
		return nil, &BadRequestError{Msg: "cluster: only ranked (ORDER BY rank() LIMIT k) statements shard"}
	}
	k := plan.K
	if req.K > 0 {
		k = req.K
	}
	var res *rank.Result
	if plan.Extended {
		res, err = rank.RVAQCNFShard(ctx, cur.ix, plan.CNF, k, rank.Options{})
	} else {
		res, err = rank.RVAQ(ctx, cur.ix, plan.Query, k, rank.Options{})
	}
	if err != nil {
		var miss *rank.NotIngestedError
		if errors.As(err, &miss) {
			// A shard holding a partial vocabulary answers "no candidates
			// here" for types it never ingested — other shards may hold
			// them, so this is neither a client nor a replica error.
			return &Response{Shard: b.name, Replica: b.name, Generation: cur.gen, Trace: ltrace.Snapshot()}, nil
		}
		return nil, &replicaError{Replica: b.name, Err: fmt.Errorf("shard query: %w", err)}
	}
	resp := &Response{
		Shard:         b.name,
		Replica:       b.name,
		Generation:    cur.gen,
		Candidates:    res.Candidates,
		Truncated:     res.Truncated,
		ResidualUpper: res.ResidualUpper,
		Trace:         ltrace.Snapshot(),
	}
	for _, sr := range res.Sequences {
		vid, local := cur.ix.Resolve(sr.Seq.Start)
		resp.Sequences = append(resp.Sequences, RankedSeq{
			Video:     vid,
			StartClip: local,
			EndClip:   local + sr.Seq.Len() - 1,
			Score:     sr.Score(),
			Lower:     sr.Lower,
			Upper:     sr.Upper,
			Exact:     sr.Exact,
		})
	}
	return resp, nil
}
