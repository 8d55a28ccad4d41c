package layers

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"svqact/benchmarks/workload"
	"svqact/internal/cluster"
	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/plan"
	"svqact/internal/rank"
	"svqact/internal/server"
	"svqact/internal/sqlq"
)

// Replica runs, inside the benchmark's process, what a workload's server
// processes run: the same handler, and below it the same public calls the
// handler makes — so each nesting level of a request can be timed on its
// own.
type Replica struct {
	spec  workload.Spec
	world *workload.World
	nproc int

	// handler is the serving entry point: server.Handler(), or for the
	// sharded workload a coordinator's handler over the real shard
	// processes.
	handler http.Handler
	// models are the detection models as the server builds them (cascaded
	// for the fleet workload); meter receives their accounting.
	models detect.Models
	meter  *detect.Meter
	// merged is the repository's merged index (ranked), shards the merged
	// index of each shard and local a coordinator over them without HTTP
	// (sharded).
	merged *rank.Index
	shards []*cluster.LocalBackend
	local  *cluster.Coordinator

	closers []func()
}

// Close releases the replica's repositories and servers.
func (r *Replica) Close() {
	for _, c := range r.closers {
		c()
	}
}

// NewReplica builds the in-process counterpart of a deployment. repoDir is
// the ingested repository of a ranked workload; shardURLs are the running
// shard processes of a sharded one.
func NewReplica(spec workload.Spec, world *workload.World, repoDir string, shardURLs []string, nproc int) (r *Replica, err error) {
	r = &Replica{spec: spec, world: world, nproc: nproc, meter: &detect.Meter{}}
	defer func() {
		if err != nil {
			r.Close()
			r = nil
		}
	}()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	openMerged := func(dir string) (*rank.Index, error) {
		ix, closeIx, err := OpenMerged(dir)
		if err != nil {
			return nil, err
		}
		r.closers = append(r.closers, closeIx)
		return ix, nil
	}
	switch {
	case spec.Sharded:
		var httpShards, localShards []cluster.ShardSpec
		for i, dir := range workload.ShardDirs(repoDir) {
			name := fmt.Sprintf("s%d", i)
			ix, err := openMerged(dir)
			if err != nil {
				return r, err
			}
			lb := cluster.NewLocalBackend(name+"-r0", 1, ix)
			r.shards = append(r.shards, lb)
			localShards = append(localShards, cluster.ShardSpec{Name: name, Replicas: []cluster.Backend{lb}})
			httpShards = append(httpShards, cluster.ShardSpec{Name: name,
				Replicas: []cluster.Backend{cluster.NewHTTPBackend(name+"-r0", shardURLs[i], nil)}})
		}
		front, err := cluster.New(httpShards, cluster.Config{})
		if err != nil {
			return r, err
		}
		r.handler = front.Handler()
		if r.local, err = cluster.New(localShards, cluster.Config{}); err != nil {
			return r, err
		}
	case spec.Ranked:
		if r.merged, err = openMerged(repoDir); err != nil {
			return r, err
		}
		srv := server.New(server.Config{Scale: world.Scale, Seed: world.Seed, RepoDir: repoDir, Logger: quiet})
		if err := srv.Reload(); err != nil {
			return r, err
		}
		r.handler = srv.Handler()
	default:
		cfg := server.Config{Scale: world.Scale, Seed: world.Seed, Logger: quiet}
		r.models = workload.Models(world.Seed)
		if spec.Fleet {
			cfg.Cascade, cfg.Workers = true, nproc
			base := r.models
			r.models = detect.NewModels(
				detect.NewDistilledObjectCascade(base.Objects, detect.DistilledRCNN, world.Seed),
				detect.NewDistilledActionCascade(base.Actions, detect.DistilledI3D, world.Seed),
			)
		}
		r.handler = server.New(cfg).Handler()
	}
	return r, nil
}

// OpenMerged opens the repository at dir and returns its merged index; the
// returned function releases the repository's files.
func OpenMerged(dir string) (*rank.Index, func(), error) {
	repo, err := rank.OpenRepository(dir)
	if err != nil {
		return nil, nil, err
	}
	ix, err := repo.Merged()
	if err != nil {
		repo.Close()
		return nil, nil, err
	}
	return ix, func() { repo.Close() }, nil
}

// Serve runs one request through the handler with no network in between and
// returns the response body.
func (r *Replica) Serve(body []byte) ([]byte, error) {
	req := httptest.NewRequest(http.MethodPost, r.spec.Path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	r.handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("layers: in-process handler answered %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec.Body.Bytes(), nil
}

// Parse is the handler's first step: statement text to execution plan.
func Parse(sql string) (sqlq.Plan, error) {
	st, err := sqlq.Parse(sql)
	if err != nil {
		return sqlq.Plan{}, err
	}
	return st.Plan()
}

// Work is what one engine or ranking call did, as the call itself reports it.
type Work struct {
	// Layer names the call: core.run, core.runcnf, core.runall, rank.rvaq,
	// rank.rvaqcnf or cluster.topk.
	Layer string
	// Clips is the number of clips the call ranged over.
	Clips int
	// Observed and Skipped count predicate evaluations made and spared by
	// the plan; Replans its order changes.
	Observed, Skipped int64
	Replans           int
	// PricedMS is the simulated inference time the call spent.
	PricedMS float64
	// Sorted and Random count table accesses; Rounds iterator rounds;
	// Scored clips fully scored; Candidate the clips of all candidate
	// sequences.
	Sorted, Random    int64
	Rounds            int
	Scored, Candidate int
}

// Add accumulates another call's counts (Layer and Clips excepted).
func (w *Work) Add(o Work) {
	w.Observed += o.Observed
	w.Skipped += o.Skipped
	w.Replans += o.Replans
	w.PricedMS += o.PricedMS
	w.Sorted += o.Sorted
	w.Random += o.Random
	w.Rounds += o.Rounds
	w.Scored += o.Scored
	w.Candidate += o.Candidate
}

// notePlan folds a run's plan report into the work.
func (w *Work) notePlan(p *plan.Report) {
	if p == nil {
		return
	}
	w.Skipped, w.Replans = p.SkippedEvaluations, p.Replans
	for _, n := range p.Nodes {
		w.Observed += n.ObservedEvaluations
	}
}

// Execute makes the call the handler makes for this plan — the engine for an
// online statement, RVAQ for a ranked one, the coordinator's scatter-gather
// for a sharded one — and reports what it did.
func (r *Replica) Execute(ctx context.Context, sql string, plan sqlq.Plan, algo string) (Work, error) {
	switch {
	case r.local != nil:
		if _, err := r.local.TopK(ctx, sql); err != nil {
			return Work{}, err
		}
		return Work{Layer: "cluster.topk"}, nil
	case r.merged != nil:
		var res *rank.Result
		var err error
		w := Work{Layer: "rank.rvaq"}
		if plan.Extended {
			w.Layer = "rank.rvaqcnf"
			res, err = rank.RVAQCNF(ctx, r.merged, plan.CNF, plan.K, rank.Options{})
		} else {
			res, err = rank.RVAQ(ctx, r.merged, plan.Query, plan.K, rank.Options{})
		}
		if err != nil {
			return Work{}, err
		}
		w.Clips = r.merged.NumClips
		w.Sorted, w.Random, w.Rounds, w.Scored = res.Stats.Sorted, res.Stats.Random, res.Rounds, res.ClipsScored
		if plan.Extended {
			if pq, err := r.merged.PqCNF(plan.CNF); err == nil {
				w.Candidate = pq.TotalLen()
			}
		} else if pq, err := r.merged.Pq(plan.Query); err == nil {
			w.Candidate = pq.TotalLen()
		}
		return w, nil
	}
	cfg := core.DefaultConfig()
	cfg.Meter = r.meter
	var eng *core.Engine
	var err error
	if algo == "svaq" {
		eng, err = core.NewSVAQ(r.models, cfg)
	} else {
		eng, err = core.NewSVAQD(r.models, cfg)
	}
	if err != nil {
		return Work{}, err
	}
	if r.spec.Fleet {
		vids, err := r.world.SetVideos(plan.Source)
		if err != nil {
			return Work{}, err
		}
		tvs := make([]detect.TruthVideo, len(vids))
		for i, v := range vids {
			tvs[i] = v
		}
		fr, err := eng.RunAll(ctx, tvs, plan.Query, core.FleetOptions{Workers: r.nproc, PerVideoTrace: true})
		if err != nil {
			return Work{}, err
		}
		w := Work{Layer: "core.runall", Clips: fr.ProcessedClips}
		w.notePlan(fr.Plan)
		for _, v := range fr.Videos {
			if v.Result != nil {
				w.PricedMS += ms(v.Result.InferenceCost)
			}
		}
		return w, nil
	}
	stream, err := r.world.Stream(plan.Source)
	if err != nil {
		return Work{}, err
	}
	if plan.Extended {
		res, err := eng.RunCNF(ctx, stream, plan.CNF)
		if err != nil {
			return Work{}, err
		}
		return Work{Layer: "core.runcnf", Clips: res.NumClips}, nil
	}
	res, err := eng.Run(ctx, stream, plan.Query)
	if err != nil {
		return Work{}, err
	}
	w := Work{Layer: "core.run", Clips: res.Processed, PricedMS: ms(res.InferenceCost)}
	w.notePlan(res.Plan)
	return w, nil
}

// ShardMax times the same ranked statement on every shard's own index and
// returns the slowest: what a scatter waits for when nothing else costs.
func (r *Replica) ShardMax(ctx context.Context, sql string) (time.Duration, error) {
	var slowest time.Duration
	for _, lb := range r.shards {
		start := time.Now()
		if _, err := lb.Query(ctx, cluster.Request{SQL: sql}); err != nil {
			return 0, err
		}
		if d := time.Since(start); d > slowest {
			slowest = d
		}
	}
	return slowest, nil
}

// InferenceUnits is the number of model inferences the replica's engine
// calls have charged so far.
func (r *Replica) InferenceUnits() int64 {
	return r.meter.ObjectFrames() + r.meter.ActionShots()
}

// Encode re-encodes a response body through the endpoint's own response
// type and times the encoding: the handler's last step.
func (r *Replica) Encode(body []byte) (time.Duration, error) {
	var v any
	switch {
	case r.spec.Sharded:
		v = &cluster.QueryAnswer{}
	case r.spec.Fleet:
		v = &server.BatchResponse{}
	default:
		v = &server.QueryResponse{}
	}
	if err := json.Unmarshal(body, v); err != nil {
		return 0, fmt.Errorf("layers: decoding a response for re-encoding: %w", err)
	}
	start := time.Now()
	err := json.NewEncoder(io.Discard).Encode(v)
	return time.Since(start), err
}

// Mallocs returns the process's cumulative heap allocation count.
func Mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}
