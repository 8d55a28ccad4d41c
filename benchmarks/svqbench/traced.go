package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"svqact/benchmarks/harness"
	"svqact/benchmarks/layers"
	"svqact/benchmarks/loadgen"
	"svqact/benchmarks/workload"
	"svqact/internal/sqlq"
)

// perLayer lists every per-layer metric with its unit, in report order. A
// traced run prints all of them on every workload; a layer a workload leaves
// idle reads 0, which is the prediction README.md states for it.
var perLayer = []struct{ name, unit, better string }{
	{"http.hop_ms", "ms", "lower"},
	{"server.handler_ms", "ms", "lower"},
	{"server.self_ms", "ms", "lower"},
	{"server.encode_us", "us", "lower"},
	{"server.response_bytes", "bytes", "lower"},
	{"server.allocs_per_query", "count", "lower"},
	{"server.cold_query_ms", "ms", "lower"},
	{"server.rejected", "count", "lower"},
	{"sqlq.parse_us", "us", "lower"},
	{"plan.order_ns", "ns", "lower"},
	{"plan.replans_per_query", "count", "lower"},
	{"plan.skipped_eval_ratio", "ratio", "higher"},
	{"core.run_ms", "ms", "lower"},
	{"core.runcnf_ms", "ms", "lower"},
	{"core.runall_ms", "ms", "lower"},
	{"core.clips_per_s", "clips/s", "higher"},
	{"core.allocs_per_run", "count", "lower"},
	{"core.fleet_videos_per_s", "videos/s", "higher"},
	{"core.fleet_speedup", "ratio", "higher"},
	{"detect.inferences_per_query", "count", "lower"},
	{"detect.units_per_query", "count", "lower"},
	{"detect.priced_ms_per_query", "ms", "lower"},
	{"detect.score_ns_per_unit", "ns", "lower"},
	{"detect.escalation_ratio", "ratio", "lower"},
	{"scanstat.grid_cold_s", "s", "lower"},
	{"scanstat.at_ns", "ns", "lower"},
	{"kernel.tick_ns", "ns", "lower"},
	{"rank.rvaq_ms", "ms", "lower"},
	{"rank.rvaqcnf_ms", "ms", "lower"},
	{"rank.accesses_per_query", "count", "lower"},
	{"rank.sorted_accesses_per_query", "count", "lower"},
	{"rank.random_accesses_per_query", "count", "lower"},
	{"rank.rounds_per_query", "count", "lower"},
	{"rank.skip_ratio", "ratio", "higher"},
	{"rank.ingest_clips_per_s", "clips/s", "higher"},
	{"rank.merge_ms", "ms", "lower"},
	{"rank.load_ms", "ms", "lower"},
	{"store.mem_sorted_at_ns", "ns", "lower"},
	{"store.mem_score_of_ns", "ns", "lower"},
	{"store.disk_sorted_at_ns", "ns", "lower"},
	{"store.disk_score_of_ns", "ns", "lower"},
	{"store.open_verify_ms", "ms", "lower"},
	{"store.write_table_ms", "ms", "lower"},
	{"store.fs_syncs_per_video", "count", "lower"},
	{"store.bytes_written_per_clip", "bytes", "lower"},
	{"store.bytes_per_clip", "bytes", "lower"},
	{"cluster.topk_local_ms", "ms", "lower"},
	{"cluster.self_ms", "ms", "lower"},
	{"cluster.shard_hops_ms", "ms", "lower"},
	{"cluster.rounds_per_query", "count", "lower"},
	{"cluster.shard_requests_per_query", "count", "lower"},
	{"cluster.shards_pruned_ratio", "ratio", "higher"},
	{"cluster.shard_latency_ms", "ms", "lower"},
	{"cluster.admission_wait_ms", "ms", "lower"},
	{"cluster.retries", "count", "lower"},
	{"cluster.hedges", "count", "lower"},
	{"obs.trace_overhead_ratio", "ratio", "lower"},
	{"synth.generate_s", "s", "lower"},
	{"setup.start_s", "s", "lower"},
	{"setup.warmup_s", "s", "lower"},
	{"setup.ingest_s", "s", "lower"},
	{"setup.split_s", "s", "lower"},
	{"loadgen.rtt_ms", "ms", "lower"},
	{"loadgen.trace_overhead_ratio", "ratio", "lower"},
	{"loadgen.lag_p99_ms", "ms", "lower"},
	{"loadgen.p99_ms", "ms", "lower"},
	{"loadgen.max_ms", "ms", "lower"},
	{"loadgen.samples", "count", "higher"},
	{"loadgen.fail_ratio", "ratio", "lower"},
	{"loadgen.slo_miss_ratio", "ratio", "lower"},
	{"budget_residual_ratio", "ratio", "lower"},
}

// budgetRows names the budget row each span's self time goes under.
var budgetRows = map[string]string{
	"http.roundtrip":  "http.hop",
	"server.handler":  "server.self",
	"cluster.handler": "cluster.shard_hops",
	"cluster.topk":    "cluster.self",
}

// tracedResult runs the traced single-client pass against a warmed system
// and its in-process replica, and derives the per-layer metrics and the
// layer budget. The end-to-end metrics never come from here.
func (s *system) tracedResult(ctx context.Context) (*result, error) {
	cfg, spec := s.cfg, s.cfg.spec
	v := map[string]float64{}
	res := &result{workload: spec.Name, traced: true}

	world := workload.NewWorld(worldSeed, cfg.scale)
	repoDir := filepath.Join(cfg.workDir, "repo")
	rep, err := layers.NewReplica(spec, world, repoDir, s.dep.Serves, cfg.env.NProc)
	if err != nil {
		return nil, err
	}
	defer rep.Close()
	stmts := s.pool.Statements

	// The replica's lazy state fills before anything is timed on it.
	plans := make([]sqlq.Plan, len(stmts))
	for i, st := range stmts {
		if _, err := rep.Serve(st.Body); err != nil {
			return nil, err
		}
		if plans[i], err = layers.Parse(st.SQL); err != nil {
			return nil, err
		}
		if _, err := rep.Execute(ctx, st.SQL, plans[i], st.Algo); err != nil {
			return nil, err
		}
	}
	// The same pass the set-up made cold, again now that the servers are
	// warm: the difference is their lazy state, nearly all of it the
	// critical-value grid.
	start := time.Now()
	for i := range stmts {
		if _, err := s.post(ctx, i); err != nil {
			return nil, err
		}
	}
	if !spec.Ranked {
		v["scanstat.grid_cold_s"] = max(0, s.setups[len(s.setups)-1].warmup-time.Since(start).Seconds())
	}

	if err := s.nestedPass(ctx, rep, plans, v, res); err != nil {
		return nil, err
	}
	s.generatorFigures(ctx, v, res)
	if err := s.counterFigures(v); err != nil {
		return nil, err
	}

	// Set-up phases of the one set-up a traced run makes.
	t := s.setups[len(s.setups)-1]
	v["synth.generate_s"] = t.generate
	v["setup.start_s"], v["setup.warmup_s"] = t.start, t.warmup
	v["setup.ingest_s"], v["setup.split_s"] = t.ingest, t.split
	v["server.cold_query_ms"] = 1000 * t.cold
	if t.ingest > 0 {
		v["rank.ingest_clips_per_s"] = t.ingested.ClipsPerSecond()
	}

	// Single layers, each on the workload that keeps it busy.
	if err := s.microFigures(ctx, world, repoDir, v); err != nil {
		return nil, err
	}
	for _, m := range perLayer {
		res.add(m.name, v[m.name], m.unit)
		delete(v, m.name)
	}
	for name := range v {
		return nil, fmt.Errorf("traced pass computed %s, which the per-layer list does not declare", name)
	}
	return res, nil
}

// nestedPass sends the deck-dealt sequence with one client on one connection:
// first untraced, then traced. The traced pass times every nesting level of
// a request back to back — round trip to the process, the handler
// in-process, the calls below the handler — so that a change of the host's
// speed between levels cannot pose as a layer's cost. It fills the figures
// read off those timings and the layer budget.
func (s *system) nestedPass(ctx context.Context, rep *layers.Replica, plans []sqlq.Plan, v map[string]float64, res *result) error {
	cfg, spec, stmts := s.cfg, s.cfg.spec, s.pool.Statements
	var err error
	n := max(2, cfg.seconds) * workload.DeckLen
	seq := s.pool.Sequence(2*cfg.seed, n)
	one := *s
	one.client = harness.NewClient(1)
	untraced := make([]float64, n)
	for i, st := range seq {
		t0 := time.Now()
		if !one.checked(ctx, st) {
			return fmt.Errorf("untraced pass: statement %d answered wrongly", st)
		}
		untraced[i] = ms(time.Since(t0))
	}

	rec := layers.NewRecorder()
	handlerName := "server.handler"
	if spec.Sharded {
		handlerName = "cluster.handler"
	}
	var tracedRTT, handlerMS, parseUS, encodeUS []float64
	byLayer := map[string][]float64{}
	var work layers.Work
	var coreClips int
	var coreTime time.Duration
	var respBytes, handlerAllocs, execAllocs, execUnits float64
	for i, st := range seq {
		stmt := stmts[st]
		var ok bool
		root, d := rec.Time("http.roundtrip", 0, i, func() { ok = one.checked(ctx, st) })
		if !ok {
			return fmt.Errorf("traced pass: statement %d answered wrongly", st)
		}
		tracedRTT = append(tracedRTT, ms(d))

		var body []byte
		mallocs := layers.Mallocs()
		handler, d := rec.Time(handlerName, root, i, func() { body, err = rep.Serve(stmt.Body) })
		if err != nil {
			return err
		}
		handlerAllocs += float64(layers.Mallocs() - mallocs)
		handlerMS = append(handlerMS, ms(d))
		respBytes += float64(len(body))

		units := rep.InferenceUnits()
		mallocs = layers.Mallocs()
		start := time.Now()
		w, err := rep.Execute(ctx, stmt.SQL, plans[st], stmt.Algo)
		if err != nil {
			return err
		}
		d = time.Since(start)
		execAllocs += float64(layers.Mallocs() - mallocs)
		execUnits += float64(rep.InferenceUnits() - units)
		engine := rec.Add(w.Layer, handler, i, start, d)
		byLayer[w.Layer] = append(byLayer[w.Layer], ms(d))
		if !spec.Ranked {
			coreClips += w.Clips
			coreTime += d
		}
		work.Add(w)

		parseParent := handler
		if spec.Sharded {
			// The coordinator parses inside TopK, and what TopK waits for
			// is its slowest shard's own ranking.
			parseParent = engine
			start := time.Now()
			sm, err := rep.ShardMax(ctx, stmt.SQL)
			if err != nil {
				return err
			}
			rec.Add("rank.shard_max", engine, i, start, sm)
		}
		_, d = rec.Time("sqlq.parse", parseParent, i, func() { _, err = layers.Parse(stmt.SQL) })
		if err != nil {
			return err
		}
		parseUS = append(parseUS, 1000*ms(d))
		start = time.Now()
		enc, err := rep.Encode(body)
		if err != nil {
			return err
		}
		rec.Add("server.encode", handler, i, start, enc)
		encodeUS = append(encodeUS, 1000*ms(enc))
	}
	fn := float64(n)
	res.attempted = len(s.setups)*len(stmts) + 2*n
	v["loadgen.rtt_ms"] = loadgen.Median(untraced)
	v["loadgen.trace_overhead_ratio"] = loadgen.Median(tracedRTT) / loadgen.Median(untraced)
	v["server.allocs_per_query"] = handlerAllocs / fn
	v["server.handler_ms"] = loadgen.Median(handlerMS)
	v["server.response_bytes"] = respBytes / fn
	v["sqlq.parse_us"] = loadgen.Median(parseUS)
	v["server.encode_us"] = loadgen.Median(encodeUS)
	for layer, name := range map[string]string{
		"core.run": "core.run_ms", "core.runcnf": "core.runcnf_ms", "core.runall": "core.runall_ms",
		"rank.rvaq": "rank.rvaq_ms", "rank.rvaqcnf": "rank.rvaqcnf_ms", "cluster.topk": "cluster.topk_local_ms",
	} {
		if t := byLayer[layer]; len(t) > 0 {
			v[name] = loadgen.Median(t)
		}
	}
	if !spec.Ranked {
		v["core.clips_per_s"] = float64(coreClips) / coreTime.Seconds()
		v["core.allocs_per_run"] = execAllocs / fn
		v["detect.units_per_query"] = execUnits / fn
		v["detect.priced_ms_per_query"] = work.PricedMS / fn
		v["plan.replans_per_query"] = float64(work.Replans) / fn
		if total := work.Observed + work.Skipped; total > 0 {
			v["plan.skipped_eval_ratio"] = float64(work.Skipped) / float64(total)
		}
	}
	if spec.Ranked && !spec.Sharded {
		v["rank.sorted_accesses_per_query"] = float64(work.Sorted) / fn
		v["rank.random_accesses_per_query"] = float64(work.Random) / fn
		v["rank.rounds_per_query"] = float64(work.Rounds) / fn
		if work.Candidate > 0 {
			v["rank.skip_ratio"] = 1 - float64(work.Scored)/float64(work.Candidate)
		}
	}

	// The budget, and the figures read off it.
	spans := rec.Spans()
	budget := layers.NewBudget(spans, budgetRows)
	res.budget = budget.String()
	v["budget_residual_ratio"] = budget.ResidualRatio()
	for _, row := range budget.Rows {
		switch row.Name {
		case "http.hop":
			v["http.hop_ms"] = row.MedianMS
		case "server.self":
			v["server.self_ms"] = row.MedianMS
		case "cluster.self":
			v["cluster.self_ms"] = row.MedianMS
		case "cluster.shard_hops":
			v["cluster.shard_hops_ms"] = row.MedianMS
		}
	}
	if err := rec.WriteFile(filepath.Join(cfg.env.OutDir, spec.Name+".trace.json")); err != nil {
		return err
	}

	return nil
}

// generatorFigures runs a short open loop for the generator's own
// diagnostics.
func (s *system) generatorFigures(ctx context.Context, v map[string]float64, res *result) {
	cfg, spec := s.cfg, s.cfg.spec
	decks := max(1, int(spec.Rate*float64(cfg.seconds)/4/workload.DeckLen+0.5))
	due := loadgen.Schedule(cfg.seed, spec.Rate, decks*workload.DeckLen)
	openSeq := s.pool.Sequence(2*cfg.seed+1, len(due))
	open := loadgen.Open(ctx, cfg.env.NProc, due, spec.Limit, func(ctx context.Context, i int) bool {
		return s.checked(ctx, openSeq[i])
	})
	res.attempted += len(open.LatencyMS)
	res.failed += open.Failed
	v["loadgen.samples"] = float64(len(open.LatencyMS))
	v["loadgen.lag_p99_ms"] = loadgen.Quantile(open.LagMS, 0.99)
	v["loadgen.p99_ms"] = loadgen.Quantile(open.LatencyMS, 0.99)
	v["loadgen.max_ms"] = loadgen.Quantile(open.LatencyMS, 1)
	v["loadgen.fail_ratio"] = float64(res.failed) / float64(res.attempted)
	v["loadgen.slo_miss_ratio"] = float64(open.Missed) / float64(max(len(open.LatencyMS), 1))
	if len(open.LatencyMS) != len(due) {
		res.invalid = append(res.invalid, fmt.Sprintf("open loop sent %d requests, the schedule held %d", len(open.LatencyMS), len(due)))
	}

}

// counterFigures reads what the processes export: the verification pass's
// exact counts, and whole-run totals for what must stay zero.
func (s *system) counterFigures(v map[string]float64) error {
	spec := s.cfg.spec
	c := s.counts
	fs := float64(c.statements)
	v["detect.inferences_per_query"] = c.inferences / fs
	v["rank.accesses_per_query"] = (c.sortedAccess + c.randomAccess) / fs
	if c.tierUnits > 0 {
		v["detect.escalation_ratio"] = c.tierEscalated / c.tierUnits
	}
	if spec.Sharded {
		v["rank.sorted_accesses_per_query"] = c.sortedAccess / fs
		v["rank.random_accesses_per_query"] = c.randomAccess / fs
		v["cluster.shard_requests_per_query"] = c.shardRequests / fs
		v["cluster.rounds_per_query"] = 1 + c.refineRounds/fs
		v["cluster.shards_pruned_ratio"] = c.shardsPruned / (fs * workload.Shards)
	}
	final, err := s.scrape()
	if err != nil {
		return err
	}
	v["server.rejected"] = final.Family("svqact_queries_rejected_total") + final.Family("svqact_cluster_admission_rejected_total")
	v["cluster.retries"] = final.Family("svqact_cluster_retries_total")
	v["cluster.hedges"] = final.Family("svqact_cluster_hedges_total")
	if cnt := final.Family("svqact_cluster_shard_latency_seconds_count"); cnt > 0 {
		v["cluster.shard_latency_ms"] = 1000 * final.Family("svqact_cluster_shard_latency_seconds_sum") / cnt
	}
	if cnt := final.Family("svqact_cluster_admission_wait_seconds_count"); cnt > 0 {
		v["cluster.admission_wait_ms"] = 1000 * final.Family("svqact_cluster_admission_wait_seconds_sum") / cnt
	}

	return nil
}

// microFigures runs the single-layer measurements a workload calls for.
func (s *system) microFigures(ctx context.Context, world *workload.World, repoDir string, v map[string]float64) error {
	spec := s.cfg.spec
	if !spec.Ranked {
		k, err := layers.Kernels()
		if err != nil {
			return err
		}
		v["scanstat.at_ns"], v["kernel.tick_ns"], v["plan.order_ns"] = k.ScanstatAtNS, k.KernelTickNS, k.PlanOrderNS
		v["detect.score_ns_per_unit"] = layers.DetectScoreNS(world)
	}
	switch {
	case spec.Fleet:
		f, err := layers.Fleet(ctx, world, s.cfg.env.NProc)
		if err != nil {
			return err
		}
		v["core.fleet_videos_per_s"], v["core.fleet_speedup"] = f.VideosPerSecond, f.Speedup
	case !spec.Ranked:
		e, err := layers.Engine(ctx, world)
		if err != nil {
			return err
		}
		v["obs.trace_overhead_ratio"] = e.TraceOverheadRatio
		// The pass above counts allocations of the whole statement mix;
		// this is the bound the repository's own tests enforce, on one run.
		v["core.allocs_per_run"] = e.AllocsPerRun
	case spec.Ranked:
		dir := repoDir
		if spec.Sharded {
			dir = workload.ShardDirs(repoDir)[0]
		}
		r, err := layers.Repo(dir)
		if err != nil {
			return err
		}
		v["rank.load_ms"], v["rank.merge_ms"] = r.LoadMS, r.MergeMS
		if !spec.Sharded {
			ix, closeIx, err := layers.OpenMerged(repoDir)
			if err != nil {
				return err
			}
			defer closeIx()
			st, err := layers.Store(ix, s.cfg.workDir)
			if err != nil {
				return err
			}
			v["store.mem_sorted_at_ns"], v["store.mem_score_of_ns"] = st.MemSortedAtNS, st.MemScoreOfNS
			v["store.disk_sorted_at_ns"], v["store.disk_score_of_ns"] = st.DiskSortedAtNS, st.DiskScoreOfNS
			v["store.write_table_ms"], v["store.open_verify_ms"], v["store.bytes_per_clip"] = st.WriteTableMS, st.OpenVerifyMS, st.BytesPerClip
			w, err := layers.WritePath(ctx, world, s.cfg.workDir)
			if err != nil {
				return err
			}
			v["store.fs_syncs_per_video"], v["store.bytes_written_per_clip"] = w.SyncsPerVideo, w.BytesWrittenPerClip
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
