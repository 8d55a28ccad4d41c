// Command svq runs a query of the SQL-like dialect against one of the
// synthetic benchmark datasets, online (SVAQ/SVAQD) or offline (RVAQ),
// depending on the query.
//
// The PROCESS source names a stream: for -dataset youtube it is a query-set
// name (q1..q12, all videos of that set concatenated); for -dataset movies
// it is a movie title (e.g. titanic).
//
// Examples:
//
//	svq -query "SELECT MERGE(clipID) AS Sequence FROM (PROCESS q2 PRODUCE clipID,
//	     obj USING ObjectDetector, act USING ActionRecognizer)
//	     WHERE act='blowing_leaves' AND obj.include('car')"
//
//	svq -dataset movies -query "SELECT MERGE(clipID) AS s, RANK(act, obj)
//	     FROM (PROCESS titanic PRODUCE clipID, obj USING ObjectTracker, act USING ActionRecognizer)
//	     WHERE act='kissing' AND obj.include('surfboard','boat')
//	     ORDER BY RANK(act, obj) LIMIT 5"
//
// Prefixing a query with EXPLAIN additionally prints the predicate plan the
// execution ran with — the adaptive cheapest-rejection-first order, the
// declared order, and the per-predicate cost/selectivity statistics:
//
//	svq -query "EXPLAIN SELECT MERGE(clipID) AS Sequence FROM (PROCESS q2 ...) WHERE ..."
//
// The fsck subcommand verifies a saved repository offline — commit records,
// manifest checksums and invariants, the sections of each generation's table
// pack, table magic/checksums/sort order — and exits non-zero if any member
// is corrupt:
//
//	svq fsck ./repo
//
// The split subcommand partitions a repository by video into N shard
// repositories for sharded serving (cmd/serve -shard-name per shard,
// cmd/coordinator in front). Placement is deterministic by video name, so
// re-running split after re-ingest keeps every video on the same shard:
//
//	svq split -n 2 -out ./shards ./repo
//
// The trace subcommand explains retained queries from a running serve or
// coordinator process: with no argument it lists the retained trace index
// (GET /debug/traces), with a trace id it renders the full span tree as an
// ASCII waterfall (GET /debug/traces/{id}):
//
//	svq trace -server http://127.0.0.1:8090
//	svq trace -server http://127.0.0.1:8090 9a4ee1c2bb03d70f
//
// The rollout subcommand drives a coordinator's rolling generation swap
// (POST /rollout): shard replica sets are walked one replica at a time
// through drain → reload → verify, any failed step halts with the old
// generation still serving, and the command polls progress until the
// rollout completes or fails (exit 0 / 1):
//
//	svq rollout -server http://127.0.0.1:8090 -canary "SELECT ... LIMIT 1"
//	svq rollout -server http://127.0.0.1:8090 -status
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"svqact/internal/cluster"
	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/plan"
	"svqact/internal/rank"
	"svqact/internal/sqlq"
	"svqact/internal/stmt"
	"svqact/internal/synth"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "fsck" {
		os.Exit(runFsck(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "split" {
		os.Exit(runSplit(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		os.Exit(runTrace(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "rollout" {
		os.Exit(runRollout(os.Args[2:]))
	}
	var (
		query   = flag.String("query", "", "SQL-like query (reads stdin when empty)")
		dataset = flag.String("dataset", "youtube", "dataset: youtube or movies")
		scale   = flag.Float64("scale", 0.25, "dataset scale relative to the paper")
		seed    = flag.Int64("seed", 42, "dataset and model seed")
		algo    = flag.String("algo", "svaqd", "online algorithm: svaq or svaqd")
		p0      = flag.Float64("p0", 1e-4, "initial background probability")
		repo    = flag.String("repo", "", "answer ranked queries from a saved repository (built with cmd/ingest) instead of re-ingesting")
		cascade = flag.Bool("cascade", false, "run the detectors as tiered cascades (recall-complete distilled cheap tier in front of each model)")
		budget  = flag.Duration("budget", 0, "per-query inference budget (simulated model time); 0 means unlimited. Online queries degrade gracefully past it")
	)
	flag.Parse()
	if _, err := run(os.Stdout, *query, *dataset, *scale, *seed, *algo, *p0, *repo, *cascade, *budget); err != nil {
		fmt.Fprintln(os.Stderr, "svq:", err)
		os.Exit(1)
	}
}

// run executes one statement and renders its answer on w.
func run(w io.Writer, query, dataset string, scale float64, seed int64, algo string, p0 float64, repoDir string, cascade bool, budget time.Duration) (*stmt.Answer, error) {
	if query == "" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			return nil, err
		}
		query = string(data)
	}
	st, err := sqlq.Parse(query)
	if err != nil {
		return nil, err
	}
	plan, err := st.Plan()
	if err != nil {
		return nil, err
	}

	var obj detect.ObjectDetector = detect.NewObjectDetector(detect.MaskRCNN, seed)
	var act detect.ActionRecognizer = detect.NewActionRecognizer(detect.I3D, seed)
	if cascade {
		obj = detect.NewDistilledObjectCascade(obj, detect.DistilledRCNN, seed)
		act = detect.NewDistilledActionCascade(act, detect.DistilledI3D, seed)
	}
	models := detect.NewModels(obj, act)
	var meter detect.Meter
	env := stmt.Env{
		Models: models,
		Engine: core.DefaultConfig(),
		Stream: func(name string) (detect.TruthVideo, error) {
			return resolveSource(dataset, name, scale, seed)
		},
		Index: func(ctx context.Context, name string, stream detect.TruthVideo) (*rank.Index, error) {
			fmt.Fprintf(w, "ingesting %s ...\n", name)
			return rank.Ingest(ctx, stream, models, rank.PaperScoring(), rank.DefaultIngestConfig())
		},
	}
	env.Engine.P0Object, env.Engine.P0Action = p0, p0
	env.Engine.InferenceBudget = budget
	env.Engine.Meter = &meter
	if !plan.Online && repoDir != "" {
		repo, err := rank.OpenRepository(repoDir)
		if err != nil {
			return nil, err
		}
		defer repo.Close()
		fmt.Fprintf(w, "repository %s: %d videos\n", repoDir, len(repo.Videos()))
		if env.Repo, err = repo.Merged(); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	ans, err := stmt.Execute(context.Background(), plan, algo, env)
	if err != nil {
		return nil, err
	}
	printAnswer(w, plan, ans)
	if plan.Online {
		fmt.Fprintf(w, "engine time %v; inference: %d frames, %d shots (simulated %v)\n",
			time.Since(start).Round(time.Millisecond),
			meter.ObjectFrames(), meter.ActionShots(), meter.Cost(models).Round(time.Second))
	} else {
		fmt.Fprintf(w, "query time %v; %d random accesses, %d sorted accesses, %d clips scored\n",
			time.Since(start).Round(time.Millisecond), ans.RandomAccesses, ans.SortedAccesses, ans.ClipsScored)
	}
	if plan.Explain {
		fprintExplain(w, ans.Plan)
	}
	return ans, nil
}

// printAnswer renders a statement's answer: the result sequences (ranked
// ones with their scores, repository-backed ones by member video) and, for
// an online statement, each predicate's final background and critical value.
func printAnswer(w io.Writer, plan sqlq.Plan, ans *stmt.Answer) {
	q := fmt.Sprint(plan.Query)
	if plan.Extended {
		q = plan.CNF.String()
	}
	if plan.Online {
		fmt.Fprintf(w, "%s over %s: query %s, %d clips\n", ans.Mode, ans.Source, q, ans.NumClips)
		fmt.Fprintf(w, "result sequences (%d):\n", len(ans.Sequences))
	} else {
		fmt.Fprintf(w, "%s top-%d for %s over %s (%d candidate sequences):\n", ans.Mode, ans.K, q, ans.Source, ans.Candidates)
	}
	for i, sq := range ans.Sequences {
		if !plan.Online {
			fmt.Fprintf(w, "  #%-2d score %10.2f", i+1, sq.Score)
		}
		if sq.Video != "" {
			fmt.Fprintf(w, "  %s clips %d..%d\n", sq.Video, sq.StartClip, sq.EndClip)
		} else {
			fmt.Fprintf(w, "  clips %4d..%-4d  frames %6d..%-6d\n", sq.StartClip, sq.EndClip, sq.StartFrame, sq.EndFrame)
		}
	}
	for _, ps := range ans.Predicates {
		fmt.Fprintf(w, "predicate %-24s background=%.2e k_crit=%d positive clips=%d\n",
			ps.Name, ps.Background, ps.Critical, ps.Clips.TotalLen())
	}
}

func resolveSource(dataset, name string, scale float64, seed int64) (detect.TruthVideo, error) {
	switch dataset {
	case "youtube":
		d := synth.YouTube(synth.Options{Scale: scale, Seed: seed})
		spec := d.Query(name)
		if spec == nil {
			return nil, fmt.Errorf("unknown youtube query set %q (use q1..q12)", name)
		}
		var vids []*synth.Video
		for _, v := range d.Videos {
			if !v.ActionPresence(spec.Action).Empty() {
				vids = append(vids, v)
			}
		}
		return synth.NewConcat(name, vids)
	case "movies":
		d := synth.Movies(synth.Options{Scale: scale, Seed: seed})
		v := d.Video(name)
		if v == nil {
			return nil, fmt.Errorf("unknown movie %q", name)
		}
		return v, nil
	default:
		return nil, fmt.Errorf("unknown dataset %q", dataset)
	}
}

// fprintExplain renders a predicate-ordering plan report as the EXPLAIN
// block. Ordering is a cost decision only; EXPLAIN output never implies a
// different result. The tier columns and the budget line appear only on
// tiered plans; a single-tier plan renders byte-identically to the
// pre-cascade output.
func fprintExplain(w io.Writer, rep *plan.Report) {
	if rep == nil {
		fmt.Fprintln(w, "EXPLAIN: no predicate plan available for this execution path")
		return
	}
	mode := "adaptive (cheapest expected cost to reject first)"
	if !rep.Adaptive {
		mode = "pinned (declared order)"
	}
	fmt.Fprintf(w, "EXPLAIN predicate plan: %s\n", mode)
	fmt.Fprintf(w, "  order:    %s\n", strings.Join(rep.Order, " -> "))
	fmt.Fprintf(w, "  declared: %s\n", strings.Join(rep.Declared, " -> "))
	fmt.Fprintf(w, "  replans %d, observed clips %d, skipped evaluations %d, saved cost %.0f ms\n",
		rep.Replans, rep.ObservedClips, rep.SkippedEvaluations, rep.SavedCostMS)
	if b := rep.Budget; b != nil {
		status := "within budget"
		if b.Exhausted {
			status = "exhausted"
		}
		fmt.Fprintf(w, "  budget %.0f ms: spent %.0f ms, skipped %d clips (%s)\n",
			b.LimitMS, b.SpentMS, b.SkippedClips, status)
	}
	nodes := append([]plan.NodeReport(nil), rep.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Position < nodes[j].Position })
	if !rep.Tiered {
		fmt.Fprintf(w, "  %-4s %-24s %12s %12s %8s %14s %8s %8s\n",
			"pos", "predicate", "est cost", "obs cost", "reject", "cost/reject", "evals", "skips")
		for _, n := range nodes {
			fmt.Fprintf(w, "  %-4d %-24s %10.2fms %10.2fms %8.3f %12.2fms %8d %8d\n",
				n.Position, n.Name, n.EstimatedCostMS, n.ObservedCostMS,
				n.RejectRate, n.CostToRejectMS, n.ObservedEvaluations, n.SkippedEvaluations)
		}
		return
	}
	fmt.Fprintf(w, "  %-4s %-24s %12s %12s %8s %14s %8s %8s %-8s %8s\n",
		"pos", "predicate", "est cost", "obs cost", "reject", "cost/reject", "evals", "skips", "tier", "esc")
	for _, n := range nodes {
		tier, esc := "-", "-"
		if n.Tier != "" {
			tier = n.Tier
			esc = fmt.Sprintf("%.3f", n.EscalationRate)
		}
		fmt.Fprintf(w, "  %-4d %-24s %10.2fms %10.2fms %8.3f %12.2fms %8d %8d %-8s %8s\n",
			n.Position, n.Name, n.EstimatedCostMS, n.ObservedCostMS,
			n.RejectRate, n.CostToRejectMS, n.ObservedEvaluations, n.SkippedEvaluations, tier, esc)
		for _, t := range n.Tiers {
			fmt.Fprintf(w, "       tier %-18s unit %8.2fms units %8d escalated %8d rate %.3f spent %10.2fms\n",
				t.Name, t.UnitCostMS, t.Units, t.Escalated, t.EscalationRate, t.SpentMS)
		}
	}
}

// runFsck verifies one or more repository (or single-index) directories and
// reports every violated invariant. Exit code 0 means every committed
// generation is intact.
func runFsck(args []string) int {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	quiet := fs.Bool("q", false, "only report problems")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: svq fsck [-q] dir...")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	dirs := fs.Args()
	if len(dirs) == 0 {
		fs.Usage()
		return 2
	}
	exit := 0
	for _, dir := range dirs {
		reports, err := fsckDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svq fsck: %v\n", err)
			exit = 1
		}
		for _, rep := range reports {
			if !*quiet {
				fmt.Printf("ok %-32s gen %d  %6d clips  %2d object types  %d action types  %7d pack bytes\n",
					rep.Dir, rep.Generation, rep.NumClips, rep.Objects, rep.Actions, rep.PackBytes)
			}
			for _, w := range rep.Warnings {
				fmt.Printf("warn %s: %s\n", rep.Dir, w)
			}
		}
	}
	return exit
}

// runSplit partitions a repository into N shard repositories under -out,
// named shard0..shardN-1, using the cluster's stable video-name hash.
func runSplit(args []string) int {
	fs := flag.NewFlagSet("split", flag.ExitOnError)
	n := fs.Int("n", 2, "number of shards")
	out := fs.String("out", "", "output directory (shard repositories are created as <out>/shardK)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: svq split -n N -out dir repoDir")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if *n < 1 || *out == "" || fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	src := fs.Arg(0)
	dirs := make([]string, *n)
	for i := range dirs {
		dirs[i] = filepath.Join(*out, fmt.Sprintf("shard%d", i))
	}
	if err := cluster.SplitRepository(src, dirs); err != nil {
		fmt.Fprintln(os.Stderr, "svq split:", err)
		return 1
	}
	for i, dir := range dirs {
		reports, err := rank.FsckRepository(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svq split: verifying shard %d: %v\n", i, err)
			return 1
		}
		fmt.Printf("shard%d %s: %d members\n", i, dir, len(reports))
	}
	return 0
}

// fsckDir verifies dir as a single saved index when it holds a commit record
// itself, and as a repository of members otherwise.
func fsckDir(dir string) ([]*rank.FsckReport, error) {
	for _, marker := range []string{"CURRENT", "manifest.json"} {
		if _, err := os.Stat(filepath.Join(dir, marker)); err == nil {
			rep, err := rank.Fsck(dir)
			if err != nil {
				return nil, err
			}
			return []*rank.FsckReport{rep}, nil
		}
	}
	return rank.FsckRepository(dir)
}
