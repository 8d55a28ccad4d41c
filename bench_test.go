// Package svqact's root benchmark suite regenerates every table and figure
// of the paper's evaluation as testing.B benchmarks (one per experiment,
// over the shared benchmark workspace) and adds microbenchmarks for the
// engine's core primitives. Run with
//
//	go test -bench=. -benchmem
//
// The per-experiment benchmarks report the wall time of one full experiment
// regeneration at the benchmark scale; cmd/experiments prints the actual
// result tables.
package svqact

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"svqact/benchmarks/workload"
	"svqact/internal/bench"
	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/kernel"
	"svqact/internal/obs"
	"svqact/internal/rank"
	"svqact/internal/scanstat"
	"svqact/internal/server"
	"svqact/internal/sqlq"
	"svqact/internal/stmt"
	"svqact/internal/store"
	"svqact/internal/synth"
	"svqact/internal/video"
)

var (
	wsOnce sync.Once
	ws     *bench.Workspace
)

func workspace() *bench.Workspace {
	wsOnce.Do(func() {
		ws = bench.NewWorkspace(bench.Options{Scale: 0.15, Seed: 42})
	})
	return ws
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e := bench.Find(id)
	if e == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	w := workspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(w); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper table and figure (see DESIGN.md's experiment
// index and EXPERIMENTS.md for the regenerated numbers).

func BenchmarkFig2_BackgroundProbability(b *testing.B) { runExperiment(b, "fig2") }
func BenchmarkFig3_F1AllQueries(b *testing.B)          { runExperiment(b, "fig3") }
func BenchmarkTable3_PredicateVariation(b *testing.B)  { runExperiment(b, "table3") }
func BenchmarkTable4_DetectionModels(b *testing.B)     { runExperiment(b, "table4") }
func BenchmarkTable5_NoiseElimination(b *testing.B)    { runExperiment(b, "table5") }
func BenchmarkFig4_ClipSizeSequences(b *testing.B)     { runExperiment(b, "fig4") }
func BenchmarkFig5_ClipSizeFrameF1(b *testing.B)       { runExperiment(b, "fig5") }
func BenchmarkRuntimeDecomposition(b *testing.B)       { runExperiment(b, "runtime") }
func BenchmarkTable6_CoffeeAndCigarettes(b *testing.B) { runExperiment(b, "table6") }
func BenchmarkTable7_YouTubeOffline(b *testing.B)      { runExperiment(b, "table7") }
func BenchmarkTable8_MovieSpeedup(b *testing.B)        { runExperiment(b, "table8") }
func BenchmarkOfflineAccuracy(b *testing.B)            { runExperiment(b, "accuracy") }

// Ablation benchmarks (design choices called out in DESIGN.md).

func BenchmarkAblationPredicateOrder(b *testing.B) { runExperiment(b, "ablation-order") }
func BenchmarkAblationShortCircuit(b *testing.B)   { runExperiment(b, "ablation-shortcircuit") }
func BenchmarkAblationHorizon(b *testing.B)        { runExperiment(b, "ablation-horizon") }
func BenchmarkDrift(b *testing.B)                  { runExperiment(b, "drift") }
func BenchmarkExtendedQueries(b *testing.B)        { runExperiment(b, "extended") }

// Microbenchmarks of the engine's primitives.

func BenchmarkScanStatCriticalValue(b *testing.B) {
	ps := []float64{1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Vary p slightly so the process-wide memo only starts to hit after
		// 6*97 distinct points: short runs time the search (three binomial
		// tables + an O(k) closed form per bisection step), long runs the
		// memo lookup.
		p := ps[i%len(ps)] * (1 + float64(i%97)/1e4)
		scanstat.CriticalValue(50, p, 20, 0.05)
	}
}

func BenchmarkKernelTick(b *testing.B) {
	est, err := kernel.NewEstimator(2500, 1e-4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		est.TickN(50, i%5)
	}
}

func BenchmarkIntervalIntersect(b *testing.B) {
	mk := func(stride int) video.IntervalSet {
		var ivs []video.Interval
		for s := 0; s < 100_000; s += stride {
			ivs = append(ivs, video.Interval{Start: s, End: s + stride/2})
		}
		return video.NewIntervalSet(ivs...)
	}
	a, c := mk(37), mk(53)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.IntersectSet(c)
	}
}

func benchVideo(b *testing.B) *synth.Video {
	b.Helper()
	v, err := synth.Generate(synth.Script{
		ID: "bench", Frames: 30_000, FPS: 10, Geometry: video.DefaultGeometry, Seed: 5,
		Actions: []synth.ActionSpec{{Name: "jumping", MeanGapShots: 120, MeanDurShots: 30}},
		Objects: []synth.ObjectSpec{
			{Name: "human", MeanDurFrames: 300, CorrelatedWith: "jumping", CorrelationProb: 0.95},
			{Name: "car", MeanGapFrames: 3000, MeanDurFrames: 400},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return v
}

func BenchmarkDetectorFrameScore(b *testing.B) {
	v := benchVideo(b)
	d := detect.NewObjectDetector(detect.MaskRCNN, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.FrameScore(v, "car", i%v.NumFrames())
	}
}

// onlineDeckScale is the dataset scale of the online deck's world: the
// served benchmark's own (seed 42, as every svqbench run).
const onlineDeckScale = 1.0

var (
	onlineOnce             sync.Once
	onlineYT, onlineMovies *synth.Dataset
)

// onlineDatasets generates the served benchmark's world once.
func onlineDatasets() (youtube, movies *synth.Dataset) {
	onlineOnce.Do(func() {
		opts := synth.Options{Scale: onlineDeckScale, Seed: 42}
		onlineYT, onlineMovies = synth.YouTube(opts), synth.Movies(opts)
	})
	return onlineYT, onlineMovies
}

// youTubeSet resolves a YouTube query's source as the server does: the
// concatenation of the set's videos in which its action occurs.
func youTubeSet(b *testing.B, q synth.QuerySpec) detect.TruthVideo {
	b.Helper()
	yt, _ := onlineDatasets()
	var vids []*synth.Video
	for _, v := range yt.Videos {
		if !v.ActionPresence(q.Action).Empty() {
			vids = append(vids, v)
		}
	}
	c, err := synth.NewConcat(q.Name, vids)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkScoreClip times the one unit-scoring call every predicate
// evaluation makes — a clip's frames through Scorer.Score into a reused
// account — for a plain model (one batch call), a cascade (batch the cheap
// tier, then each run of frames it escalates in one batch at the teacher)
// and a fallible model (batches that stop at a failed frame, retry it alone
// and resume, under 20 % transient faults), on a sparse type; then the plain
// model and the cascade on the ubiquitous, many-instance "person" of a movie,
// where most frames escalate, the plain model on the "person" of a YouTube
// set's concatenation (the streams the online workload scores), and the
// action recogniser over a clip's shots. Rows named @0.5 score at the default
// threshold, as an online atom does, deciding each unit's side of it; the
// others score in full. The walker allocates nothing itself (detect's
// TestScoreAllocsSteadyState); the fallible model's allocs/op are its error
// values.
func BenchmarkScoreClip(b *testing.B) {
	v := benchVideo(b)
	teacher := detect.NewObjectDetector(detect.MaskRCNN, 1)
	i3d := detect.NewActionRecognizer(detect.I3D, 1)
	cascade := detect.NewDistilledObjectCascade(teacher, detect.DistilledRCNN, 1)
	_, movies := onlineDatasets()
	movie, concat := movies.Videos[0], youTubeSet(b, synth.YouTubeQueries()[0])
	const tau = detect.DefaultThreshold
	for _, c := range []struct {
		name, label string
		model       detect.Model
		video       detect.TruthVideo
		tau         float64
		shots       bool // the model scores shots, not frames
	}{
		{"single", "car", teacher, v, 0, false},
		{"single@0.5", "car", teacher, v, tau, false},
		{"cascade", "car", cascade, v, 0, false},
		{"cascade@0.5", "car", cascade, v, tau, false},
		{"fallible", "car", detect.InjectObjectFaults(teacher, detect.FaultConfig{TransientRate: 0.2, Seed: 1}), v, 0, false},
		{"person", "person", teacher, movie, 0, false},
		{"person@0.5", "person", teacher, movie, tau, false},
		{"cascade-person", "person", cascade, movie, 0, false},
		{"cascade-person@0.5", "person", cascade, movie, tau, false},
		{"concat", "person", teacher, concat, 0, false},
		{"concat@0.5", "person", teacher, concat, tau, false},
		{"shots", "jumping", i3d, v, 0, true},
		{"shots@0.5", "jumping", i3d, v, tau, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			v, g := c.video, c.video.Geometry()
			units, clips := g.FramesPerClip(), g.NumClips(v.NumFrames())
			if c.shots {
				units = g.ShotsPerClip
			}
			chain := detect.ScorerOf(c.model)
			var acc detect.Account
			dst := make([]float64, units)
			retry := detect.RetryConfig{Attempts: 16} // no backoff: time the walk, not the sleeps
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc.Reset(len(chain.Tiers()))
				if _, err := chain.Score(context.Background(), v, c.label, i%clips*units, 0, dst, c.tau, 0, retry, &acc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*units), "ns/unit")
		})
	}
}

// BenchmarkSVAQDClip times one clip of the engine's loop (ns/op is per
// clip): a basic conjunction stepped through the streaming API, and an
// OR-group through RunCNF, whose whole-video runs are counted clip by clip.
func BenchmarkSVAQDClip(b *testing.B) {
	v := benchVideo(b)
	models := detect.NewModels(detect.NewObjectDetector(detect.MaskRCNN, 1), detect.NewActionRecognizer(detect.I3D, 1))
	eng, err := core.NewSVAQD(models, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("conjunction", func(b *testing.B) {
		q := core.Query{Objects: []string{"car"}, Action: "jumping"}
		for i := 0; i < b.N; {
			run, err := eng.NewRun(context.Background(), v, q)
			if err != nil {
				b.Fatal(err)
			}
			for run.Step() && i < b.N {
				i++
			}
		}
	})
	b.Run("or-group", func(b *testing.B) {
		q := core.CNF{Clauses: []core.Clause{
			{Atoms: []core.Atom{core.ActionAtom("jumping"), core.ObjectAtom("car")}},
			{Atoms: []core.Atom{core.ObjectAtom("human")}},
		}}
		for i := 0; i < b.N; {
			res, err := eng.RunCNF(context.Background(), v, q)
			if err != nil {
				b.Fatal(err)
			}
			i += res.NumClips
		}
	})
}

// BenchmarkOnlineDeck runs the statement shapes of the served benchmark's
// online pool over its scale-1.0 world, each class one op: svaqd (every
// YouTube set with no object, person, each object alone and with person,
// and the pair), svaq (the set's action with all objects and alone, under
// static critical values), cnf (the two OR-group shapes with person) and
// movie (a movie's action with its object and with person). units/op is the
// detector units scored per pass: the paper's cost, which moves only when
// what the engine scores moves (stopping an unsampled clip's evaluation at
// its decision lowered it, and so did leaving SVAQ's bootstrap unsampled and
// stopping SVAQ's sampled evaluations at their decision too) and never with
// an optimisation of CPU alone.
func BenchmarkOnlineDeck(b *testing.B) {
	_, movies := onlineDatasets()
	meter := &detect.Meter{}
	cfg := core.DefaultConfig()
	cfg.Meter = meter
	models := detect.NewModels(detect.NewObjectDetector(detect.MaskRCNN, 42), detect.NewActionRecognizer(detect.I3D, 42))
	svaqd, err := core.NewSVAQD(models, cfg)
	if err != nil {
		b.Fatal(err)
	}
	svaq, err := core.NewSVAQ(models, cfg)
	if err != nil {
		b.Fatal(err)
	}
	type statement func() (*core.Result, error)
	basic := func(eng *core.Engine, v detect.TruthVideo, action string, objects ...string) statement {
		q := core.Query{Objects: objects, Action: action}
		return func() (*core.Result, error) { return eng.Run(context.Background(), v, q) }
	}
	decks := map[string][]statement{}
	for _, q := range synth.YouTubeQueries() {
		v := youTubeSet(b, q)
		subsets := [][]string{nil, {"person"}}
		for _, o := range q.Objects {
			subsets = append(subsets, []string{o}, []string{o, "person"})
		}
		if len(q.Objects) >= 2 {
			subsets = append(subsets, q.Objects[:2])
		}
		for _, objs := range subsets {
			decks["svaqd"] = append(decks["svaqd"], basic(svaqd, v, q.Action, objs...))
		}
		decks["svaq"] = append(decks["svaq"], basic(svaq, v, q.Action, q.Objects...), basic(svaq, v, q.Action))
		act, obj, person := core.ActionAtom(q.Action), core.ObjectAtom(q.Objects[0]), core.ObjectAtom("person")
		for _, cnf := range []core.CNF{
			{Clauses: []core.Clause{{Atoms: []core.Atom{act, obj}}, {Atoms: []core.Atom{person}}}},
			{Clauses: []core.Clause{{Atoms: []core.Atom{act}}, {Atoms: []core.Atom{obj, person}}}},
		} {
			decks["cnf"] = append(decks["cnf"], func() (*core.Result, error) { return svaqd.RunCNF(context.Background(), v, cnf) })
		}
	}
	for _, m := range synth.MovieQueries() {
		v := movies.Video(m.Name)
		decks["movie"] = append(decks["movie"], basic(svaqd, v, m.Action, m.Objects[0]), basic(svaqd, v, m.Action, "person"))
	}
	for _, class := range []string{"svaqd", "svaq", "cnf", "movie"} {
		deck := decks[class]
		b.Run(class, func(b *testing.B) {
			for _, run := range deck { // warm: critical-value grids, scratch pools, overlays
				if _, err := run(); err != nil {
					b.Fatal(err)
				}
			}
			units := func() int64 { return meter.ObjectFrames() + meter.ActionShots() }
			before := units()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, run := range deck {
					if _, err := run(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(units()-before)/float64(b.N), "units/op")
			b.ReportMetric(float64(len(deck)), "statements/op")
		})
	}
}

// BenchmarkFleetCascade runs one statement of the fleet workload's shape the
// way /query/batch serves it with cascades: a YouTube set's action with its
// first object and person, through stmt.ExecuteFleet over the set's videos
// with two workers, each model a recall-complete distilled proxy gating the
// accurate one. units/op is the detector units scored and escalations/op the
// units the proxies passed up to their teachers: the paper's cost, which
// moves only when what the walk scores moves (stopping an unsampled clip's
// evaluation at its decision lowered both, and so did leaving the
// bootstrap of runs too short for the estimator unsampled, and stopping
// those runs' sampled evaluations at their decision) and never with an
// optimisation of CPU alone.
func BenchmarkFleetCascade(b *testing.B) {
	yt, _ := onlineDatasets()
	q := synth.YouTubeQueries()[0]
	var vids []detect.TruthVideo
	for _, v := range yt.Videos {
		if !v.ActionPresence(q.Action).Empty() {
			vids = append(vids, v)
		}
	}
	obj, act := detect.NewObjectDetector(detect.MaskRCNN, 42), detect.NewActionRecognizer(detect.I3D, 42)
	meter, reg := &detect.Meter{}, obs.NewRegistry()
	meter.Register(reg)
	cfg := core.DefaultConfig()
	cfg.Meter = meter
	env := stmt.Env{
		Models: detect.NewModels(detect.NewDistilledObjectCascade(obj, detect.DistilledRCNN, 42), detect.NewDistilledActionCascade(act, detect.DistilledI3D, 42)),
		Engine: cfg,
		Videos: func(string) ([]detect.TruthVideo, error) { return vids, nil },
	}
	st, err := sqlq.Parse(fmt.Sprintf("SELECT MERGE(clipID) AS s FROM (PROCESS %s PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer) WHERE act='%s' AND obj.include('%s', 'person')", q.Name, q.Action, q.Objects[0]))
	if err != nil {
		b.Fatal(err)
	}
	p, err := st.Plan()
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		if _, fr, err := stmt.ExecuteFleet(context.Background(), p, "svaqd", env, core.FleetOptions{Workers: 2}); err != nil || fr.OK != len(vids) {
			b.Fatalf("fleet: %v", err)
		}
	}
	run() // warm: critical-value grids, scratch pools, overlays
	units := func() float64 { return float64(meter.ObjectFrames() + meter.ActionShots()) }
	u0, e0 := units(), escalations(b, reg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	b.ReportMetric((units()-u0)/float64(b.N), "units/op")
	b.ReportMetric((escalations(b, reg)-e0)/float64(b.N), "escalations/op")
}

// BenchmarkBatchBody serves one /query/batch request of the fleet
// workload's shape end to end through the server's handler: a 13-video
// YouTube set (q1 at scale 0.95), cascades on, two workers, the action with
// its first object and person. It times handler to bytes — decode, plan,
// the fleet run, the response and its encoding — so B/op and allocs/op show
// what the body costs on top of the run; bytes/op is the body's size.
func BenchmarkBatchBody(b *testing.B) {
	s := server.New(server.Config{Scale: 0.95, Seed: 42, Cascade: true, Workers: 2,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	q := synth.YouTubeQueries()[0]
	req, err := json.Marshal(server.BatchRequest{SQL: fmt.Sprintf("SELECT MERGE(clipID) AS s FROM (PROCESS %s PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer) WHERE act='%s' AND obj.include('%s', 'person')", q.Name, q.Action, q.Objects[0])})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	var w bodyCounter
	serve := func() {
		w.header, w.status = http.Header{}, 0
		h.ServeHTTP(&w, httptest.NewRequest(http.MethodPost, "/query/batch", bytes.NewReader(req)))
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
	serve() // warm: dataset, critical-value grids, scratch pools
	var resp server.BatchResponse
	if err := json.Unmarshal(w.last, &resp); err != nil || resp.NumVideos != 13 {
		b.Fatalf("warm-up body: %d videos (%v)", resp.NumVideos, err)
	}
	w.bytes = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.StopTimer()
	b.ReportMetric(float64(w.bytes)/float64(b.N), "bytes/op")
}

// BenchmarkQueryBody serves the online workload's statement pool
// (workload.OnlinePool: the svaqd, svaq, cnf and movie classes, each class
// one op) through the server's handler at /query over its scale-1.0 world,
// the way BenchmarkBatchBody serves a batch. It times handler to bytes —
// decode, plan, the traced run, the response and its encoding — so B/op and
// allocs/op show what a served statement costs; bytes/op is the bodies'
// size.
func BenchmarkQueryBody(b *testing.B) {
	s := server.New(server.Config{Scale: workload.Scale, Seed: 42,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	h := s.Handler()
	decks := map[string][][]byte{}
	for _, st := range workload.OnlinePool().Statements {
		decks[st.Class] = append(decks[st.Class], st.Body)
	}
	var w bodyCounter
	serve := func(b *testing.B, body []byte) {
		w.header, w.status = http.Header{}, 0
		h.ServeHTTP(&w, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		if w.status != http.StatusOK {
			b.Fatalf("status %d for %s: %s", w.status, body, w.last)
		}
	}
	for _, class := range []string{"svaqd", "svaq", "cnf", "movie"} {
		deck := decks[class]
		b.Run(class, func(b *testing.B) {
			for _, body := range deck { // warm: datasets, critical-value grids, scratch pools
				serve(b, body)
			}
			w.bytes = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, body := range deck {
					serve(b, body)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(w.bytes)/float64(b.N), "bytes/op")
			b.ReportMetric(float64(len(deck)), "statements/op")
		})
	}
}

// bodyCounter is a ResponseWriter that counts the body bytes and keeps the
// last write.
type bodyCounter struct {
	header http.Header
	status int
	bytes  int
	last   []byte
}

func (w *bodyCounter) Header() http.Header { return w.header }
func (w *bodyCounter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}
func (w *bodyCounter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.bytes += len(p)
	w.last = append(w.last[:0], p...)
	return len(p), nil
}

// escalations sums a registered meter's escalated units over every cascade
// tier, as its registry exposes them.
func escalations(b *testing.B, reg *obs.Registry) (n float64) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		b.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "svqact_detect_tier_decisions_total{") && strings.Contains(line, `outcome="escalated"`) {
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				b.Fatal(err)
			}
			n += v
		}
	}
	return n
}

func BenchmarkIngest(b *testing.B) {
	v := benchVideo(b)
	models := detect.NewModels(detect.NewObjectDetector(detect.MaskRCNN, 1), detect.NewActionRecognizer(detect.I3D, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rank.Ingest(context.Background(), v, models, rank.PaperScoring(), rank.DefaultIngestConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreRandomAccess(b *testing.B) {
	entries := make([]store.Entry, 10_000)
	for i := range entries {
		entries[i] = store.Entry{Clip: i, Score: float64(i%97) + 0.5}
	}
	dir := b.TempDir()
	if err := store.WriteTable(dir+"/t.tbl", "t", entries); err != nil {
		b.Fatal(err)
	}
	t, err := store.OpenDiskTable(dir + "/t.tbl")
	if err != nil {
		b.Fatal(err)
	}
	defer t.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.ScoreOf(i % 10_000)
	}
}

func BenchmarkRVAQTopK(b *testing.B) {
	w := workspace()
	ix, err := w.MovieIndex("coffee_and_cigarettes")
	if err != nil {
		b.Fatal(err)
	}
	spec := w.Movies().Query("coffee_and_cigarettes")
	q := core.Query{Objects: spec.Objects, Action: spec.Action}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rank.RVAQ(context.Background(), ix, q, 5, rank.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRVAQCNFTopK(b *testing.B) {
	w := workspace()
	ix, err := w.MovieIndex("titanic")
	if err != nil {
		b.Fatal(err)
	}
	q := core.CNF{Clauses: []core.Clause{
		{Atoms: []core.Atom{core.ActionAtom("kissing"), core.ActionAtom("talking")}},
		{Atoms: []core.Atom{core.ObjectAtom("person")}},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rank.RVAQCNF(context.Background(), ix, q, 5, rank.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// rankedDeckScale is the dataset scale of BenchmarkRankedDeck's repository:
// the served benchmark's own (379 videos, ~20k clips, thousands of
// sorted-access rounds a statement); it ingests in about a second.
const rankedDeckScale = 1.0

var (
	deckOnce sync.Once
	deckIx   *rank.Index
	deckErr  error
)

// rankedDeckIndex ingests every YouTube video and the four movies into one
// merged repository index, as the served benchmark's ranked workload does.
func rankedDeckIndex(b *testing.B) *rank.Index {
	b.Helper()
	deckOnce.Do(func() {
		opts := synth.Options{Scale: rankedDeckScale, Seed: 42}
		var tvs []detect.TruthVideo
		for _, d := range []*synth.Dataset{synth.YouTube(opts), synth.Movies(opts)} {
			for _, v := range d.Videos {
				tvs = append(tvs, v)
			}
		}
		models := detect.NewModels(detect.NewObjectDetector(detect.MaskRCNN, 42), detect.NewActionRecognizer(detect.I3D, 42))
		deckIx, deckErr = rank.IngestAllParallel(context.Background(), "deck", tvs, models, rank.PaperScoring(), rank.DefaultIngestConfig(), 0)
	})
	if deckErr != nil {
		b.Fatal(deckErr)
	}
	return deckIx
}

// BenchmarkRankedDeck runs the statement shapes of the served benchmark's
// ranked pool over a merged multi-video repository, where BenchmarkRVAQTopK's
// single movie (21 candidates) cannot show what the per-round bookkeeping
// over the live candidate sequences costs: selective pairs an action with its own rare object, broad pairs it with the
// ubiquitous person, cnf asks for either of two actions with a person. One
// op is one pass over the class's statements, so rounds/op and accesses/op
// (the paper's cost, sorted plus random) are constants of the algorithm: an
// optimisation of the bookkeeping must leave both where they were.
func BenchmarkRankedDeck(b *testing.B) {
	ix := rankedDeckIndex(b)
	ks := []int{1, 5, 10, 25}
	yt := synth.YouTubeQueries()
	type statement func() (*rank.Result, error)
	basic := func(action string, objects []string, k int) statement {
		q := core.Query{Objects: objects, Action: action}
		return func() (*rank.Result, error) { return rank.RVAQ(context.Background(), ix, q, k, rank.Options{}) }
	}
	decks := map[string][]statement{}
	for i, q := range append(yt, synth.MovieQueries()...) {
		decks["selective"] = append(decks["selective"], basic(q.Action, q.Objects[:1], ks[i%len(ks)]))
		decks["broad"] = append(decks["broad"], basic(q.Action, []string{"person"}, ks[(i+2)%len(ks)]))
	}
	for i, q := range yt {
		cnf := core.CNF{Clauses: []core.Clause{
			{Atoms: []core.Atom{core.ActionAtom(q.Action), core.ActionAtom(yt[(i+1)%len(yt)].Action)}},
			{Atoms: []core.Atom{core.ObjectAtom("person")}},
		}}
		k := ks[i%len(ks)]
		decks["cnf"] = append(decks["cnf"], func() (*rank.Result, error) {
			return rank.RVAQCNF(context.Background(), ix, cnf, k, rank.Options{})
		})
	}
	for _, class := range []string{"selective", "broad", "cnf"} {
		deck := decks[class]
		b.Run(class, func(b *testing.B) {
			var rounds, accesses int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, run := range deck {
					res, err := run()
					if err != nil {
						b.Fatal(err)
					}
					rounds += int64(res.Rounds)
					accesses += res.Stats.Sorted + res.Stats.Random
				}
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
			b.ReportMetric(float64(accesses)/float64(b.N), "accesses/op")
			b.ReportMetric(float64(len(deck)), "queries/op")
		})
	}
}

// countingFS counts what the durable layer asks of the disk: barriers (file
// fsyncs and directory syncs), file creations, and bytes written.
type countingFS struct {
	store.FS
	syncs, creates, bytes int64
}

func (c *countingFS) Create(path string) (store.File, error) {
	c.creates++
	f, err := c.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) SyncDir(path string) error {
	c.syncs++
	return c.FS.SyncDir(path)
}

type countingFile struct {
	store.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes += int64(n)
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs++
	return f.File.Sync()
}

// ingestedBenchMember ingests a short video with seven ingested types (five
// objects, two actions — the mean of the served-query benchmark's world) and
// about 54 clips: the unit Repository.Add persists.
func ingestedBenchMember(b *testing.B) *rank.Index {
	b.Helper()
	v, err := synth.Generate(synth.Script{
		ID: "member", Frames: 2_700, FPS: 10, Geometry: video.DefaultGeometry, Seed: 5,
		Actions: []synth.ActionSpec{
			{Name: "jumping", MeanGapShots: 40, MeanDurShots: 15},
			{Name: "kissing", MeanGapShots: 60, MeanDurShots: 10},
		},
		Objects: []synth.ObjectSpec{
			{Name: "human", MeanDurFrames: 300, CorrelatedWith: "jumping", CorrelationProb: 0.95},
			{Name: "car", MeanGapFrames: 600, MeanDurFrames: 200},
			{Name: "boat", MeanGapFrames: 800, MeanDurFrames: 150},
			{Name: "dog", MeanGapFrames: 500, MeanDurFrames: 100},
			{Name: "surfboard", MeanGapFrames: 900, MeanDurFrames: 120},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	models := detect.NewModels(detect.NewObjectDetector(detect.MaskRCNN, 1), detect.NewActionRecognizer(detect.I3D, 1))
	ix, err := rank.Ingest(context.Background(), v, models, rank.PaperScoring(), rank.DefaultIngestConfig())
	if err != nil {
		b.Fatal(err)
	}
	if n := len(ix.Objects) + len(ix.Actions); n != 7 {
		b.Fatalf("bench member has %d tables, want 7", n)
	}
	return ix
}

// BenchmarkRepositoryAdd times the ingest write path's unit of work: one
// pre-ingested seven-table video persisted as a new member of a fresh
// repository (save, commit, load back). Repository.Add writes through
// store.OS, so the benchmark swaps a counting filesystem in under it for its
// duration; syncs/op, creates/op and bytes/op are exact counts, ns/op is
// mostly the device's fsync latency.
func BenchmarkRepositoryAdd(b *testing.B) {
	ix := ingestedBenchMember(b)
	fs := &countingFS{FS: store.OS}
	store.OS = fs
	defer func() { store.OS = fs.FS }()
	root := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repo, err := rank.OpenRepository(fmt.Sprintf("%s/repo-%d", root, i))
		if err != nil {
			b.Fatal(err)
		}
		if err := repo.Add(ix); err != nil {
			b.Fatal(err)
		}
		if err := repo.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(fs.syncs)/n, "syncs/op")
	b.ReportMetric(float64(fs.creates)/n, "creates/op")
	b.ReportMetric(float64(fs.bytes)/n, "bytes/op")
}

// BenchmarkLoadIndex times opening and fully verifying one saved seven-table
// member — the per-member cost of OpenRepository and of a hot reload.
func BenchmarkLoadIndex(b *testing.B) {
	dir := b.TempDir()
	if err := rank.Save(dir, ingestedBenchMember(b)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := rank.Load(dir)
		if err != nil {
			b.Fatal(err)
		}
		if err := ix.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
