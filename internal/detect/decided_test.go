package detect

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"svqact/internal/synth"
	"svqact/internal/video"
)

// The decided indicator. At a threshold τ > 0 a model promises only the side
// of τ each score falls on, so the referee of a Score call at τ is the
// per-unit reference score's side: score ≥ τ exactly when the reference's is.
// At τ ≤ 0 the call must return the reference's bits. The chain walker gives
// τ to the deciding tier and, at τ ≥ the recall band's edge, the edge to the
// proxy tier below it, so every lower tier's band sees the side of its edge
// the full score falls on and the account is the reference's at any τ.

// decidedTaus are the thresholds every check runs at: full scores, the clamp
// floor and the least threshold above it, the default, the greatest below 1,
// 1 and one above it, and one drawn at random.
func decidedTaus(r *rand.Rand) []float64 {
	return []float64{0, scoreFloor, math.Nextafter(scoreFloor, 1), DefaultThreshold, math.Nextafter(1, 0), 1, 1.25, r.Float64()}
}

// sameSide reports whether a score at tau agrees with the reference score.
func sameSide(got, want, tau float64) bool {
	if tau <= 0 {
		return math.Float64bits(got) == math.Float64bits(want)
	}
	return (got >= tau) == (want >= tau)
}

// column is f over a run's units.
func column(run video.Interval, f func(unit int) float64) []float64 {
	col := make([]float64, run.Len())
	for i := range col {
		col[i] = f(run.Start + i)
	}
	return col
}

// columnTiers binds a chain's tiers, cheapest first, to per-unit referee
// columns over a run: one referee pass serves every threshold and entry
// tier.
func columnTiers(chain *Scorer, run video.Interval, cols ...[]float64) []refTier {
	tiers := make([]refTier, len(cols))
	for i, col := range cols {
		info := chain.Tiers()[i]
		tiers[i] = refTier{cost: info.UnitCost, band: info.band, try: func(u, _ int) (float64, error) { return col[u-run.Start], nil }}
	}
	return tiers
}

// checkDecided checks one model over a run at every threshold: its own
// Score's sides against want, and its chain against tiers.
func checkDecided(t testing.TB, where string, m Model, label string, v TruthVideo, run video.Interval, want []float64, tiers []refTier, taus []float64) {
	t.Helper()
	dst := make([]float64, run.Len())
	for _, tau := range taus {
		if n, err := m.Score(v, label, run.Start, dst, tau, Need{}, 0); n != len(dst) || err != nil {
			t.Fatalf("%s at τ=%v: Score scored %d (%v)", where, tau, n, err)
		}
		for i := range dst {
			if !sameSide(dst[i], want[i], tau) {
				t.Fatalf("%s at τ=%v: unit %d scored %v, reference %v", where, tau, run.Start+i, dst[i], want[i])
			}
		}
	}
	checkDecidedChain(t, where, ScorerOf(m), tiers, v, label, run, taus, RetryConfig{Attempts: 1})
}

// checkDecidedChain runs a chain's Score at every threshold from every entry
// tier against refScore over tiers, which score in full: the same scored
// count, error and account, and the reference's side of τ on every unit.
func checkDecidedChain(t testing.TB, where string, chain *Scorer, tiers []refTier, v TruthVideo, label string, run video.Interval, taus []float64, retry RetryConfig) {
	t.Helper()
	ctx := context.Background()
	dst, wantDst := make([]float64, run.Len()), make([]float64, run.Len())
	for _, tau := range taus {
		for from := range tiers {
			var got, ref Account
			got.Reset(len(tiers))
			ref.Reset(len(tiers))
			gotN, gotErr := chain.Score(ctx, v, label, run.Start, from, dst, tau, 0, retry, &got)
			wantN, wantErr := refScore(ctx, tiers, run.Start, from, wantDst, retry.Attempts, &ref)
			if gotN != wantN || !reflect.DeepEqual(gotErr, wantErr) {
				t.Fatalf("%s at τ=%v from tier %d: scored %d (%v), reference %d (%v)", where, tau, from, gotN, gotErr, wantN, wantErr)
			}
			for i := range gotN {
				if !sameSide(dst[i], wantDst[i], tau) {
					t.Fatalf("%s at τ=%v from tier %d: unit %d scored %v, reference %v", where, tau, from, run.Start+i, dst[i], wantDst[i])
				}
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s at τ=%v from tier %d: account\n got %+v\nwant %+v", where, tau, from, got, ref)
			}
		}
	}
}

// checkDecidedObject checks an object model against its per-frame referee.
func checkDecidedObject(t testing.TB, name string, d ObjectDetector, ref refObject, v TruthVideo, typ string, run video.Interval, taus []float64) {
	t.Helper()
	want := column(run, func(f int) float64 { return ref.FrameScore(v, typ, f) })
	cols := [][]float64{want}
	if c, ok := ref.(refObjectCascade); ok {
		cols = [][]float64{column(run, func(f int) float64 { return c.cheap.FrameScore(v, typ, f) }),
			column(run, func(f int) float64 { return c.accurate.FrameScore(v, typ, f) })}
	}
	where := fmt.Sprintf("%s on %s %q frames %v", name, v.ID(), typ, run)
	checkDecided(t, where, d, typ, v, run, want, columnTiers(ScorerOf(d), run, cols...), taus)
}

// checkDecidedAction checks an action model against its per-shot referee.
func checkDecidedAction(t testing.TB, name string, a ActionRecognizer, ref refAction, v TruthVideo, run video.Interval, taus []float64) {
	t.Helper()
	want := column(run, func(s int) float64 { return ref.ShotScore(v, "jumping", s) })
	cols := [][]float64{want}
	if c, ok := ref.(refActionCascade); ok {
		cols = [][]float64{column(run, func(s int) float64 { return c.cheap.ShotScore(v, "jumping", s) }),
			column(run, func(s int) float64 { return c.accurate.ShotScore(v, "jumping", s) })}
	}
	where := fmt.Sprintf("%s on %s shots %v", name, v.ID(), run)
	checkDecided(t, where, a, "jumping", v, run, want, columnTiers(ScorerOf(a), run, cols...), taus)
}

// edgeProfile is a profile whose true and false detections both score
// around mean with the given spread, frequently.
func edgeProfile(mean, std float64) Profile {
	return Profile{
		Name: fmt.Sprintf("edge-%v-%v", mean, std), TPR: 0.9, TPScoreMean: mean, TPScoreStd: std,
		FPIID: 0.3, FPBurstGap: 40, FPBurstLen: 8, FPWithinBurst: 0.8, FPScoreMean: mean, FPScoreStd: std,
	}
}

// edgeProfiles put both score distributions of a model on τ's doorstep: the
// mean on τ, one float to either side of it or two spreads off it, with a
// spread of 1e-9 or 1e-3, or none (the Ideal profiles' point mass). Two
// more sit beyond the clamp, where a bound that ignored it would misjudge
// every draw.
func edgeProfiles(tau float64) []Profile {
	out := []Profile{edgeProfile(-0.5, 0.1), edgeProfile(1.5, 0.1)}
	for _, std := range []float64{1e-9, 1e-3, 0} {
		for _, mean := range []float64{tau, math.Nextafter(tau, 0), math.Nextafter(tau, 2), tau - 2*std, tau + 2*std} {
			out = append(out, edgeProfile(mean, std))
		}
	}
	return out
}

// eagerProxy calibrates a distilled proxy that hallucinates often and high,
// so its own draws land where its teacher's decided ones did.
var eagerProxy = Profile{Name: "eager-proxy", FPIID: 0.5, FPScoreMean: 1, FPScoreStd: 0.05}

// checkEdge checks a simulated detector and recogniser of each edge profile,
// and an eager distilled proxy of each, at τ (and at 0) over runs of a
// stream.
func checkEdge(t testing.TB, v TruthVideo, tau float64, frameRuns, shotRuns []video.Interval, seed int64) {
	t.Helper()
	taus := []float64{0, tau}
	for _, p := range edgeProfiles(tau) {
		d, a := NewObjectDetector(p, seed), NewActionRecognizer(p, seed)
		pd, pa := NewDistilledObjectDetector(d, eagerProxy, seed), NewDistilledActionRecognizer(a, eagerProxy, seed)
		refD, refA := refSimObject{newRefCore(d.simCore)}, refSimAction{newRefCore(a.simCore)}
		refPD, refPA := refDistilledObject{refD, newRefCore(pd.simCore)}, refDistilledAction{refA, newRefCore(pa.simCore)}
		for _, run := range frameRuns {
			for _, typ := range []string{"person", "car"} {
				checkDecidedObject(t, p.Name, d, refD, v, typ, run, taus)
				checkDecidedObject(t, p.Name+"/proxy", pd, refPD, v, typ, run, taus)
			}
		}
		for _, run := range shotRuns {
			checkDecidedAction(t, p.Name, a, refA, v, run, taus)
			checkDecidedAction(t, p.Name+"/proxy", pa, refPA, v, run, taus)
		}
	}
}

// crowdWorld is the concatenation of two videos whose "person" overlaps
// itself — a renewal process plus an instance around every frequent
// "jumping", as the datasets script it — so many frames hold two or three
// person tracks and a frame's max over its tracks can stop early.
func crowdWorld(seed uint64) *synth.Concat {
	vids := make([]*synth.Video, 2)
	for i := range vids {
		vids[i] = synth.MustGenerate(synth.Script{
			ID: fmt.Sprintf("crowd%d-v%d", seed, i), Frames: 1_000, FPS: 10,
			Geometry: video.DefaultGeometry, Seed: int64(seed)*2 + int64(i),
			Actions: []synth.ActionSpec{{Name: "jumping", MeanGapShots: 4, MeanDurShots: 6}},
			Objects: []synth.ObjectSpec{{Name: "person", MeanGapFrames: 20, MeanDurFrames: 250, CorrelatedWith: "jumping", CorrelationProb: 1}},
		})
	}
	cat, err := synth.NewConcat(fmt.Sprintf("crowd%d", seed), vids)
	if err != nil {
		panic(err)
	}
	return cat
}

// crowdedFrames counts the frames of v holding two or more person tracks.
func crowdedFrames(v TruthVideo) int {
	n, crowded := v.NumFrames(), 0
	w := v.AppendTracks("person", video.Interval{Start: 0, End: n - 1}, nil)
	for f := 0; f < n; f++ {
		k := 0
		for _, tr := range w {
			if tr.Frames.Contains(f) {
				k++
			}
		}
		if k >= 2 {
			crowded++
		}
	}
	return crowded
}

// shortRuns are a few runs of at most 120 units and a single unit, on a
// stream of n units.
func shortRuns(r *rand.Rand, n int) []video.Interval {
	var runs []video.Interval
	for k := 0; k < 3; k++ {
		s := r.IntN(n)
		runs = append(runs, video.Interval{Start: s, End: min(n-1, s+r.IntN(120))})
	}
	return append(runs, video.Interval{Start: n - 1, End: n - 1})
}

// TestDecidedMatchesReference: over random worlds — multi-component
// concatenations and a single video, a crowd of many-instance "person"
// frames, single-unit runs — every simulated model, distilled proxy, tracker
// and cascade decides, at every threshold of decidedTaus, the side of τ the
// per-unit referee's score falls on, by its own Score and through its chain
// from every entry tier (with the reference's account); at τ = 0 it returns
// the referee's bits. Fault-injected models and both cascades are checked
// through the walker against refScore, and edge profiles put the score
// distributions right at τ.
func TestDecidedMatchesReference(t *testing.T) {
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	crowded := 0
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		r := rand.New(rand.NewPCG(seed, 0xdec1de))
		taus := decidedTaus(r)
		vids, cat := diffWorld(seed)
		crowd := crowdWorld(seed)
		crowded += crowdedFrames(crowd)
		m := newDiffModels(int64(seed))
		g := cat.Geometry()
		for _, v := range []TruthVideo{cat, vids[0], crowd} {
			if n := v.NumFrames(); n > 0 {
				for _, run := range diffRuns(r, n, nil) {
					for _, typ := range []string{"person", "car", "human"} {
						for name, d := range m.objects {
							checkDecidedObject(t, name, d, m.refObjs[name], v, typ, run, taus)
						}
					}
				}
			}
			if n := g.NumShots(v.NumFrames()); n > 0 {
				for _, run := range diffRuns(r, n, nil) {
					for name, a := range m.actions {
						checkDecidedAction(t, name, a, m.refActs[name], v, run, taus)
					}
				}
			}
		}
		n := crowd.NumFrames()
		for _, tau := range taus[1:] {
			checkEdge(t, crowd, tau, shortRuns(r, n), shortRuns(r, g.NumShots(n)), int64(seed))
		}
	}
	if crowded == 0 {
		t.Fatal("no frame held two person tracks: the max over tracks never had a second track to skip")
	}

	// Fault-injected tiers, plain and cascaded, entered at every tier.
	v := testVideo(t, 41)
	taus := decidedTaus(rand.New(rand.NewPCG(41, 0xdec1de)))
	for _, c := range scorerCases(v) {
		for k := 0; k < 10; k++ {
			run := video.Interval{Start: k * 40, End: k*40 + 39}
			checkFaultyDecided(t, fmt.Sprintf("%s/run%d", c.name, k), c, v, run, taus)
		}
	}
}

// TestDecidedBelowBandEdge is the decided table's row for a threshold under
// the recall band's edge (τ = 0.003 < Lo): the cascades' proxy tier gets 0,
// so the cascades decide every unit's side with the reference's account,
// and a unit the proxy decides keeps the proxy's full score, bit for bit.
func TestDecidedBelowBandEdge(t *testing.T) {
	const tau = 0.003
	if tau >= RecallBand().Lo {
		t.Fatal("τ must lie under the band's edge")
	}
	for seed := uint64(0); seed < 2; seed++ {
		r := rand.New(rand.NewPCG(seed, 0xed6e))
		_, cat := diffWorld(seed)
		m := newDiffModels(int64(seed))
		n, shots := cat.NumFrames(), cat.Geometry().NumShots(cat.NumFrames())
		for _, run := range diffRuns(r, n, nil) {
			for _, typ := range []string{"person", "car", "human"} {
				for _, name := range []string{"cascade", "tracked-cascade"} {
					checkDecidedObject(t, name, m.objects[name], m.refObjs[name], cat, typ, run, []float64{tau})
				}
				ref := m.refObjs["cascade"].(refObjectCascade)
				checkProxyDecidedInFull(t, "cascade on "+typ, m.objects["cascade"], cat, typ, run, tau, func(f int) (float64, float64) {
					return ref.cheap.FrameScore(cat, typ, f), ref.FrameScore(cat, typ, f)
				})
			}
		}
		for _, run := range diffRuns(r, shots, nil) {
			checkDecidedAction(t, "cascade", m.actions["cascade"], m.refActs["cascade"], cat, run, []float64{tau})
			ref := m.refActs["cascade"].(refActionCascade)
			checkProxyDecidedInFull(t, "action cascade", m.actions["cascade"], cat, "jumping", run, tau, func(s int) (float64, float64) {
				return ref.cheap.ShotScore(cat, "jumping", s), ref.ShotScore(cat, "jumping", s)
			})
		}
	}
}

// checkProxyDecidedInFull scores a run with a cascade's chain at tau and
// compares, on every unit its proxy decides by the reference (ref's cheap
// score outside the band), the chain's score with ref's final one bit for
// bit.
func checkProxyDecidedInFull(t *testing.T, where string, m Model, v TruthVideo, label string, run video.Interval, tau float64, ref func(unit int) (cheap, final float64)) {
	t.Helper()
	chain := ScorerOf(m)
	var acc Account
	acc.Reset(len(chain.Tiers()))
	dst := make([]float64, run.Len())
	if _, err := chain.Score(context.Background(), v, label, run.Start, 0, dst, tau, 0, RetryConfig{Attempts: 1}, &acc); err != nil {
		t.Fatal(err)
	}
	for i, s := range dst {
		cheap, final := ref(run.Start + i)
		if !RecallBand().Escalates(cheap) && math.Float64bits(s) != math.Float64bits(final) {
			t.Fatalf("%s at τ=%v: unit %d decided by the proxy scored %v, reference %v", where, tau, run.Start+i, s, final)
		}
	}
}

// checkFaultyDecided runs one scorerCase's one- and two-tier chains against
// the case's fallible reference tiers under a retry budget.
func checkFaultyDecided(t testing.TB, where string, c scorerCase, v TruthVideo, run video.Interval, taus []float64) {
	t.Helper()
	retry := RetryConfig{Attempts: 3}
	checkDecidedChain(t, where+"/one-tier", c.one, c.ref[1:], v, c.label, run, taus, retry)
	checkDecidedChain(t, where+"/two-tier", c.two, c.ref, v, c.label, run, taus, retry)
}

// FuzzDecidedMatchesReference fuzzes the world (a random one's
// concatenation, or a crowd on odd seeds), a run of it, the threshold, and
// an edge profile whose means sit k spreads of 10^-e to either side of it.
func FuzzDecidedMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(50), 0.5, 0.0, uint8(9))
	f.Add(uint64(7), uint64(333), uint64(0), 0.01, -2.0, uint8(3))
	f.Add(uint64(42), uint64(1000), uint64(120), 1.0, 3.5, uint8(0))
	f.Fuzz(func(t *testing.T, seed, start, length uint64, tau, k float64, e uint8) {
		if math.IsNaN(tau) || math.IsInf(tau, 0) {
			tau = DefaultThreshold
		}
		tau = math.Mod(tau, 1.5)
		if math.IsNaN(k) || math.IsInf(k, 0) {
			k = 0
		}
		k = math.Mod(k, 6)
		var cat TruthVideo = crowdWorld(seed)
		if seed%2 == 0 {
			_, cat = diffWorld(seed)
		}
		n := cat.NumFrames()
		if n == 0 {
			t.Skip("no whole clip in the world")
		}
		s := int(start % uint64(n))
		run := video.Interval{Start: s, End: min(n-1, s+int(length%200))}
		m := newDiffModels(int64(seed % 1000))
		taus := []float64{tau}
		for name, d := range m.objects {
			for _, typ := range []string{"person", "car", "human"} {
				checkDecidedObject(t, name, d, m.refObjs[name], cat, typ, run, taus)
			}
		}
		shots := video.Interval{Start: run.Start / cat.Geometry().FramesPerShot, End: run.End / cat.Geometry().FramesPerShot}
		for name, a := range m.actions {
			checkDecidedAction(t, name, a, m.refActs[name], cat, shots, taus)
		}
		std := math.Pow(10, -float64(e%13))
		p := Profile{
			Name: "fuzz-edge", TPR: 0.9, TPScoreMean: tau + k*std, TPScoreStd: std,
			FPIID: 0.3, FPBurstGap: 40, FPBurstLen: 8, FPWithinBurst: 0.8, FPScoreMean: tau - k*std, FPScoreStd: std,
		}
		d, a := NewObjectDetector(p, int64(seed)), NewActionRecognizer(p, int64(seed))
		checkDecidedObject(t, p.Name, d, refSimObject{newRefCore(d.simCore)}, cat, "person", run, taus)
		checkDecidedAction(t, p.Name, a, refSimAction{newRefCore(a.simCore)}, cat, shots, taus)
	})
}

// TestCutoffKeepsItsSide checks the radius bound's margin where draws are
// too rare to find it: for thresholds from the least float above 0 through
// the band edge and the clamp floor to above the ceiling, means a few
// spreads from τ or anywhere around the clamp range, and spreads from 1e-13
// to 10, the least u1 the bound decides, at the extreme angles cos = ±1,
// yields a computed score — the same float operations gauss and draws.score
// perform — on the side the bound claims. On (0, scoreFloor], where a
// clamped negative reaches τ, the bound never claims "below".
func TestCutoffKeepsItsSide(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 0xc0ff))
	decided, floorAbove := 0, 0
	for trial := 0; trial < 200_000; trial++ {
		tau := []float64{
			math.SmallestNonzeroFloat64, RecallBand().Lo, scoreFloor * r.Float64(), scoreFloor,
			math.Nextafter(scoreFloor, 1), DefaultThreshold, math.Nextafter(1, 0), 1, 1.25, r.Float64(),
		}[trial%10]
		std := math.Pow(10, -13+14*r.Float64())
		mean := tau + std*(r.Float64()-0.5)*12
		if trial%3 == 0 {
			mean = 2.4*r.Float64() - 0.6
		}
		c := newCutoff(mean, std, tau)
		if c.u1 >= 1 {
			continue
		}
		decided++
		if tau <= scoreFloor {
			if !c.above {
				t.Fatalf("τ=%v mean=%v std=%v: the bound claims below at or under the clamp floor", tau, mean, std)
			}
			floorAbove++
		}
		u1 := math.Nextafter(c.u1, 1)
		radius := math.Sqrt(-2 * math.Log(u1))
		for _, cos := range []float64{1, -1} {
			s := clampScore(mean + std*(radius*cos))
			if (s >= tau) != c.above {
				t.Fatalf("τ=%v mean=%v std=%v: u1 %v decides above=%v, but cos %v scores %v", tau, mean, std, u1, c.above, cos, s)
			}
		}
	}
	if decided < 100_000 || floorAbove < 30_000 {
		t.Fatalf("only %d of 200000 bounds decide anything, %d at or under the floor: the table misses the bound", decided, floorAbove)
	}
}
