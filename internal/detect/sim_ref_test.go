package detect

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"svqact/internal/synth"
	"svqact/internal/video"
)

// The simulated models' per-unit draws as they were before a batch paid for
// its draw key and track window once: every key folded from the seed and
// both string hashes, the burst overlay looked up per unit, instances and
// presence asked for frame by frame. Kept verbatim (receivers aside) as the
// referee of the batch paths; they share nothing with them but the hash
// primitives and the profiles.

// refInstancesAt is the per-frame TruthVideo.ObjectInstancesAt of the two
// synthetic video types.
func refInstancesAt(v TruthVideo, typ string, frame int) []int {
	switch v := v.(type) {
	case *synth.Video:
		apps := v.ObjectAppearances(typ)
		i := sort.Search(len(apps), func(i int) bool { return apps[i].Frames.Start > frame })
		var ids []int
		for j := 0; j < i; j++ {
			if apps[j].Frames.Contains(frame) {
				ids = append(ids, apps[j].TrackID)
			}
		}
		return ids
	case *synth.Concat:
		i, local := refLocate(v, frame)
		ids := refInstancesAt(v.Components()[i], typ, local)
		for j := range ids {
			ids[j] += (i + 1) * 10_000_000 // synth's per-component track stride
		}
		return ids
	}
	panic(fmt.Sprintf("refInstancesAt: %T", v))
}

// refPresentAt is the per-frame TruthVideo.ObjectPresentAt.
func refPresentAt(v TruthVideo, typ string, frame int) bool {
	switch v := v.(type) {
	case *synth.Video:
		return v.ObjectPresence(typ).Contains(frame)
	case *synth.Concat:
		i, local := refLocate(v, frame)
		return v.Components()[i].ObjectPresence(typ).Contains(local)
	}
	panic(fmt.Sprintf("refPresentAt: %T", v))
}

// refLocate maps a concatenation's frame to (component, local frame): the
// last component starting at or before it, components trimmed to whole
// clips.
func refLocate(c *synth.Concat, frame int) (int, int) {
	vids, off := c.Components(), 0
	for i, v := range vids {
		n := v.Meta.NumClips() * c.Geometry().FramesPerClip()
		if frame < off+n || i == len(vids)-1 {
			return i, frame - off
		}
		off += n
	}
	panic("refLocate: no components")
}

// refCore is a simCore's parameters seen by the referee, with its own
// overlay memo (the memo changes no value: an overlay is a pure function of
// its key).
type refCore struct {
	c        *simCore
	overlays map[string]video.IntervalSet
}

func newRefCore(c *simCore) *refCore {
	return &refCore{c: c, overlays: map[string]video.IntervalSet{}}
}

func (r *refCore) burstOverlay(videoID, typ string, units int) video.IntervalSet {
	c := r.c
	if c.prof.FPBurstGap <= 0 || c.prof.FPBurstLen <= 0 {
		return video.IntervalSet{}
	}
	memo := fmt.Sprint(videoID, "\x00", typ, "\x00", units)
	if s, ok := r.overlays[memo]; ok {
		return s
	}
	state := keyed(c.seed, hashString(videoID), hashString(typ), 0xb02575)
	next := func() float64 {
		state = mix64(state + 0x9e3779b97f4a7c15)
		return unitFloat(state)
	}
	exp := func(mean float64) float64 {
		u := next()
		if u >= 1 {
			u = math.Nextafter(1, 0)
		}
		return -mean * math.Log(1-u)
	}
	var ivs []video.Interval
	pos := 0
	for {
		pos += 1 + int(exp(c.prof.FPBurstGap))
		if pos >= units {
			break
		}
		end := min(units-1, pos+int(exp(c.prof.FPBurstLen)))
		ivs = append(ivs, video.Interval{Start: pos, End: end})
		pos = end + 1
	}
	s := video.NewIntervalSet(ivs...)
	r.overlays[memo] = s
	return s
}

func (r *refCore) falsePositive(v TruthVideo, typ string, unit, units int) (float64, bool) {
	c := r.c
	p := c.prof.FPIID
	if r.burstOverlay(v.ID(), typ, units).Contains(unit) {
		p = c.prof.FPWithinBurst
	}
	if p <= 0 {
		return 0, false
	}
	h := keyed(c.seed, hashString(v.ID()), hashString(typ), uint64(unit), 0xfa15e)
	if unitFloat(h) >= p {
		return 0, false
	}
	score := clampScore(c.prof.FPScoreMean + c.prof.FPScoreStd*gauss(mix64(h^0x5c0e)))
	return score, true
}

func (r *refCore) truePositive(v TruthVideo, typ string, unit int, extra uint64) (float64, bool) {
	c := r.c
	h := keyed(c.seed, hashString(v.ID()), hashString(typ), uint64(unit), extra, 0x7b0e)
	if unitFloat(h) >= c.prof.TPR {
		return 0, false
	}
	score := clampScore(c.prof.TPScoreMean + c.prof.TPScoreStd*gauss(mix64(h^0x3d09)))
	return score, true
}

// gauss maps a hash to a standard normal draw via Box-Muller on two derived
// uniforms: radius sqrt(−2 ln u1) with u1 = radiusUniform(h), angle 2π·u2.
func gauss(h uint64) float64 { return boxMuller(h, radiusUniform(h)) }

func refPhantomID(v TruthVideo, typ string, frame int) int {
	return -1 - int(keyed(hashString(v.ID()), hashString(typ), uint64(frame/30))%1_000_000)
}

// refObject is what the referee needs of an object model.
type refObject interface {
	FrameScore(v TruthVideo, typ string, frame int) float64
	FrameDetections(v TruthVideo, typ string, frame int) []Detection
}

// refSimObject is SimObjectDetector's per-frame draws.
type refSimObject struct{ core *refCore }

func (d refSimObject) FrameScore(v TruthVideo, typ string, frame int) float64 {
	best := 0.0
	for _, id := range refInstancesAt(v, typ, frame) {
		if s, ok := d.core.truePositive(v, typ, frame, uint64(id)); ok && s > best {
			best = s
		}
	}
	if best > 0 {
		return best
	}
	if !refPresentAt(v, typ, frame) {
		if s, ok := d.core.falsePositive(v, typ, frame, v.NumFrames()); ok {
			return s
		}
	}
	return 0
}

func (d refSimObject) FrameDetections(v TruthVideo, typ string, frame int) []Detection {
	var out []Detection
	for _, id := range refInstancesAt(v, typ, frame) {
		if s, ok := d.core.truePositive(v, typ, frame, uint64(id)); ok {
			out = append(out, Detection{TrackID: id, Score: s})
		}
	}
	if len(out) == 0 && !refPresentAt(v, typ, frame) {
		if s, ok := d.core.falsePositive(v, typ, frame, v.NumFrames()); ok {
			out = append(out, Detection{TrackID: refPhantomID(v, typ, frame), Score: s})
		}
	}
	return out
}

// refDistilledObject is DistilledObjectDetector's per-frame draws.
type refDistilledObject struct {
	teacher refObject
	core    *refCore
}

func (d refDistilledObject) FrameScore(v TruthVideo, typ string, frame int) float64 {
	if s := d.teacher.FrameScore(v, typ, frame); s > 0 {
		return s
	}
	if !refPresentAt(v, typ, frame) {
		if s, ok := d.core.falsePositive(v, typ, frame, v.NumFrames()); ok {
			return s
		}
	}
	return 0
}

func (d refDistilledObject) FrameDetections(v TruthVideo, typ string, frame int) []Detection {
	out := d.teacher.FrameDetections(v, typ, frame)
	if len(out) == 0 && !refPresentAt(v, typ, frame) {
		if s, ok := d.core.falsePositive(v, typ, frame, v.NumFrames()); ok {
			out = append(out, Detection{TrackID: refPhantomID(v, typ, frame), Score: s})
		}
	}
	return out
}

// refTracker is Tracker's per-frame identity remapping.
type refTracker struct {
	det           refObject
	fragmentEvery int
}

func (t refTracker) FrameScore(v TruthVideo, typ string, frame int) float64 {
	return t.det.FrameScore(v, typ, frame)
}

func (t refTracker) FrameDetections(v TruthVideo, typ string, frame int) []Detection {
	dets := t.det.FrameDetections(v, typ, frame)
	if t.fragmentEvery <= 0 {
		return dets
	}
	out := make([]Detection, len(dets))
	for i, d := range dets {
		seg := frame / t.fragmentEvery
		id := d.TrackID
		if id >= 0 {
			id = id*1_000_000 + seg + 1
		}
		out[i] = Detection{TrackID: id, Score: d.Score}
	}
	return out
}

// refObjectCascade is a recall-band cascade decided frame by frame.
type refObjectCascade struct{ cheap, accurate refObject }

func (c refObjectCascade) decide(v TruthVideo, typ string, frame int) refObject {
	if RecallBand().Escalates(c.cheap.FrameScore(v, typ, frame)) {
		return c.accurate
	}
	return c.cheap
}

func (c refObjectCascade) FrameScore(v TruthVideo, typ string, frame int) float64 {
	return c.decide(v, typ, frame).FrameScore(v, typ, frame)
}

func (c refObjectCascade) FrameDetections(v TruthVideo, typ string, frame int) []Detection {
	return c.decide(v, typ, frame).FrameDetections(v, typ, frame)
}

// refAction is what the referee needs of an action model.
type refAction interface {
	ShotScore(v TruthVideo, act string, shot int) float64
}

type refSimAction struct{ core *refCore }

func (r refSimAction) ShotScore(v TruthVideo, act string, shot int) float64 {
	if v.ActionAt(act, shot) {
		if s, ok := r.core.truePositive(v, act, shot, 0); ok {
			return s
		}
		return 0
	}
	numShots := v.Geometry().NumShots(v.NumFrames())
	if s, ok := r.core.falsePositive(v, act, shot, numShots); ok {
		return s
	}
	return 0
}

type refDistilledAction struct {
	teacher refAction
	core    *refCore
}

func (r refDistilledAction) ShotScore(v TruthVideo, act string, shot int) float64 {
	if s := r.teacher.ShotScore(v, act, shot); s > 0 {
		return s
	}
	if !v.ActionAt(act, shot) {
		numShots := v.Geometry().NumShots(v.NumFrames())
		if s, ok := r.core.falsePositive(v, act, shot, numShots); ok {
			return s
		}
	}
	return 0
}

type refActionCascade struct{ cheap, accurate refAction }

func (c refActionCascade) ShotScore(v TruthVideo, act string, shot int) float64 {
	if s := c.cheap.ShotScore(v, act, shot); !RecallBand().Escalates(s) {
		return s
	}
	return c.accurate.ShotScore(v, act, shot)
}

// refPositionOf, refRelationPositive and refTrueRelationAt are the relation
// predicates' per-frame forms.
func refPositionOf(videoID string, trackID, frame int) float64 {
	h := keyed(hashString(videoID), uint64(int64(trackID)))
	anchor := unitFloat(h)
	phase1 := 2 * math.Pi * unitFloat(mix64(h^0x1234))
	phase2 := 2 * math.Pi * unitFloat(mix64(h^0x5678))
	t := float64(frame)
	drift := 0.18*math.Sin(t/180+phase1) + 0.09*math.Sin(t/411+phase2)
	x := anchor + drift
	x = math.Mod(math.Abs(x), 2)
	if x > 1 {
		x = 2 - x
	}
	return x
}

func refRelationPositive(det refObject, v TruthVideo, rel Relation, a, b string, frame int) bool {
	da := det.FrameDetections(v, a, frame)
	if len(da) == 0 {
		return false
	}
	db := det.FrameDetections(v, b, frame)
	if len(db) == 0 {
		return false
	}
	for _, ia := range da {
		xa := refPositionOf(v.ID(), ia.TrackID, frame)
		for _, ib := range db {
			if ia.TrackID == ib.TrackID {
				continue
			}
			if rel.holds(xa, refPositionOf(v.ID(), ib.TrackID, frame)) {
				return true
			}
		}
	}
	return false
}

func refTrueRelationAt(v TruthVideo, rel Relation, a, b string, frame int) bool {
	ia := refInstancesAt(v, a, frame)
	if len(ia) == 0 {
		return false
	}
	ib := refInstancesAt(v, b, frame)
	if len(ib) == 0 {
		return false
	}
	for _, ta := range ia {
		xa := refPositionOf(v.ID(), ta, frame)
		for _, tb := range ib {
			if ta == tb {
				continue
			}
			if rel.holds(xa, refPositionOf(v.ID(), tb, frame)) {
				return true
			}
		}
	}
	return false
}

// diffWorld is one random world of the differential tests: two to four
// synthetic videos whose lengths are mostly not whole clips — so
// appearances outlive the trimmed ends — with a dense, long-lived "person"
// (many overlapping instances), a sparse "car", a "human" tied to an
// action, and the Concat of all of them.
func diffWorld(seed uint64) ([]*synth.Video, *synth.Concat) {
	r := rand.New(rand.NewPCG(seed, 0xd1ff))
	vids := make([]*synth.Video, 2+r.IntN(3))
	for i := range vids {
		vids[i] = synth.MustGenerate(synth.Script{
			ID: fmt.Sprintf("w%d-v%d", seed, i), Frames: 120 + r.IntN(1800), FPS: 10,
			Geometry: video.DefaultGeometry, Seed: int64(r.Uint32()),
			Actions: []synth.ActionSpec{
				{Name: "jumping", MeanGapShots: 8 + 30*r.Float64(), MeanDurShots: 2 + 10*r.Float64()},
			},
			Objects: []synth.ObjectSpec{
				{Name: "person", MeanGapFrames: 20 + 80*r.Float64(), MeanDurFrames: 50 + 400*r.Float64()},
				{Name: "car", MeanGapFrames: 300 + 900*r.Float64(), MeanDurFrames: 30 + 300*r.Float64()},
				{Name: "human", MeanDurFrames: 100, CorrelatedWith: "jumping", CorrelationProb: 0.8},
			},
		})
	}
	cat, err := synth.NewConcat(fmt.Sprintf("w%d", seed), vids)
	if err != nil {
		panic(err)
	}
	return vids, cat
}

// diffModels are the production models under test, keyed by name, paired
// with their referees; all draw from one seed.
type diffModels struct {
	objects map[string]ObjectDetector
	refObjs map[string]refObject
	actions map[string]ActionRecognizer
	refActs map[string]refAction
}

func newDiffModels(seed int64) diffModels {
	teacher := NewObjectDetector(MaskRCNN, seed)
	noisy := NewObjectDetector(YOLOv3, seed+1)
	proxy := NewDistilledObjectDetector(teacher, DistilledRCNN, seed)
	casc := NewObjectCascade(ObjectTier{Detector: proxy, Band: RecallBand()}, ObjectTier{Detector: teacher})
	refTeacher := refSimObject{newRefCore(teacher.simCore)}
	refNoisy := refSimObject{newRefCore(noisy.simCore)}
	refProxy := refDistilledObject{refTeacher, newRefCore(proxy.simCore)}
	refCasc := refObjectCascade{refProxy, refTeacher}

	act := NewActionRecognizer(I3D, seed)
	actProxy := NewDistilledActionRecognizer(act, DistilledI3D, seed)
	refAct := refSimAction{newRefCore(act.simCore)}
	refActProxy := refDistilledAction{refAct, newRefCore(actProxy.simCore)}
	return diffModels{
		objects: map[string]ObjectDetector{
			"maskrcnn": teacher, "yolov3": noisy, "distilled": proxy, "cascade": casc,
			"tracked": CenterTrack(teacher), "tracked-distilled": NewTracker(proxy, 37),
			"tracked-cascade": NewTracker(casc, 41),
		},
		refObjs: map[string]refObject{
			"maskrcnn": refTeacher, "yolov3": refNoisy, "distilled": refProxy, "cascade": refCasc,
			"tracked": refTracker{refTeacher, 600}, "tracked-distilled": refTracker{refProxy, 37},
			"tracked-cascade": refTracker{refCasc, 41},
		},
		actions: map[string]ActionRecognizer{
			"i3d": act, "distilled": actProxy,
			"cascade": NewActionCascade(ActionTier{Recognizer: actProxy, Band: RecallBand()}, ActionTier{Recognizer: act}),
		},
		refActs: map[string]refAction{
			"i3d": refAct, "distilled": refActProxy, "cascade": refActionCascade{refActProxy, refAct},
		},
	}
}

// diffRuns lists the unit runs checked on a stream of n units whose
// components start at the given unit offsets: the whole stream, random
// runs, single units, and runs that start at, end at and cross every seam.
func diffRuns(r *rand.Rand, n int, seams []int) []video.Interval {
	runs := []video.Interval{{Start: 0, End: n - 1}, {Start: n - 1, End: n - 1}}
	for k := 0; k < 6; k++ {
		s := r.IntN(n)
		runs = append(runs, video.Interval{Start: s, End: min(n-1, s+r.IntN(120))}, video.Interval{Start: s, End: s})
	}
	for _, s := range seams {
		if s <= 0 || s >= n {
			continue
		}
		runs = append(runs,
			video.Interval{Start: s, End: min(n-1, s+r.IntN(60))},
			video.Interval{Start: max(0, s-1-r.IntN(60)), End: s - 1},
			video.Interval{Start: max(0, s-1-r.IntN(60)), End: min(n-1, s+r.IntN(60))},
			video.Interval{Start: s - 1, End: s - 1}, video.Interval{Start: s, End: s})
	}
	return runs
}

// checkObjectRun compares one object model with its referee on a run of
// frames: the batch scores bit for bit, the events column by column, the
// plain per-frame methods at the run's ends, and the chain walker.
func checkObjectRun(t testing.TB, name string, d ObjectDetector, ref refObject, v TruthVideo, typ string, run video.Interval) {
	t.Helper()
	where := fmt.Sprintf("%s on %s %q frames %v", name, v.ID(), typ, run)
	dst := make([]float64, run.Len())
	d.Score(v, typ, run.Start, dst, 0, Need{}, 0)
	var ev Events
	d.Events(v, typ, run, &ev, 0)
	k := 0
	for i := range dst {
		frame := run.Start + i
		if want := ref.FrameScore(v, typ, frame); math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("%s: batch score of frame %d = %v, reference %v", where, frame, dst[i], want)
		}
		for _, det := range ref.FrameDetections(v, typ, frame) {
			if k >= ev.Len() || int(ev.Units[k]) != frame || ev.Tracks[k] != int64(det.TrackID) ||
				math.Float64bits(ev.Scores[k]) != math.Float64bits(det.Score) {
				t.Fatalf("%s: event %d (frame %d) differs from the reference's (%d, %v)", where, k, frame, det.TrackID, det.Score)
			}
			k++
		}
	}
	if k != ev.Len() {
		t.Fatalf("%s: %d events, reference %d", where, ev.Len(), k)
	}
	for _, frame := range []int{run.Start, run.End} {
		if got, want := d.FrameScore(v, typ, frame), ref.FrameScore(v, typ, frame); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: FrameScore(%d) = %v, reference %v", where, frame, got, want)
		}
		if got, want := frameDetections(d, v, typ, frame), ref.FrameDetections(v, typ, frame); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: FrameDetections(%d) = %v, reference %v", where, frame, got, want)
		}
	}
	chain := ScorerOf(d)
	infos := chain.Tiers()
	tiers := []refTier{{cost: infos[0].UnitCost, try: func(u, _ int) (float64, error) { return ref.FrameScore(v, typ, u), nil }}}
	if c, ok := ref.(refObjectCascade); ok {
		tiers = []refTier{
			{cost: infos[0].UnitCost, band: RecallBand(), try: func(u, _ int) (float64, error) { return c.cheap.FrameScore(v, typ, u), nil }},
			{cost: infos[1].UnitCost, try: func(u, _ int) (float64, error) { return c.accurate.FrameScore(v, typ, u), nil }},
		}
	}
	checkChain(t, where, chain, tiers, v, typ, run)
}

// checkChain runs Scorer.Score against refScore over a run.
func checkChain(t testing.TB, where string, chain *Scorer, tiers []refTier, v TruthVideo, label string, run video.Interval) {
	t.Helper()
	var got, want Account
	got.Reset(len(tiers))
	want.Reset(len(tiers))
	gotDst, wantDst := make([]float64, run.Len()), make([]float64, run.Len())
	gotN, gotErr := chain.Score(context.Background(), v, label, run.Start, 0, gotDst, 0, 0, RetryConfig{Attempts: 1}, &got)
	wantN, wantErr := refScore(context.Background(), tiers, run.Start, 0, wantDst, 1, &want)
	if gotN != wantN || gotErr != nil || wantErr != nil {
		t.Fatalf("%s: Score scored %d (%v), reference %d (%v)", where, gotN, gotErr, wantN, wantErr)
	}
	for i := range gotDst {
		if math.Float64bits(gotDst[i]) != math.Float64bits(wantDst[i]) {
			t.Fatalf("%s: Score of unit %d = %v, reference %v", where, run.Start+i, gotDst[i], wantDst[i])
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: account %+v, reference %+v", where, got, want)
	}
}

// checkWindow pins the track window itself: on every frame of the run the
// tracks containing it are the per-frame instances, in order, and presence
// is "some track contains the frame"; every track overlaps the run.
func checkWindow(t testing.TB, v TruthVideo, run video.Interval) {
	t.Helper()
	for _, typ := range []string{"person", "car", "human"} {
		w := v.AppendTracks(typ, run, nil)
		for _, tr := range w {
			if !tr.Frames.Overlaps(run) {
				t.Fatalf("%s %q window %v: track %+v outside the run", v.ID(), typ, run, tr)
			}
		}
		for f := run.Start; f <= run.End; f++ {
			var ids []int
			for _, tr := range w {
				if tr.Frames.Contains(f) {
					ids = append(ids, tr.TrackID)
				}
			}
			want := refInstancesAt(v, typ, f)
			if fmt.Sprint(ids) != fmt.Sprint(want) || (len(ids) > 0) != refPresentAt(v, typ, f) {
				t.Fatalf("%s %q frame %d: window instances %v, reference %v (present %v)", v.ID(), typ, f, ids, want, refPresentAt(v, typ, f))
			}
		}
	}
}

// checkRelation compares the batched relation indicators and the truth
// relation with their per-frame referees.
func checkRelation(t testing.TB, d ObjectDetector, ref refObject, v TruthVideo, rel Relation, run video.Interval) {
	t.Helper()
	var evA, evB Events
	var acc Account
	for _, pair := range [][2]string{{"person", "car"}, {"human", "person"}} {
		where := fmt.Sprintf("%s %s%v frames %v", v.ID(), rel, pair, run)
		dst := make([]bool, run.Len())
		acc.Reset(1)
		count, err := RelationPositives(context.Background(), d, v, rel, pair[0], pair[1], run, &evA, &evB, dst, RetryConfig{}, &acc)
		if err != nil || acc.Attempts != acc.Units[0] || acc.Units[0] != int64(run.Len()) {
			t.Fatalf("%s: %v, account %+v: want every frame charged once", where, err, acc)
		}
		want := 0
		for i, got := range dst {
			f := run.Start + i
			w := refRelationPositive(ref, v, rel, pair[0], pair[1], f)
			if got != w {
				t.Fatalf("%s: frame %d relation %v, reference %v", where, f, got, w)
			}
			if w {
				want++
			}
		}
		if count != want {
			t.Fatalf("%s: counted %d, reference %d", where, count, want)
		}
		for _, f := range []int{run.Start, run.End} {
			if got, w := TrueRelationAt(v, rel, pair[0], pair[1], f), refTrueRelationAt(v, rel, pair[0], pair[1], f); got != w {
				t.Fatalf("%s: frame %d true relation %v, reference %v", where, f, got, w)
			}
		}
	}
}

// checkWorld runs every comparison over one world and returns how many
// appearances straddle a trimmed component end, so callers can insist the
// worlds exercised the seam clamp.
func checkWorld(t testing.TB, seed uint64) (straddles int) {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	vids, cat := diffWorld(seed)
	m := newDiffModels(int64(seed % 1000))
	g := cat.Geometry()
	var frameSeams, shotSeams []int
	off := 0
	for _, v := range vids {
		frameSeams, shotSeams = append(frameSeams, off), append(shotSeams, off/g.FramesPerShot)
		end := off + v.Meta.NumClips()*g.FramesPerClip() - 1
		for _, typ := range v.ObjectTypes() {
			for _, a := range v.ObjectAppearances(typ) {
				if a.Frames.Start+off <= end && a.Frames.End+off > end {
					straddles++
				}
			}
		}
		off = end + 1
	}
	streams := []TruthVideo{cat}
	for _, v := range vids {
		streams = append(streams, v)
	}
	for si, v := range streams {
		fs, ss := frameSeams, shotSeams
		if si > 0 {
			fs, ss = nil, nil // a single video has no seams
		}
		if n := v.NumFrames(); n > 0 {
			for _, run := range diffRuns(r, n, fs) {
				checkWindow(t, v, run)
				for _, typ := range []string{"person", "car", "human"} {
					for name, d := range m.objects {
						checkObjectRun(t, name, d, m.refObjs[name], v, typ, run)
					}
				}
				for _, det := range []string{"maskrcnn", "cascade"} {
					for _, rel := range []Relation{LeftOf, RightOf, Near} {
						checkRelation(t, m.objects[det], m.refObjs[det], v, rel, run)
					}
				}
			}
		}
		if n := g.NumShots(v.NumFrames()); n > 0 {
			for _, run := range diffRuns(r, n, ss) {
				for name, a := range m.actions {
					checkActionRun(t, name, a, m.refActs[name], v, run)
				}
			}
		}
	}
	return straddles
}

// checkActionRun is checkObjectRun for an action model over a run of shots.
func checkActionRun(t testing.TB, name string, a ActionRecognizer, ref refAction, v TruthVideo, run video.Interval) {
	t.Helper()
	where := fmt.Sprintf("%s on %s shots %v", name, v.ID(), run)
	dst := make([]float64, run.Len())
	a.Score(v, "jumping", run.Start, dst, 0, Need{}, 0)
	for i := range dst {
		if want := ref.ShotScore(v, "jumping", run.Start+i); math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("%s: batch score of shot %d = %v, reference %v", where, run.Start+i, dst[i], want)
		}
	}
	if got, want := unitScore(a, v, "jumping", run.End), ref.ShotScore(v, "jumping", run.End); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: ShotScore(%d) = %v, reference %v", where, run.End, got, want)
	}
	chain := ScorerOf(a)
	infos := chain.Tiers()
	tiers := []refTier{{cost: infos[0].UnitCost, try: func(u, _ int) (float64, error) { return ref.ShotScore(v, "jumping", u), nil }}}
	if c, ok := ref.(refActionCascade); ok {
		tiers = []refTier{
			{cost: infos[0].UnitCost, band: RecallBand(), try: func(u, _ int) (float64, error) { return c.cheap.ShotScore(v, "jumping", u), nil }},
			{cost: infos[1].UnitCost, try: func(u, _ int) (float64, error) { return c.accurate.ShotScore(v, "jumping", u), nil }},
		}
	}
	checkChain(t, where, chain, tiers, v, "jumping", run)
}

// TestFrameScoreBatchMatchesReference is the differential property test of
// the batch draws: over random worlds — single videos and multi-component
// concatenations, with runs at, across and beside every seam and
// single-unit runs — every simulated model, the distilled proxies, the
// cascades, the tracker and the relation predicates produce, bit for bit,
// the scores, events, accounts and indicators of the per-unit referee.
func TestFrameScoreBatchMatchesReference(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	straddles := 0
	for seed := 0; seed < seeds; seed++ {
		straddles += checkWorld(t, uint64(seed))
	}
	if straddles == 0 {
		t.Fatal("no appearance straddled a trimmed component end: the worlds do not exercise the seam clamp")
	}
}

// FuzzFrameScoreBatchMatchesReference runs the object comparisons over a
// fuzzed world and a fuzzed run of its concatenation.
func FuzzFrameScoreBatchMatchesReference(f *testing.F) {
	for _, s := range [][3]uint64{{1, 0, 50}, {7, 333, 0}, {42, 1000, 120}} {
		f.Add(s[0], s[1], s[2])
	}
	f.Fuzz(func(t *testing.T, seed, start, length uint64) {
		_, cat := diffWorld(seed)
		n := cat.NumFrames()
		if n == 0 {
			t.Skip("no whole clip in the world")
		}
		s := int(start % uint64(n))
		run := video.Interval{Start: s, End: min(n-1, s+int(length%200))}
		m := newDiffModels(int64(seed % 1000))
		checkWindow(t, cat, run)
		for name, d := range m.objects {
			for _, typ := range []string{"person", "car", "human"} {
				checkObjectRun(t, name, d, m.refObjs[name], cat, typ, run)
			}
		}
	})
}
