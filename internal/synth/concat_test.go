package synth

import (
	"testing"

	"svqact/internal/video"
)

func concatFixture(t *testing.T) (*Concat, []*Video) {
	t.Helper()
	mk := func(id string, frames int, seed int64) *Video {
		return MustGenerate(Script{
			ID: id, Frames: frames, FPS: 10, Geometry: video.DefaultGeometry, Seed: seed,
			Actions: []ActionSpec{{Name: "jumping", MeanGapShots: 40, MeanDurShots: 15}},
			Objects: []ObjectSpec{
				{Name: "car", MeanGapFrames: 1000, MeanDurFrames: 200},
			},
		})
	}
	vids := []*Video{mk("a", 5017, 1), mk("b", 3000, 2), mk("c", 4444, 3)}
	c, err := NewConcat("all", vids)
	if err != nil {
		t.Fatal(err)
	}
	return c, vids
}

func TestConcatGeometryAndLength(t *testing.T) {
	c, vids := concatFixture(t)
	want := 0
	for _, v := range vids {
		want += v.Meta.NumClips() * 50
	}
	if c.NumFrames() != want {
		t.Errorf("NumFrames = %d, want %d (whole clips only)", c.NumFrames(), want)
	}
	if c.ID() != "all" || c.Geometry() != video.DefaultGeometry {
		t.Error("metadata wrong")
	}
	if len(c.Components()) != 3 {
		t.Error("components lost")
	}
}

func TestConcatDelegatesTruth(t *testing.T) {
	c, vids := concatFixture(t)
	fpc := 50
	// Frame in the middle of the second video.
	local := 777
	global := vids[0].Meta.NumClips()*fpc + local
	if presentAt(c, "car", global) != vids[1].ObjectPresentAt("car", local) {
		t.Error("presence mapping wrong")
	}
	wantShot := video.DefaultGeometry.ShotOfFrame(local)
	globalShot := video.DefaultGeometry.ShotOfFrame(global)
	if c.ActionAt("jumping", globalShot) != vids[1].ActionAt("jumping", wantShot) {
		t.Error("action mapping wrong")
	}
	ids := c.AppendTracks("car", video.Interval{Start: global, End: global}, nil)
	local2 := vids[1].AppendTracks("car", video.Interval{Start: local, End: local}, nil)
	if len(ids) != len(local2) {
		t.Fatalf("instance count mismatch")
	}
	for i := range ids {
		if ids[i].TrackID != local2[i].TrackID+2*trackStride {
			t.Errorf("track id %d not namespaced: %d vs %d", i, ids[i].TrackID, local2[i].TrackID)
		}
	}
}

// presentAt reports presence the way the detectors derive it: some track of
// the one-frame window.
func presentAt(v interface {
	AppendTracks(string, video.Interval, []video.Track) []video.Track
}, typ string, frame int) bool {
	return len(v.AppendTracks(typ, video.Interval{Start: frame, End: frame}, nil)) > 0
}

// TestConcatTracksClampedToTrimmedExtent: a window's tracks carry global
// frames inside their own component's whole clips, so an appearance that
// outlives its video's last whole clip never shows in the next video, and
// presence from the window equals the component's own presence on every
// frame, seams included.
func TestConcatTracksClampedToTrimmedExtent(t *testing.T) {
	// Long, dense appearances and lengths that are not whole clips, so
	// appearances run past the trimmed ends.
	var vids []*Video
	for i, frames := range []int{1017, 2049, 777} {
		vids = append(vids, MustGenerate(Script{
			ID: string(rune('a' + i)), Frames: frames, FPS: 10, Geometry: video.DefaultGeometry, Seed: int64(i),
			Objects: []ObjectSpec{{Name: "car", MeanGapFrames: 60, MeanDurFrames: 400}},
		}))
	}
	c, err := NewConcat("all", vids)
	if err != nil {
		t.Fatal(err)
	}
	straddles := 0
	off := 0
	for _, v := range vids {
		end := off + v.Meta.NumClips()*50 - 1
		for _, a := range v.ObjectAppearances("car") {
			if a.Frames.Start+off <= end && a.Frames.End+off > end {
				straddles++
			}
		}
		for f := off; f <= end; f++ {
			if presentAt(c, "car", f) != v.ObjectPresentAt("car", f-off) {
				t.Fatalf("frame %d: window presence disagrees with the component's", f)
			}
		}
		for _, tr := range c.AppendTracks("car", video.Interval{Start: off, End: end}, nil) {
			if tr.Frames.Start < off || tr.Frames.End > end {
				t.Fatalf("track %+v leaves its component's extent [%d, %d]", tr, off, end)
			}
		}
		off = end + 1
	}
	if straddles == 0 {
		t.Fatal("no appearance straddles a trimmed end: the fixture does not exercise clamping")
	}
}

func TestConcatTruthSets(t *testing.T) {
	c, vids := concatFixture(t)
	q := QuerySpec{Action: "jumping", Objects: []string{"car"}}
	frames := c.TruthFrames(q)
	clips := c.TruthClips(q, 0)
	// Spot-check consistency between global truth and per-video truth.
	for f := 0; f < c.NumFrames(); f += 97 {
		g := video.DefaultGeometry
		want := presentAt(c, "car", f) && c.ActionAt("jumping", g.ShotOfFrame(f))
		if frames.Contains(f) != want {
			t.Fatalf("frame %d truth mismatch", f)
		}
	}
	// Clip truth must be within clip bounds.
	if sp, ok := clips.Span(); ok {
		total := 0
		for _, v := range vids {
			total += v.Meta.NumClips()
		}
		if sp.End >= total {
			t.Errorf("truth clip %d beyond %d", sp.End, total)
		}
	}
}

func TestConcatUnionTypes(t *testing.T) {
	a := MustGenerate(Script{
		ID: "x", Frames: 3000, FPS: 10, Geometry: video.DefaultGeometry, Seed: 1,
		Actions: []ActionSpec{{Name: "act1", MeanGapShots: 30, MeanDurShots: 10}},
		Objects: []ObjectSpec{{Name: "o1", MeanGapFrames: 800, MeanDurFrames: 100}},
	})
	b := MustGenerate(Script{
		ID: "y", Frames: 3000, FPS: 10, Geometry: video.DefaultGeometry, Seed: 2,
		Actions: []ActionSpec{{Name: "act2", MeanGapShots: 30, MeanDurShots: 10}},
		Objects: []ObjectSpec{{Name: "o2", MeanGapFrames: 800, MeanDurFrames: 100}},
	})
	c, err := NewConcat("u", []*Video{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.ObjectTypes(); len(got) != 2 || got[0] != "o1" || got[1] != "o2" {
		t.Errorf("ObjectTypes = %v", got)
	}
	if got := c.ActionTypes(); len(got) != 2 {
		t.Errorf("ActionTypes = %v", got)
	}
	// Absent types are simply never present.
	if presentAt(c, "o2", 10) {
		t.Error("o2 cannot be present inside video x")
	}
}

func TestConcatValidation(t *testing.T) {
	if _, err := NewConcat("none", nil); err == nil {
		t.Error("empty concat should fail")
	}
	a := MustGenerate(Script{
		ID: "x", Frames: 3000, FPS: 10, Geometry: video.DefaultGeometry, Seed: 1,
		Actions: []ActionSpec{{Name: "a", MeanGapShots: 30, MeanDurShots: 10}},
		Objects: []ObjectSpec{{Name: "o", MeanGapFrames: 800, MeanDurFrames: 100}},
	})
	b := MustGenerate(Script{
		ID: "y", Frames: 3000, FPS: 10, Geometry: video.Geometry{FramesPerShot: 5, ShotsPerClip: 4}, Seed: 2,
		Actions: []ActionSpec{{Name: "a", MeanGapShots: 30, MeanDurShots: 10}},
		Objects: []ObjectSpec{{Name: "o", MeanGapFrames: 800, MeanDurFrames: 100}},
	})
	if _, err := NewConcat("mixed", []*Video{a, b}); err == nil {
		t.Error("mixed geometries should fail")
	}
}
