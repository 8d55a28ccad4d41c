package detect

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"svqact/internal/obs"
	"svqact/internal/video"
)

// The state fleet workers share without a lock: a simulated model's burst
// overlay cache and a meter's per-tier counters.

// collidingLabels returns labels whose overlays share one slot of c's cache
// on the video, at least want of them: the largest such group among the
// first few thousand "ghost" labels.
func collidingLabels(t *testing.T, c *simCore, videoID string, want int) []string {
	t.Helper()
	bySlot := map[uint64][]string{}
	var best []string
	for i := 0; i < 8*overlaySlots; i++ {
		label := fmt.Sprintf("ghost%d", i)
		slot := keyed(c.seed, hashString(videoID), hashString(label)) % overlaySlots
		bySlot[slot] = append(bySlot[slot], label)
		if len(bySlot[slot]) > len(best) {
			best = bySlot[slot]
		}
	}
	if len(best) < want {
		t.Fatalf("no slot holds %d labels", want)
	}
	return best
}

// TestOverlayCacheExactUnderCollisions: (video, label) pairs that share a
// cache slot, asked for alternately, each get their own overlay — the
// referee's — and so their own scores, though every ask evicts the other.
func TestOverlayCacheExactUnderCollisions(t *testing.T) {
	v := testVideo(t, 44)
	d := NewObjectDetector(YOLOv3, 3)
	ref := refSimObject{newRefCore(d.simCore)}
	labels := collidingLabels(t, d.simCore, v.ID(), 2)[:2]
	units := v.NumFrames()
	dst := make([]float64, 400)
	for round := 0; round < 6; round++ {
		label := labels[round%2]
		key := keyed(d.seed, hashString(v.ID()), hashString(label))
		got := d.burstOverlay(v.ID(), label, key, units)
		if want := ref.core.burstOverlay(v.ID(), label, units); !reflect.DeepEqual(got.Intervals(), want.Intervals()) {
			t.Fatalf("round %d, %q: overlay %v, reference %v", round, label, got.Intervals(), want.Intervals())
		}
		if len(got.Intervals()) == 0 {
			t.Fatalf("%q has no bursts over %d frames: the overlay is not exercised", label, units)
		}
		if o := d.overlays[key%overlaySlots].Load(); o == nil || o.label != label {
			t.Fatalf("round %d: the slot does not hold %q's overlay", round, label)
		}
		start := round * 1000
		d.Score(v, label, start, dst, 0, Need{}, 0)
		for i, s := range dst {
			if want := ref.FrameScore(v, label, start+i); s != want {
				t.Fatalf("round %d, %q frame %d: scored %v, reference %v", round, label, start+i, s, want)
			}
		}
	}
}

// TestOverlayCacheConcurrent hammers one slot of the cache from many
// workers, each asking for colliding labels in its own order: every answer
// is the label's own overlay. Run it under -race.
func TestOverlayCacheConcurrent(t *testing.T) {
	v := testVideo(t, 45)
	d := NewObjectDetector(MaskRCNN, 8)
	labels := collidingLabels(t, d.simCore, v.ID(), 4)
	units := v.NumFrames()
	ref := newRefCore(d.simCore)
	want := make([][]video.Interval, len(labels))
	for i, label := range labels {
		want[i] = ref.burstOverlay(v.ID(), label, units).Intervals()
	}
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (r*(w+1) + w) % len(labels)
				key := keyed(d.seed, hashString(v.ID()), hashString(labels[i]))
				if got := d.burstOverlay(v.ID(), labels[i], key, units).Intervals(); !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("worker %d round %d: %q got another overlay", w, r, labels[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMeterConcurrentRecord: workers flush cascade accounts of both kinds
// into one meter — tiers first seen concurrently, the registry attached
// midway — and every per-tier and per-kind counter sums exactly.
func TestMeterConcurrentRecord(t *testing.T) {
	var m Meter
	objTiers := ScorerOf(NewDistilledObjectCascade(NewObjectDetector(MaskRCNN, 1), DistilledRCNN, 1)).Tiers()
	actTiers := ScorerOf(NewDistilledActionCascade(NewActionRecognizer(I3D, 1), DistilledI3D, 1)).Tiers()
	const workers, rounds = 8, 500
	acc := Account{
		Units: []int64{5, 2}, Decided: []int64{3, 2}, Escalated: []int64{2, 0}, Fallthroughs: []int64{1, 0},
		Attempts: 8, Retries: 1, Transient: 1,
	}
	reg := obs.NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if w == 0 && r == rounds/2 {
					m.Register(reg)
				}
				m.Record(KindObject, objTiers, &acc)
				m.Record(KindAction, actTiers, &acc)
			}
		}()
	}
	wg.Wait()
	var exposition bytes.Buffer
	if err := reg.WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	const n = workers * rounds
	for ki, tiers := range [][]TierInfo{objTiers, actTiers} {
		kind := kindNames[ki]
		if got := m.Attempts(kind); got != n*acc.Attempts {
			t.Errorf("%s attempts %d, want %d", kind, got, n*acc.Attempts)
		}
		for i, ti := range tiers {
			tc := m.tier(ki, ti.Name)
			got := [4]int64{tc.units.Value(), tc.decided.Value(), tc.escalated.Value(), tc.fellthrough.Value()}
			want := [4]int64{n * acc.Units[i], n * acc.Decided[i], n * acc.Escalated[i], n * acc.Fallthroughs[i]}
			if got != want {
				t.Errorf("%s tier %s: units/decided/escalated/fallthrough %v, want %v", kind, ti.Name, got, want)
			}
			series := fmt.Sprintf("svqact_detect_tier_units_total{kind=%q,tier=%q} %d\n", kind, ti.Name, want[0])
			if !strings.Contains(exposition.String(), series) {
				t.Errorf("the registry attached midway does not expose %q", series)
			}
		}
	}
}
