package core

import (
	"fmt"
	"math/rand"
	"testing"

	"svqact/internal/detect"
	"svqact/internal/video"
)

// A run samples its bootstrap prefix only when an estimator can read it:
// an SVAQD run longer than robustWindowClips clips. The referee is the same
// engine with the alwaysBootstrap hook set, which samples on the schedule
// below, as every run did before the rule.

// refSampledClip is the sample schedule every run kept before the rule:
// the bootstrap prefix, then every estimatorSampleEvery-th clip, or every
// clip when everyClip is set.
func refSampledClip(c int, everyClip bool) bool {
	return everyClip || c < bootstrapClips || c%estimatorSampleEvery == 0
}

// scheduleFrames is the frame count of a video of n clips at the test
// geometry.
func scheduleFrames(n int) int {
	return n * video.DefaultGeometry.FramesPerClip()
}

// scheduleRun runs shape over v with a fresh engine on the referee's
// schedule when alwaysBootstrap is set.
func scheduleRun(t *testing.T, mk func(detect.Models, Config) (*Engine, error), m detect.Models, cfg Config, shape string, v detect.TruthVideo, alwaysBootstrap bool) *Result {
	t.Helper()
	e, err := mk(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.hooks = &testHooks{alwaysBootstrap: alwaysBootstrap}
	res, err := decisionShapes[shape](e, v)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// estimateSignature is what the schedule may not move even where permanent
// faults move the flags: Processed, the budget-skipped count, and every
// atom's critical value and background.
func estimateSignature(res *Result) string {
	s := fmt.Sprintf("processed=%d budget_skipped=%d", res.Processed, res.BudgetSkipped)
	for _, ps := range res.Predicates {
		s += fmt.Sprintf(" %s{k=%d p=%v}", ps.Name, ps.Critical, ps.Background)
	}
	return s
}

// scheduleSignature is everything the schedule may not move without
// permanent faults: the sequences and the flagged set, then the estimates.
// Its Clips and evaluation counts are the schedule's to move.
func scheduleSignature(res *Result) string {
	return fmt.Sprintf("seq=%v flagged=%v %s", res.Sequences, res.Flagged, estimateSignature(res))
}

// FuzzSampleScheduleKeepsAnswers: skipping the bootstrap where no estimator
// reads it moves no answer. Over fuzzed worlds and run lengths of 1 to 120
// clips (straddling robustWindowClips), SVAQ and SVAQD, a basic query, an
// OR-group and a relation, the accurate models and their cascades, clean,
// under transient faults the retries absorb and under permanent faults:
//   - a run that keeps its bootstrap is the referee's run, to the cost;
//   - clean or under transient faults, any other run answers the referee's
//     sequences, flagged set, Processed and every atom's critical value and
//     background, and costs no more where the referee scans every clip in
//     full with one tier (at most robustWindowClips clips, no cascade);
//   - under permanent faults it keeps Processed and the estimates, flags a
//     subset of the referee's flags on the clips the referee scans in full,
//     and every clip it does not flag answers as the fault-free run does.
//
// The cost bound stops where it would not hold: a cascade's entry tier and
// a longer run's plan order follow the planner's live estimates, which see
// fewer sampled clips, and a clip stops at its first permanent failure.
func FuzzSampleScheduleKeepsAnswers(f *testing.F) {
	for i, n := range []uint8{1, 38, 48, 49, 50, 51, 53, 120, 30, 40, 90, 20} {
		f.Add(int64(23+i), n, i%2 == 0, uint8(i), i%4 >= 2, uint8(i))
	}
	shapes := []string{"basic", "cnf", "relation"}
	f.Fuzz(func(t *testing.T, seed int64, clips uint8, dynamic bool, shape uint8, cascade bool, faults uint8) {
		n := 1 + int(clips)%120
		v := extTestVideoFrames(t, seed, scheduleFrames(n))
		mk, name := NewSVAQ, "SVAQ"
		if dynamic {
			mk, name = NewSVAQD, "SVAQD"
		}
		var fc *detect.FaultConfig
		switch faults % 3 {
		case 1:
			fc = &detect.FaultConfig{TransientRate: 0.2, Seed: seed}
		case 2:
			fc = &detect.FaultConfig{PermanentRate: 0.002, Seed: seed}
		}
		cfg := DefaultConfig()
		cfg.Retry = detect.RetryConfig{Attempts: 10} // zero BaseDelay: no backoff sleeps in-test
		cfg.FailureBudget = 1                        // a permanent fault flags its clip and aborts nothing
		sh := shapes[int(shape)%len(shapes)]
		m := decisionModels(seed, cascade, fc)
		got := scheduleRun(t, mk, m, cfg, sh, v, false)
		want := scheduleRun(t, mk, m, cfg, sh, v, true)
		label := fmt.Sprintf("%s/%s/clips=%d/cascade=%v/faults=%d", name, sh, n, cascade, faults%3)
		if dynamic && n > robustWindowClips {
			if g, w := decisionSignature(got), decisionSignature(want); g != w || got.InferenceCost != want.InferenceCost {
				t.Errorf("%s: the run keeps its bootstrap, yet\n got %s cost=%v\nwant %s cost=%v", label, g, got.InferenceCost, w, want.InferenceCost)
			}
			return
		}
		if faults%3 != 2 {
			if g, w := scheduleSignature(got), scheduleSignature(want); g != w {
				t.Errorf("%s:\n got %s\nwant %s", label, g, w)
			}
			if !want.Flagged.Empty() {
				t.Errorf("%s: the referee flagged %v; the retries were meant to absorb every fault", label, want.Flagged)
			}
			if n <= robustWindowClips && !cascade && got.InferenceCost > want.InferenceCost {
				t.Errorf("%s: the schedule cost %v, the referee %v", label, got.InferenceCost, want.InferenceCost)
			}
			return
		}
		if g, w := estimateSignature(got), estimateSignature(want); g != w {
			t.Errorf("%s:\n got %s\nwant %s", label, g, w)
		}
		full := video.Interval{Start: 0, End: min(n, bootstrapClips) - 1}
		if extra := got.Flagged.Clamp(full).Subtract(want.Flagged); !extra.Empty() {
			t.Errorf("%s: flagged %v, which the referee's full scan of clips %v did not", label, extra, full)
		}
		// No estimator updates in this run, so its critical values are the
		// fault-free run's, and an unflagged clip's answer must be too.
		clean := scheduleRun(t, mk, decisionModels(seed, cascade, nil), cfg, sh, v, false)
		for c := 0; c < got.NumClips; c++ {
			if g, w := got.Sequences.Contains(c), clean.Sequences.Contains(c); !got.Flagged.Contains(c) && g != w {
				t.Errorf("%s: unflagged clip %d holds=%v, fault-free %v", label, c, g, w)
			}
		}
	})
}

// TestBootstrapPremise guards what the sampling rule rests on: the
// bootstrap is at least as long as the gate's ring, and no SVAQD estimator
// update lands before clip robustWindowClips — over random worlds and
// lengths, every query shape, with and without NoShortCircuit. Some run
// does update on clip robustWindowClips itself, so a run one clip longer
// than the ring must keep its bootstrap: the rule cannot be loosened.
func TestBootstrapPremise(t *testing.T) {
	if bootstrapClips < robustWindowClips {
		t.Fatalf("bootstrapClips = %d < robustWindowClips = %d: the gate's ring no longer fills within the bootstrap", bootstrapClips, robustWindowClips)
	}
	r := rand.New(rand.NewSource(40))
	first := -1
	for world := 0; world < 6; world++ {
		seed := r.Int63n(1 << 30)
		n := robustWindowClips + 1 + r.Intn(80)
		v := extTestVideoFrames(t, seed, scheduleFrames(n))
		for _, shape := range []string{"basic", "cnf", "relation"} {
			for _, all := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.NoShortCircuit = all
				e, err := NewSVAQD(noisyModels(seed), cfg)
				if err != nil {
					t.Fatal(err)
				}
				ticks := 0
				e.hooks = &testHooks{ticked: func(clip int) {
					ticks++
					if clip < robustWindowClips {
						t.Errorf("seed=%d/%s/noShortCircuit=%v: an estimator update on clip %d, before clip %d", seed, shape, all, clip, robustWindowClips)
					}
					if first < 0 || clip < first {
						first = clip
					}
				}}
				if _, err := decisionShapes[shape](e, v); err != nil {
					t.Fatal(err)
				}
				if ticks == 0 {
					t.Errorf("seed=%d/%s/noShortCircuit=%v: no estimator update over %d clips; the check pins nothing", seed, shape, all, n)
				}
			}
		}
	}
	if first != robustWindowClips {
		t.Errorf("the earliest estimator update was on clip %d, want %d", first, robustWindowClips)
	}
}
