package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"svqact/internal/detect"
	"svqact/internal/obs"
)

// A run sums its evaluations' accounts in a ledger and flushes it to the
// meter once. The referee is the charging it replaced: every evaluation's
// inference units and one Meter.Record of its account, as it happens.

// chargePerEvaluation makes e's runs also charge ref per evaluation, the way
// the engine charged its meter before runs kept a ledger.
func chargePerEvaluation(e *Engine, ref *detect.Meter) {
	e.hooks = &testHooks{evaluated: func(a Atom, _, inferences int, acc *detect.Account) {
		kind := a.Kind
		d := e.detector(kind)
		tiers := d.chain.Tiers()
		if kind == ActionPredicate {
			ref.AddActionShots(inferences)
		} else {
			ref.AddObjectFrames(inferences)
		}
		if kind == RelationPredicate {
			tiers = nil
		}
		ref.Record(d.label, tiers, acc)
	}}
}

// meterExposition renders a meter's svqact_detect_* series, without the
// flagged-clip counts: a flagged clip is charged as it is flagged, outside
// the ledger.
func meterExposition(t *testing.T, m *detect.Meter) string {
	t.Helper()
	reg := obs.NewRegistry()
	m.Register(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var keep []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.Contains(line, "flagged_clips") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// ledgerCase is one scenario: run drives e, which charges meter, and
// returns the run's terminal error for the case to check.
type ledgerCase struct {
	name    string
	models  func() detect.Models
	cfg     func(*Config)
	run     func(t *testing.T, e *Engine, meter *detect.Meter) error
	wantErr func(error) bool
	tiered  bool // the meter must show cascade tier series
	// nonzero are series, by a prefix of their line, that must count
	// something: the corners the case is there to reach.
	nonzero []string
}

// cancelAfter cancels a context at its model's n-th Score call, inside a
// clip's evaluation.
type cancelAfter struct {
	detect.Model
	calls  atomic.Int64
	n      int64
	cancel context.CancelFunc
}

func (m *cancelAfter) Score(v detect.TruthVideo, label string, start int, dst []float64, tau float64, need detect.Need, attempt int) (int, error) {
	if m.calls.Add(1) == m.n {
		m.cancel()
	}
	return m.Model.Score(v, label, start, dst, tau, need, attempt)
}

func isDegraded(err error) bool {
	var de *DegradedError
	return errors.As(err, &de)
}

func isInterrupted(err error) bool {
	var ie *InterruptedError
	return errors.As(err, &ie)
}

// TestLedgerMatchesPerEvaluationCharging: on every way a run ends — clean,
// cascaded, fault-injected past its failure budget, cancelled mid-clip,
// with a relation atom, streamed with a Result every few clips, ingesting,
// and a two-worker fleet — the meter's counts after the run equal the
// per-evaluation referee's, and a streaming run charges nothing until its
// Result.
func TestLedgerMatchesPerEvaluationCharging(t *testing.T) {
	basic := func(t *testing.T, e *Engine, _ *detect.Meter) error {
		_, err := e.Run(context.Background(), testVideo(t, 6, 20_000), robustQuery)
		return err
	}
	isNil := func(err error) bool { return err == nil }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cases := []ledgerCase{
		{name: "clean", models: func() detect.Models { return noisyModels(3) }, run: basic, wantErr: isNil},
		{name: "cascade", models: func() detect.Models { return cascadeModels(5) }, run: basic, wantErr: isNil, tiered: true},
		{
			// Faults compose per tier, as the server builds its cascades, so
			// the proxies fall through as well as retry.
			name: "faulty-degraded",
			models: func() detect.Models {
				fc := detect.FaultConfig{TransientRate: 0.2, PermanentRate: 0.02, Seed: 4}
				obj, act := detect.NewObjectDetector(detect.MaskRCNN, 4), detect.NewActionRecognizer(detect.I3D, 4)
				return detect.NewModels(
					detect.NewObjectCascade(
						detect.ObjectTier{Detector: detect.InjectObjectFaults(detect.NewDistilledObjectDetector(obj, detect.DistilledRCNN, 4), fc), Band: detect.RecallBand()},
						detect.ObjectTier{Detector: detect.InjectObjectFaults(obj, fc)}),
					detect.NewActionCascade(
						detect.ActionTier{Recognizer: detect.InjectActionFaults(detect.NewDistilledActionRecognizer(act, detect.DistilledI3D, 4), fc), Band: detect.RecallBand()},
						detect.ActionTier{Recognizer: detect.InjectActionFaults(act, fc)}))
			},
			cfg: func(c *Config) {
				c.Retry = detect.RetryConfig{Attempts: 2}
				c.FailureBudget = 0.05
				c.ActionFirst = true
			},
			run: basic, wantErr: isDegraded, tiered: true,
			nonzero: []string{
				`svqact_detect_retries_total{kind="object"}`,
				`svqact_detect_faults_total{kind="object",outcome="permanent"}`,
				`svqact_detect_tier_decisions_total{kind="object",outcome="fallthrough",tier="distilled-rcnn"}`,
			},
		},
		{
			// The action runs first on every clip and cancels on its 150th,
			// so the clip's object atoms meet the cancelled context.
			name: "cancelled-mid-clip",
			models: func() detect.Models {
				m := noisyModels(8)
				m.Actions = &cancelAfter{Model: m.Actions, n: 150, cancel: cancel}
				return m
			},
			cfg: func(c *Config) { c.ActionFirst, c.NoShortCircuit = true, true },
			run: func(t *testing.T, e *Engine, _ *detect.Meter) error {
				_, err := e.Run(ctx, testVideo(t, 6, 20_000), robustQuery)
				return err
			},
			wantErr: isInterrupted,
		},
		{
			name: "relation",
			models: func() detect.Models {
				m := noisyModels(7)
				m.Objects = detect.InjectObjectFaults(m.Objects, detect.FaultConfig{TransientRate: 0.1, Seed: 3})
				return m
			},
			cfg: func(c *Config) { c.Retry = detect.RetryConfig{Attempts: 6} },
			run: func(t *testing.T, e *Engine, _ *detect.Meter) error {
				_, err := e.RunCNF(context.Background(), testVideo(t, 21, 20_000), relationQuery)
				return err
			},
			wantErr: isNil,
		},
		{
			name:   "streaming",
			models: func() detect.Models { return cascadeModels(9) },
			run: func(t *testing.T, e *Engine, meter *detect.Meter) error {
				run, err := e.NewRun(context.Background(), testVideo(t, 6, 20_000), robustQuery)
				if err != nil {
					return err
				}
				for i := 1; run.Step(); i++ {
					if i == 10 && meter.Attempts(detect.KindObject)+meter.Attempts(detect.KindAction) != 0 {
						t.Fatal("the meter was charged before the run's Result")
					}
					if i%24 == 0 {
						run.Result()
					}
				}
				run.Result()
				return run.Err()
			},
			wantErr: isNil, tiered: true,
		},
		{
			name:   "ingest",
			models: func() detect.Models { return cascadeModels(10) },
			run: func(t *testing.T, e *Engine, _ *detect.Meter) error {
				_, _, err := e.EvaluateTypes(context.Background(), testVideo(t, 6, 12_000), []string{"car", "human"}, []string{"jumping"})
				return err
			},
			wantErr: isNil, tiered: true,
		},
		{
			name:   "fleet",
			models: func() detect.Models { return cascadeModels(11) },
			run: func(t *testing.T, e *Engine, _ *detect.Meter) error {
				fr, err := e.RunAll(context.Background(), fleetVideos(t, 8, 3_000), fleetQuery, FleetOptions{Workers: 2})
				if err == nil && fr.OK != 8 {
					t.Fatalf("fleet: %d of 8 videos ok", fr.OK)
				}
				return err
			},
			wantErr: isNil, tiered: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			if c.cfg != nil {
				c.cfg(&cfg)
			}
			meter, ref := new(detect.Meter), new(detect.Meter)
			cfg.Meter = meter
			e := newTestEngine(t, c.models(), cfg)
			chargePerEvaluation(e, ref)
			if err := c.run(t, e, meter); !c.wantErr(err) {
				t.Fatalf("run ended with %v", err)
			}
			got, want := meterExposition(t, meter), meterExposition(t, ref)
			if got != want {
				t.Fatalf("meter after the run:\n%s\nper-evaluation referee:\n%s", got, want)
			}
			if ref.Attempts(detect.KindObject) == 0 || ref.Attempts(detect.KindAction) == 0 {
				t.Fatalf("the referee charged no attempts:\n%s", want)
			}
			if tiered := strings.Contains(want, "svqact_detect_tier_units_total{"); tiered != c.tiered {
				t.Fatalf("tier series present = %v, want %v", tiered, c.tiered)
			}
			for _, series := range c.nonzero {
				if !strings.Contains(want, "\n"+series+" ") || strings.Contains(want, "\n"+series+" 0\n") {
					t.Fatalf("the case never reached %s:\n%s", series, want)
				}
			}
		})
	}
}
