package core

import (
	"context"
	"testing"
	"time"

	"svqact/internal/detect"
)

// faultyRun evaluates robustQuery over the seed-21 video with noisyModels(7)
// in the declared order (so a clean and a faulty run evaluate the same atoms
// on the same clips), optionally under 20 % transient faults, and returns the
// result with the meter the run charged.
func faultyRun(t *testing.T, faulty bool, attempts int) (*Result, *detect.Meter, detect.Models) {
	t.Helper()
	e := faultyEngine(t, faulty, attempts)
	res, err := e.Run(context.Background(), testVideo(t, 21, 20_000), robustQuery)
	if err != nil {
		t.Fatal(err)
	}
	return res, e.cfg.Meter, e.models
}

// faultyEngine is faultyRun's engine, before it runs.
func faultyEngine(t *testing.T, faulty bool, attempts int) *Engine {
	t.Helper()
	m := noisyModels(7)
	if faulty {
		fc := detect.FaultConfig{TransientRate: 0.2, Seed: 99}
		m.Objects = detect.InjectObjectFaults(m.Objects, fc)
		m.Actions = detect.InjectActionFaults(m.Actions, fc)
	}
	cfg := DefaultConfig()
	cfg.DeclaredOrder = true
	cfg.Retry = detect.RetryConfig{Attempts: attempts} // zero BaseDelay: no backoff sleeps in-test
	cfg.Meter = new(detect.Meter)
	return newTestEngine(t, m, cfg)
}

// TestMeterParityWithPerUnitCharging pins the run's one flush (Meter.Record
// of its ledger) to counts derived apart from it: the same run charging a
// second meter per evaluation through the evaluated hook, as the
// engine charged before runs kept a ledger, gave these, with unsampled
// clips scored up to their decision.
func TestMeterParityWithPerUnitCharging(t *testing.T) {
	e := faultyEngine(t, true, 6)
	ref := new(detect.Meter)
	chargePerEvaluation(e, ref)
	if _, err := e.Run(context.Background(), testVideo(t, 21, 20_000), robustQuery); err != nil {
		t.Fatal(err)
	}
	meter := e.cfg.Meter
	for _, want := range []struct {
		kind                         string
		attempts, retries, exhausted int64
	}{
		{detect.KindObject, 29_614, 5_912, 3},
		{detect.KindAction, 1_106, 217, 0},
	} {
		if got, per := meter.Attempts(want.kind), ref.Attempts(want.kind); got != want.attempts || per != want.attempts {
			t.Errorf("%s attempts = %d (per evaluation %d), want %d", want.kind, got, per, want.attempts)
		}
		if got, per := meter.Retries(want.kind), ref.Retries(want.kind); got != want.retries || per != want.retries {
			t.Errorf("%s retries = %d (per evaluation %d), want %d", want.kind, got, per, want.retries)
		}
		// Every retry answers one transient failure; three more exhausted
		// their unit's attempts (the run's three flagged clips, all objects).
		if got := meter.Faults(want.kind, true) - meter.Retries(want.kind); got != want.exhausted {
			t.Errorf("%s transient faults − retries = %d, want %d", want.kind, got, want.exhausted)
		}
		if got := meter.Faults(want.kind, false); got != 0 {
			t.Errorf("%s permanent faults = %d, want 0", want.kind, got)
		}
	}
}

// TestPlainFallibleModelPricedPerAttempt: a plain model is priced like a
// cascade — per attempt. With enough attempts that nothing is flagged, a run
// under transient faults evaluates exactly what the clean run does and costs
// exactly the retries more.
func TestPlainFallibleModelPricedPerAttempt(t *testing.T) {
	clean, _, _ := faultyRun(t, false, 12)
	res, meter, models := faultyRun(t, true, 12)
	if !res.Flagged.Empty() {
		t.Fatalf("flagged clips %v; 12 attempts should absorb every transient fault", res.Flagged)
	}
	if res.Sequences.String() != clean.Sequences.String() {
		t.Fatalf("sequences diverge under absorbed faults:\nclean  %v\nfaulty %v", clean.Sequences, res.Sequences)
	}
	objRetries, actRetries := meter.Retries(detect.KindObject), meter.Retries(detect.KindAction)
	if objRetries == 0 || actRetries == 0 {
		t.Fatalf("no retries to price: %d object, %d action", objRetries, actRetries)
	}
	extra := time.Duration(objRetries)*models.Objects.UnitCost() + time.Duration(actRetries)*models.Actions.UnitCost()
	if got := res.InferenceCost - clean.InferenceCost; got != extra {
		t.Errorf("faulty run costs %v more than the clean run's %v, want retries × unit cost = %v",
			got, clean.InferenceCost, extra)
	}
}
