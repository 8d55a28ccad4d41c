package core

import (
	"context"
	"testing"
	"time"

	"svqact/internal/detect"
)

// relationQuery is the relation statement the fault tests run.
var relationQuery = CNF{Clauses: []Clause{
	{Atoms: []Atom{ActionAtom("jumping")}},
	{Atoms: []Atom{RelationAtom(detect.Near, "human", "car")}},
}}

// relationRun evaluates relationQuery over the seed-21 video in the declared
// order, with the object detector optionally fault-injected.
func relationRun(t *testing.T, fc *detect.FaultConfig, cfg Config) (*Result, *detect.Meter) {
	t.Helper()
	m := noisyModels(7)
	if fc != nil {
		m.Objects = detect.InjectObjectFaults(m.Objects, *fc)
	}
	cfg.DeclaredOrder = true
	cfg.Meter = new(detect.Meter)
	res, err := newTestEngine(t, m, cfg).RunCNF(context.Background(), testVideo(t, 21, 20_000), relationQuery)
	if err != nil {
		t.Fatal(err)
	}
	return res, cfg.Meter
}

// TestRelationAtomFlagsPermanentObjectFaults: a relation atom reads its
// operands' events through the object detector's retried path, so a frame
// whose events still fail fails the clip — flagged, charged to the object
// kind and priced per attempt, as an object atom's would be.
func TestRelationAtomFlagsPermanentObjectFaults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoShortCircuit = true // every clip evaluates the relation
	cfg.FailureBudget = 1     // flag, never degrade
	cfg.Retry = detect.RetryConfig{Attempts: 3}
	res, meter := relationRun(t, &detect.FaultConfig{PermanentRate: 1, Seed: 9}, cfg)
	clips := int64(res.NumClips)
	if got := int64(res.Flagged.TotalLen()); got != clips {
		t.Fatalf("%d of %d clips flagged, want every clip", got, clips)
	}
	if !res.Sequences.Empty() {
		t.Errorf("sequences %v from a detector that never answers", res.Sequences)
	}
	if got := meter.Flagged(detect.KindObject); got != clips {
		t.Errorf("%d flagged clips charged to objects, want %d", got, clips)
	}
	// Each clip's first frame fails permanently on its first attempt.
	if a, p := meter.Attempts(detect.KindObject), meter.Faults(detect.KindObject, false); a != clips || p != clips {
		t.Errorf("object attempts %d, permanent faults %d, want %d each", a, p, clips)
	}
	unit := noisyModels(7).Objects.UnitCost()
	actions := time.Duration(meter.Attempts(detect.KindAction)) * noisyModels(7).Actions.UnitCost()
	if want := actions + time.Duration(clips)*unit; res.InferenceCost != want {
		t.Errorf("inference cost %v, want %v: the action shots plus one object attempt per clip", res.InferenceCost, want)
	}
}

// TestRelationAtomRetriesTransientObjectFaults: transient faults absorbed by
// retries leave the clean run's answer, at the clean cost plus one object
// unit cost per retry.
func TestRelationAtomRetriesTransientObjectFaults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Retry = detect.RetryConfig{Attempts: 12} // zero BaseDelay: no backoff sleeps in-test
	clean, _ := relationRun(t, nil, cfg)
	res, meter := relationRun(t, &detect.FaultConfig{TransientRate: 0.2, Seed: 99}, cfg)
	if !res.Flagged.Empty() {
		t.Fatalf("flagged clips %v; 12 attempts should absorb every transient fault", res.Flagged)
	}
	if res.Sequences.String() != clean.Sequences.String() {
		t.Fatalf("sequences diverge under absorbed faults:\nclean  %v\nfaulty %v", clean.Sequences, res.Sequences)
	}
	retries := meter.Retries(detect.KindObject)
	if retries == 0 {
		t.Fatal("no object retries: the relation did not observe the detector's faults")
	}
	if got, want := res.InferenceCost-clean.InferenceCost, time.Duration(retries)*noisyModels(7).Objects.UnitCost(); got != want {
		t.Errorf("faulty run costs %v more than the clean run's %v, want retries × unit cost = %v", got, clean.InferenceCost, want)
	}
}
