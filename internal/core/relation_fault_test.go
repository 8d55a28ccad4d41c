package core

import (
	"context"
	"testing"
	"time"

	"svqact/internal/detect"
	"svqact/internal/obs"
)

// relationQuery is the relation statement the fault tests run.
var relationQuery = CNF{Clauses: []Clause{
	{Atoms: []Atom{ActionAtom("jumping")}},
	{Atoms: []Atom{RelationAtom(detect.Near, "human", "car")}},
}}

// relationRun evaluates relationQuery over the seed-21 video in the declared
// order, with the object detector optionally fault-injected. It also returns
// the relation predicate span's units_scored.
func relationRun(t *testing.T, fc *detect.FaultConfig, cfg Config) (*Result, *detect.Meter, int) {
	t.Helper()
	m := noisyModels(7)
	if fc != nil {
		m.Objects = detect.InjectObjectFaults(m.Objects, *fc)
	}
	cfg.DeclaredOrder = true
	cfg.Meter = new(detect.Meter)
	trace := obs.NewTrace("relation-test")
	ctx := obs.WithTrace(context.Background(), trace)
	res, err := newTestEngine(t, m, cfg).RunCNF(ctx, testVideo(t, 21, 20_000), relationQuery)
	if err != nil {
		t.Fatal(err)
	}
	name := "predicate:" + res.Predicates[1].Name
	sp := trace.Snapshot().Find(name)
	if sp == nil || res.Predicates[1].Kind != RelationPredicate {
		t.Fatalf("no span %q for the relation atom", name)
	}
	units, ok := sp.Attrs["units_scored"].(int)
	if !ok {
		t.Fatalf("%s: units_scored %v is not an int", name, sp.Attrs["units_scored"])
	}
	return res, cfg.Meter, units
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
	res, meter, _ := relationRun(t, &detect.FaultConfig{PermanentRate: 1, Seed: 9}, cfg)
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
	clean, _, _ := relationRun(t, nil, cfg)
	res, meter, _ := relationRun(t, &detect.FaultConfig{TransientRate: 0.2, Seed: 99}, cfg)
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

// TestRelationAtomUnitsScoredCountsReachedFrames: a relation atom's
// units_scored counts the frames its reads reached, as its account charged
// them — one per clip when every clip fails on its first frame, and the
// clean run's count when retries absorb every fault.
func TestRelationAtomUnitsScoredCountsReachedFrames(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoShortCircuit = true // every clip evaluates the relation
	cfg.FailureBudget = 1     // flag, never degrade
	cfg.Retry = detect.RetryConfig{Attempts: 3}
	res, _, units := relationRun(t, &detect.FaultConfig{PermanentRate: 1, Seed: 9}, cfg)
	if units != res.NumClips {
		t.Errorf("units_scored %d under permanent faults, want one frame per clip (%d)", units, res.NumClips)
	}

	cfg = DefaultConfig()
	cfg.Retry = detect.RetryConfig{Attempts: 12}
	_, _, clean := relationRun(t, nil, cfg)
	res, _, units = relationRun(t, &detect.FaultConfig{TransientRate: 0.2, Seed: 99}, cfg)
	if !res.Flagged.Empty() {
		t.Fatalf("flagged clips %v; 12 attempts should absorb every transient fault", res.Flagged)
	}
	if units != clean || clean == 0 {
		t.Errorf("units_scored %d under absorbed faults, want the clean run's %d", units, clean)
	}
}
