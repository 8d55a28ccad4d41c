package server

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"svqact/internal/detect"
	"svqact/internal/video"
)

// TestBudgetCountsRetriesWithoutCascade: plain models are priced per attempt
// like cascades, so under fault injection the budget ledger is the priced
// attempts the meter saw — retries included — and a budgeted query stops
// within one clip of its limit whether or not -cascade is on.
func TestBudgetCountsRetriesWithoutCascade(t *testing.T) {
	s := New(Config{
		Scale: 0.05, Seed: 42,
		Fault: &detect.FaultConfig{TransientRate: 0.2, Seed: 7},
		Retry: detect.RetryConfig{Attempts: 8}, // zero BaseDelay: no backoff sleeps in-test
	})
	req, err := json.Marshal(QueryRequest{SQL: tierQuerySQL, BudgetMS: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	rr := postQuery(s.Handler(), string(req))
	if rr.Code != http.StatusOK {
		t.Fatalf("budget exhaustion must degrade, got status %d: %s", rr.Code, rr.Body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	b := qr.Plan.Budget
	if b == nil || !b.Exhausted || b.SkippedClips == 0 {
		t.Fatalf("budget block %+v: want exhausted with skipped clips", b)
	}
	if s.meter.Retries(detect.KindObject) == 0 {
		t.Fatal("no retries under 20% transient faults: nothing to price")
	}
	priced := time.Duration(s.meter.Attempts(detect.KindObject))*s.models.Objects.UnitCost() +
		time.Duration(s.meter.Attempts(detect.KindAction))*s.models.Actions.UnitCost()
	if spent := time.Duration(b.SpentMS * 1e6); spent != priced {
		t.Errorf("budget ledger spent %v, the attempts made are priced %v", spent, priced)
	}
	// The gate closes between clips, so the overshoot is at most the last
	// clip's price: both atoms over every unit, with room for its retries.
	g := video.DefaultGeometry
	clip := time.Duration(g.FramesPerClip())*s.models.Objects.UnitCost() + time.Duration(g.ShotsPerClip)*s.models.Actions.UnitCost()
	if over := b.SpentMS - b.LimitMS; over < 0 || over > 2*float64(clip)/1e6 {
		t.Errorf("spent %vms against a %vms budget: overshoot %vms outside [0, two clean clips = %vms]",
			b.SpentMS, b.LimitMS, over, 2*float64(clip)/1e6)
	}
}
