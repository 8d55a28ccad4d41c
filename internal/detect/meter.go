package detect

import (
	"sync"
	"time"

	"svqact/internal/obs"
)

// Detector kinds, the label values of the per-kind metrics and the Kind
// field of DetectionError.
const (
	KindObject = "object"
	KindAction = "action"
)

// Meter accumulates inference accounting for the runtime analysis of §5.2
// and the serving metrics: the units the engine runs a model on (one object
// inference covers every type on a frame, so a frame is charged once), the
// Accounts of a run's evaluations, summed per model and flushed through
// Record once per run, and every clip skipped-and-flagged after retry
// exhaustion. Its counters are obs instruments, so a server-lifetime meter
// serves them on /metrics via Register. The zero value is ready to use.
type Meter struct {
	// kinds holds one counter block per detector kind, in kindNames order.
	kinds [2]kindCounters

	// Cascade tiers are discovered at charge time, so their counters live in
	// one map per kind, by tier name, under mu, and attach lazily to the
	// registry the meter was registered on.
	mu    sync.Mutex
	reg   *obs.Registry
	tiers [2]map[string]*tierCounters
}

// kindNames are the kind label values, indexing Meter.kinds and Meter.tiers.
var kindNames = [2]string{KindObject, KindAction}

// kindIndex is a detector kind's index in kindNames.
func kindIndex(kind string) int {
	if kind == KindAction {
		return 1
	}
	return 0
}

// kindCounters is one detector kind's block of the svqact_detect_* families.
type kindCounters struct {
	inferences obs.Counter
	attempts   obs.Counter
	retries    obs.Counter
	transient  obs.Counter
	permanent  obs.Counter
	flagged    obs.Counter
}

// tierCounters is one (kind, tier)'s block of svqact_detect_tier_* families.
type tierCounters struct {
	units       obs.Counter
	decided     obs.Counter
	escalated   obs.Counter
	fellthrough obs.Counter
}

// kind returns the counter block of a detector kind.
func (m *Meter) kind(kind string) *kindCounters { return &m.kinds[kindIndex(kind)] }

// AddObjectFrames records n frames passed through the object detector.
func (m *Meter) AddObjectFrames(n int) { m.kinds[0].inferences.Add(int64(n)) }

// AddActionShots records n shots passed through the action recogniser.
func (m *Meter) AddActionShots(n int) { m.kinds[1].inferences.Add(int64(n)) }

// ObjectFrames returns the number of object-detector inferences.
func (m *Meter) ObjectFrames() int64 { return m.kinds[0].inferences.Value() }

// ActionShots returns the number of action-recogniser inferences.
func (m *Meter) ActionShots() int64 { return m.kinds[1].inferences.Value() }

// Record flushes an account — one evaluation's, or a run's sum of them: its
// attempts, retries and failed attempts with a model of the kind and, for a
// chain of two or more tiers, each tier's units and outcomes.
func (m *Meter) Record(kind string, tiers []TierInfo, acc *Account) {
	ki := kindIndex(kind)
	k := &m.kinds[ki]
	k.attempts.Add(acc.Attempts)
	k.retries.Add(acc.Retries)
	k.transient.Add(acc.Transient)
	k.permanent.Add(acc.Permanent)
	if len(tiers) < 2 {
		return
	}
	for i, ti := range tiers {
		u, d, e, f := acc.Units[i], acc.Decided[i], acc.Escalated[i], acc.Fallthroughs[i]
		if u == 0 && d == 0 && e == 0 && f == 0 {
			continue
		}
		tc := m.tier(ki, ti.Name)
		tc.units.Add(u)
		tc.decided.Add(d)
		tc.escalated.Add(e)
		tc.fellthrough.Add(f)
	}
}

// RecordFlagged records one clip skipped-and-flagged after retry exhaustion,
// attributed to the detector kind whose invocation exhausted its retries.
func (m *Meter) RecordFlagged(kind string) { m.kind(kind).flagged.Inc() }

// Attempts returns the invocation attempts recorded for the kind.
func (m *Meter) Attempts(kind string) int64 { return m.kind(kind).attempts.Value() }

// Retries returns the re-attempts (attempt > 0) recorded for the kind.
func (m *Meter) Retries(kind string) int64 { return m.kind(kind).retries.Value() }

// Faults returns the failed attempts of the given outcome class.
func (m *Meter) Faults(kind string, transient bool) int64 {
	if transient {
		return m.kind(kind).transient.Value()
	}
	return m.kind(kind).permanent.Value()
}

// Flagged returns the clips skipped-and-flagged for the kind.
func (m *Meter) Flagged(kind string) int64 { return m.kind(kind).flagged.Value() }

// tier returns the counter block for a (kind index, tier name) pair; on
// first use it creates the block and attaches it to the registry when the
// meter is registered.
func (m *Meter) tier(ki int, name string) *tierCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	tc := m.tiers[ki][name]
	if tc == nil {
		if m.tiers[ki] == nil {
			m.tiers[ki] = make(map[string]*tierCounters)
		}
		tc = &tierCounters{}
		m.tiers[ki][name] = tc
		if m.reg != nil {
			attachTierCounters(m.reg, kindNames[ki], name, tc)
		}
	}
	return tc
}

func attachTierCounters(r *obs.Registry, kind, name string, tc *tierCounters) {
	kl, tl := obs.L("kind", kind), obs.L("tier", name)
	r.AttachCounter("svqact_detect_tier_units_total",
		"Inference units scored at each cascade tier.",
		&tc.units, kl, tl)
	r.AttachCounter("svqact_detect_tier_decisions_total",
		"Cascade tier outcomes: units decided at the tier, escalated past it, or fallen through after tier failure.",
		&tc.decided, kl, tl, obs.L("outcome", "decided"))
	r.AttachCounter("svqact_detect_tier_decisions_total", "",
		&tc.escalated, kl, tl, obs.L("outcome", "escalated"))
	r.AttachCounter("svqact_detect_tier_decisions_total", "",
		&tc.fellthrough, kl, tl, obs.L("outcome", "fallthrough"))
}

// Cost prices the recorded inferences with the given models.
func (m *Meter) Cost(models Models) (cost time.Duration) {
	if models.Objects != nil {
		cost += time.Duration(m.ObjectFrames()) * models.Objects.UnitCost()
	}
	if models.Actions != nil {
		cost += time.Duration(m.ActionShots()) * models.Actions.UnitCost()
	}
	return cost
}

// Register exposes the meter's counters on the registry as the
// svqact_detect_* metric families, labelled by detector kind.
func (m *Meter) Register(r *obs.Registry) {
	m.mu.Lock()
	m.reg = r
	for ki, tiers := range m.tiers {
		for name, tc := range tiers {
			attachTierCounters(r, kindNames[ki], name, tc)
		}
	}
	m.mu.Unlock()
	for i, name := range kindNames {
		k, kl := &m.kinds[i], obs.L("kind", name)
		r.AttachCounter("svqact_detect_inferences_total",
			"Model inference units executed (frames for objects, shots for actions).",
			&k.inferences, kl)
		r.AttachCounter("svqact_detect_attempts_total",
			"Model invocation attempts, including retries.",
			&k.attempts, kl)
		r.AttachCounter("svqact_detect_retries_total",
			"Model invocation re-attempts after a transient failure.",
			&k.retries, kl)
		r.AttachCounter("svqact_detect_faults_total",
			"Failed model invocation attempts by outcome class.",
			&k.transient, kl, obs.L("outcome", "transient"))
		r.AttachCounter("svqact_detect_faults_total", "",
			&k.permanent, kl, obs.L("outcome", "permanent"))
		r.AttachCounter("svqact_detect_flagged_clips_total",
			"Clips skipped-and-flagged after detector retry exhaustion.",
			&k.flagged, kl)
	}
}
