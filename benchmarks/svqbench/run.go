package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"svqact/benchmarks/harness"
	"svqact/benchmarks/loadgen"
	"svqact/benchmarks/workload"
	"svqact/internal/rank"
)

// setupReps is how many times a run sets the system up from nothing; the
// reported setup figures are medians over them and the last one is measured.
const setupReps = 3

// segments is how many interleaved open/closed segment pairs a run measures.
// Latency and throughput are medians over the segments, so a stall of the
// host during one of them does not decide the run.
const segments = 6

// runConfig is everything one benchmark run needs.
type runConfig struct {
	spec    workload.Spec
	seed    uint64
	seconds int
	env     workload.Env
	// workDir receives repositories; it is removed when the run ends.
	workDir string
	// inProcess serves from httptest handlers instead of child processes.
	inProcess bool
	reps      int
	// scale is workload.Scale except in the smoke test.
	scale float64
}

// setupTimes is one set-up from nothing, phase by phase, in seconds.
type setupTimes struct {
	total, generate, ingest, split, start, warmup, cold float64
	ingested                                            workload.IngestStats
}

// counts are the exact per-statement work counts of one verification pass,
// from /metrics deltas.
type counts struct {
	statements    int
	inferences    float64
	sortedAccess  float64
	randomAccess  float64
	tierUnits     float64
	tierEscalated float64
	shardRequests float64
	refineRounds  float64
	shardsPruned  float64
}

// system is a deployment ready for load: warmed, verified, with the hash of
// every statement's verified answer.
type system struct {
	cfg    runConfig
	dep    *workload.Deployment
	pool   *workload.Pool
	client *http.Client
	hashes []uint64
	setups []setupTimes
	counts counts
}

// post sends one statement and returns the body; any transport error or
// non-200 status is an error.
func (s *system) post(ctx context.Context, stmt int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.dep.Entry+s.cfg.spec.Path, bytes.NewReader(s.pool.Statements[stmt].Body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// checked sends a statement and checks the answer against the verified
// hash: the timed phases' operation.
func (s *system) checked(ctx context.Context, stmt int) bool {
	body, err := s.post(ctx, stmt)
	if err != nil {
		return false
	}
	r, err := workload.DecodeReply(body)
	return err == nil && r.Healthy() == nil && r.Hash() == s.hashes[stmt]
}

// scrape sums /metrics over the serve processes and adds the coordinator's.
func (s *system) scrape() (harness.Samples, error) {
	var all []harness.Samples
	urls := append([]string(nil), s.dep.Serves...)
	if s.dep.Coordinator != "" {
		urls = append(urls, s.dep.Coordinator)
	}
	for _, u := range urls {
		m, err := harness.Scrape(s.client, u)
		if err != nil {
			return nil, err
		}
		all = append(all, m)
	}
	return harness.Sum(all...), nil
}

// cpuSeconds sums utime+stime over the server processes.
func (s *system) cpuSeconds() (float64, error) {
	var sum float64
	for _, pid := range s.dep.PIDs() {
		c, err := harness.CPUSeconds(pid)
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// peakRSSMB sums VmHWM over the server processes.
func (s *system) peakRSSMB() (float64, error) {
	var sum int64
	for _, pid := range s.dep.PIDs() {
		b, err := harness.PeakRSSBytes(pid)
		if err != nil {
			return 0, err
		}
		sum += b
	}
	return float64(sum) / (1 << 20), nil
}

// setUp builds the system from nothing cfg.reps times, verifying every
// distinct statement's answer each time, and returns the last deployment
// running. Build time of the binaries is not part of any set-up.
func setUp(ctx context.Context, cfg runConfig) (*system, error) {
	s := &system{cfg: cfg, pool: workload.PoolFor(cfg.spec), client: harness.NewClient(cfg.env.NProc)}
	for rep := 0; rep < cfg.reps; rep++ {
		if s.dep != nil {
			if err := s.dep.Stop(); err != nil {
				return nil, err
			}
			s.dep = nil
		}
		if err := s.setUpOnce(ctx, rep); err != nil {
			if s.dep != nil {
				err = errors.Join(err, s.dep.Stop())
			}
			return nil, err
		}
	}
	return s, nil
}

func (s *system) setUpOnce(ctx context.Context, rep int) error {
	cfg := s.cfg
	var t setupTimes
	repoDir := filepath.Join(cfg.workDir, "repo")
	if cfg.spec.Sharded && rep == 0 {
		// The write path is the ranked workload's to measure. Here the
		// repository is built once, outside the set-up time, so that a
		// sharded set-up is exactly what the cluster adds: split, one
		// process per shard plus the coordinator, and their warm-up.
		if _, err := workload.IngestRepository(ctx, workload.NewWorld(worldSeed, cfg.scale), repoDir); err != nil {
			return err
		}
	}
	// What the previous set-up left behind goes first, untimed.
	stale := repoDir
	if cfg.spec.Sharded {
		stale = repoDir + "-shards"
	}
	if err := os.RemoveAll(stale); err != nil {
		return err
	}

	begin := time.Now()
	world := workload.NewWorld(worldSeed, cfg.scale)
	t.generate = world.GenerateTime.Seconds()

	switch {
	case cfg.spec.Sharded:
		mark := time.Now()
		if err := workload.SplitRepository(repoDir); err != nil {
			return err
		}
		t.split = time.Since(mark).Seconds()
	case cfg.spec.Ranked:
		st, err := workload.IngestRepository(ctx, world, repoDir)
		if err != nil {
			return err
		}
		t.ingest, t.ingested = st.Elapsed.Seconds(), st
	}

	mark := time.Now()
	var err error
	if cfg.inProcess {
		s.dep, err = workload.StartInProcess(cfg.spec, world, repoDir, cfg.env.NProc)
	} else {
		s.dep, err = workload.Start(cfg.env, cfg.spec, world, repoDir, s.client)
	}
	if err != nil {
		return err
	}
	t.start = time.Since(mark).Seconds()

	// Warm-up and verification pass: every distinct statement once, one at
	// a time. It fills the servers' lazy state (datasets, critical-value
	// grid, merged index), and because nothing else runs its counter deltas
	// are the exact per-statement work counts.
	before, err := s.scrape()
	if err != nil {
		return err
	}
	mark = time.Now()
	bodies := make([][]byte, len(s.pool.Statements))
	for i := range s.pool.Statements {
		t0 := time.Now()
		bodies[i], err = s.post(ctx, i)
		if err != nil {
			return fmt.Errorf("warm-up statement %d (%s): %w", i, s.pool.Statements[i].SQL, err)
		}
		if i == 0 {
			t.cold = time.Since(t0).Seconds()
		}
	}
	t.warmup = time.Since(mark).Seconds()
	t.total = time.Since(begin).Seconds()
	after, err := s.scrape()
	if err != nil {
		return err
	}
	s.setups = append(s.setups, t)
	s.counts = countsFrom(harness.Delta(before, after), len(bodies))

	// Verification is the benchmark's own work, outside the set-up time.
	replies := make([]*workload.Reply, len(bodies))
	for i, b := range bodies {
		if replies[i], err = workload.DecodeReply(b); err != nil {
			return err
		}
	}
	if rep == 0 {
		if err := s.verify(ctx, world, repoDir, replies); err != nil {
			return err
		}
	} else {
		for i, r := range replies {
			if r.Healthy() != nil || r.Hash() != s.hashes[i] {
				return fmt.Errorf("set-up %d answered statement %d (%s) differently from the verified set-up", rep, i, s.pool.Statements[i].SQL)
			}
		}
	}
	return nil
}

// verify checks every warm-up reply against the oracle and records the
// verified hashes the timed phases compare with.
func (s *system) verify(ctx context.Context, world *workload.World, repoDir string, replies []*workload.Reply) error {
	var merged *rank.Index
	if s.cfg.spec.Ranked {
		repo, err := rank.OpenRepository(repoDir)
		if err != nil {
			return err
		}
		defer repo.Close()
		if merged, err = repo.Merged(); err != nil {
			return err
		}
	}
	oracle := workload.NewOracle(s.cfg.spec, world, merged)
	s.hashes = make([]uint64, len(replies))
	for i, r := range replies {
		if err := oracle.Check(ctx, s.pool.Statements[i], r); err != nil {
			return fmt.Errorf("wrong answer to statement %d (%s): %w", i, s.pool.Statements[i].SQL, err)
		}
		s.hashes[i] = r.Hash()
	}
	return nil
}

func countsFrom(d harness.Samples, statements int) counts {
	return counts{
		statements:    statements,
		inferences:    d.Family("svqact_detect_inferences_total"),
		sortedAccess:  d.Family("svqact_rank_sorted_accesses_total"),
		randomAccess:  d.Family("svqact_rank_random_accesses_total"),
		tierUnits:     d.Family("svqact_detect_tier_units_total"),
		tierEscalated: d.Family("svqact_plan_tier_escalations_total"),
		shardRequests: d.Family("svqact_cluster_shard_requests_total"),
		refineRounds:  d.Family("svqact_cluster_refine_rounds_total"),
		shardsPruned:  d.Family("svqact_cluster_shards_pruned_total"),
	}
}

// closedSequenceLen is how many requests the closed phases' sequence holds
// before it wraps: more than any run completes.
const closedSequenceLen = 1 << 15

// segment is one open phase followed by one closed phase.
type segment struct {
	open       loadgen.OpenResult
	closed     loadgen.ClosedResult
	closedCPUs float64 // server CPU seconds spent during the closed phase
	// clientOpenCPUs and clientClosedCPUs are this process's own CPU time
	// over the two phases: the load generator shares the host's cores, and
	// their speed, with the servers.
	clientOpenCPUs, clientClosedCPUs float64
}

// load is the timed part of a run.
type load struct {
	segs      []segment
	scheduled int // open-loop requests the schedule held
	peakRSSMB float64
}

// measure drives the interleaved open and closed segments against a warmed
// system.
func (s *system) measure(ctx context.Context) (*load, error) {
	cfg := s.cfg
	// Two thirds of the measuring time is open loop and one third closed —
	// latency quantiles need the samples, throughput settles sooner — in
	// `segments` alternating pairs: the host's speed wanders on a scale of
	// seconds, and fine interleaving puts fast and slow stretches into both.
	total := time.Duration(cfg.seconds) * time.Second
	openTime, closedTime := 2*total/3, total/3
	// The open loop sends whole decks, so every run sends the same
	// statements whatever its seed; the seed orders them and times them.
	decks := max(1, int(cfg.spec.Rate*openTime.Seconds()/workload.DeckLen+0.5))
	perPhase := max(1, decks*workload.DeckLen/segments)
	due := loadgen.Schedule(cfg.seed, cfg.spec.Rate, perPhase*segments)
	openSeq := s.pool.Sequence(2*cfg.seed, len(due))
	closedSeq := s.pool.Sequence(2*cfg.seed+1, closedSequenceLen)
	l := &load{scheduled: len(due)}
	closedDone := 0
	for g := 0; g < segments; g++ {
		// Each open phase replays its slice of the one schedule from zero.
		phaseDue := make([]time.Duration, perPhase)
		phaseSeq := openSeq[g*perPhase : (g+1)*perPhase]
		var origin time.Duration
		if g > 0 {
			origin = due[g*perPhase-1]
		}
		for i := range phaseDue {
			phaseDue[i] = due[g*perPhase+i] - origin
		}
		var sg segment
		self0 := selfCPUSeconds()
		sg.open = loadgen.Open(ctx, cfg.env.NProc, phaseDue, cfg.spec.Limit, func(ctx context.Context, i int) bool {
			return s.checked(ctx, phaseSeq[i])
		})
		self1 := selfCPUSeconds()
		sg.clientOpenCPUs = self1 - self0
		cpu0, err := s.cpuSeconds()
		if err != nil {
			return nil, err
		}
		base := closedDone
		sg.closed = loadgen.Closed(ctx, cfg.env.NProc, closedTime/segments, func(ctx context.Context, i int) bool {
			return s.checked(ctx, closedSeq[(base+i)%len(closedSeq)])
		})
		sg.clientClosedCPUs = selfCPUSeconds() - self1
		closedDone += sg.closed.Completed
		cpu1, err := s.cpuSeconds()
		if err != nil {
			return nil, err
		}
		sg.closedCPUs = cpu1 - cpu0
		l.segs = append(l.segs, sg)
	}
	var err error
	if l.peakRSSMB, err = s.peakRSSMB(); err != nil {
		return nil, err
	}
	return l, nil
}

// medianOf applies f to every element and returns the median.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return loadgen.Median(vs)
}

// worldSeed generates the videos of every run. The paper evaluates on fixed
// video sets; here, too, the world is a constant of the benchmark (the
// servers' own default seed) and --seed draws the traffic: statement order
// and arrival times. Worlds of different seeds differ in cost per statement
// by several percent, which would be charged to whatever change is being
// compared.
const worldSeed = 42

// selfCPUSeconds is this process's utime+stime.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail with a valid who and a valid pointer
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
