#!/usr/bin/env bash
# Repo-wide verification: gofmt, vet, build, the full test suite under the
# race detector (including the store/rank crash-injection and corruption tests
# and the cluster coordinator's deterministic fault-schedule tests), then the
# smoke test over real processes. Its phases, in order: build; durability
# (ingest -> SIGKILL -> resume -> svq fsck -> a bit-flipped pack fails fsck);
# observability against a fault-injected cmd/serve; a -cascade server under an
# inference budget; the sharded cluster (svq split -> three replicas + a
# coordinator), with failover, tracing, shard loss, recovery, overload
# shedding and a rolling generation swap; the coordinator's metrics; and a
# drain in which every child must exit 0 after SIGTERM and none may be left.
# CI runs exactly this; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

# stage prints the wall seconds the previous stage took, then the header of
# the next, so a CI log shows where the time goes.
stage_name=""
stage() {
  if [ -n "$stage_name" ]; then
    echo "<== ${stage_name}: $((SECONDS - stage_start))s"
  fi
  stage_name="$1"
  stage_start=$SECONDS
  echo "==> $1"
}

stage "gofmt -l ."
# Any file gofmt would rewrite fails the build before anything is compiled.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt: these files need formatting:" >&2
  echo "$unformatted" >&2
  exit 1
fi

stage "go vet ./..."
go vet ./...

stage "go build ./..."
go build ./...

stage "go test -race -shuffle=on -count=1 ./..."
# -count=1 keeps every run uncached. This pass carries the correctness
# contracts: the rolling-swap chaos property tests (TestRolloutChaos), the
# order- and tier-invariance suites over basic and CNF queries, the
# parent-commit goldens of the one clip loop and of the ranked top-k, the
# TBClip iterator's and the simulated models' batch draws' differential
# tests against their references, the quantile gate's histogram against a
# sort, and the inference-budget degradation tests.
go test -race -shuffle=on -count=1 ./...

stage "allocation bounds (no race: counts skip under the detector)"
# The pooled-scratch aliasing tests above ran under -race; the numeric
# AllocsPerRun bounds skip there (instrumentation inflates counts), so run
# them again without it to enforce the hot path's allocation budget; the
# clip score table reader's is zero.
go test -count=1 -run 'AllocsSteadyState' ./internal/detect/ ./internal/core/ ./internal/rank/ ./internal/store/ ./internal/httpd/ ./internal/server/ ./internal/obs/

stage "fuzz smoke (-fuzztime=5s each)"
# A short native-fuzzing burst over the lexer and parser (EXPLAIN included
# via the seed corpus) catches panics and contract violations cheaply; one
# over scanstat searches for a (k, w, p) where the closed-form Q3 leaves the
# dynamic program that referees it; two over the persisted formats.
go test -fuzz '^FuzzParse$' -fuzztime=5s ./internal/sqlq
go test -fuzz '^FuzzLex$' -fuzztime=5s ./internal/sqlq
go test -run '^$' -fuzz '^FuzzQ3ClosedMatchesDP$' -fuzztime=5s ./internal/scanstat
# The shared critical values against CriticalValue's own search at the
# probability of the grid bucket a fuzzed p falls in, over fuzzed windows,
# horizons and levels.
go test -run '^$' -fuzz '^FuzzCriticalTableMatchesSearch$' -fuzztime=5s ./internal/scanstat
# Saved bytes cross the trust boundary in two places: the one table verifier
# (an accepted image must re-encode to itself) and rank.Load over a fuzzed
# commit record, manifest (untrusted pack offsets) and pack.
go test -run '^$' -fuzz '^FuzzVerifyTable$' -fuzztime=5s ./internal/store
go test -run '^$' -fuzz '^FuzzLoadGeneration$' -fuzztime=5s ./internal/rank
# Request bodies cross it at /query and /query/batch: fuzzed bytes through the
# whole handler stack must answer a documented status with a JSON body that
# carries the request's query ID, and never panic; every 200 from /query,
# whose body is appended by hand, must also be exactly encoding/json's
# re-encoding of its own decode. The coordinator's two routes take the same
# front and the same fuzzing.
go test -run '^$' -fuzz '^FuzzQueryBody$' -fuzztime=5s ./internal/server
go test -run '^$' -fuzz '^FuzzBatchBody$' -fuzztime=5s ./internal/server
go test -run '^$' -fuzz '^FuzzCoordinatorBody$' -fuzztime=5s ./internal/cluster
# The /query/batch body is appended by hand: a live trace's AppendJSON must
# write json.Marshal of its Snapshot (fuzzed span trees, attribute values of
# every kind, grafts, live spans; the index-based assembly also against the
# map-based one it replaced), and the string escaper encoding/json's.
go test -run '^$' -fuzz '^FuzzTraceAppendMatchesSnapshot$' -fuzztime=5s ./internal/obs
go test -run '^$' -fuzz '^FuzzStringMatchesMarshal$' -fuzztime=5s ./internal/jsonw
# The TBClip iterator against the map-based one it replaced (kept in
# tbclip_ref_test.go as the referee): same yields, rounds and accesses.
go test -run '^$' -fuzz '^FuzzTBClipMatchesReference$' -fuzztime=5s ./internal/rank
# The top-k traversal, whose rounds visit only the sequences not yet
# excluded, against the all-sequences traversal it replaced
# (rvaq_ref_test.go): equal Sequences, Stats, Rounds, ClipsScored,
# Truncated and ResidualUpper at every k, basic and CNF, with and without
# NoSkip and ApproxScores.
go test -run '^$' -fuzz '^FuzzTopkMatchesReference$' -fuzztime=5s ./internal/rank
# The simulated models' batch draws (one draw key, one track window per
# batch) against the per-unit draws they replaced (sim_ref_test.go): same
# scores, events and accounts on fuzzed worlds and runs, seams included.
go test -run '^$' -fuzz '^FuzzFrameScoreBatchMatchesReference$' -fuzztime=5s ./internal/detect
# The unit-scoring walker against the per-unit reference it replaced
# (refScore): same scores, scored count, error and account under fuzzed
# faults, runs, retry budgets, entry tiers and chains.
go test -run '^$' -fuzz '^FuzzScorerMatchesReference$' -fuzztime=5s ./internal/detect
# Stopping at the decision: a Score call given a need must return the full
# scan's scores on exactly the prefix before the unit at which the decision
# is fixed, charged as that prefix unit by unit, over fuzzed chains, entry
# tiers, thresholds, needs and faults.
go test -run '^$' -fuzz '^FuzzDecisionStopMatchesFullScan$' -fuzztime=5s ./internal/detect
# Deciding at a threshold: a Score call at τ > 0 returns only the side of τ
# each score falls on, which must be the per-unit referee's side (and its
# bits at τ ≤ 0), over fuzzed worlds, runs, thresholds and edge profiles.
go test -run '^$' -fuzz '^FuzzDecidedMatchesReference$' -fuzztime=5s ./internal/detect
# The memchr run merge against the bool-by-bool loop it replaced.
go test -run '^$' -fuzz '^FuzzFromIndicatorMatchesReference$' -fuzztime=5s ./internal/video
# Sampling the bootstrap only where an estimator reads it, against the same
# engine sampling it in every run (refSampledClip): same sequences, flags,
# critical values and backgrounds, over fuzzed worlds, run lengths, modes,
# query shapes, cascades and transient faults; under permanent faults, a
# subset of its flags and the fault-free answer on every clip left unflagged.
go test -run '^$' -fuzz '^FuzzSampleScheduleKeepsAnswers$' -fuzztime=5s ./internal/core
# Stopping an evaluation at its decision, against the same engine scanning
# every clip in full (fullScan): same sequences, flags, critical values and
# backgrounds, over fuzzed worlds, run lengths, modes, query shapes, orders,
# cascades and transient faults, and no dearer in the declared order with one
# tier; under permanent faults, a subset of its flags and its answer on every
# clip it leaves unflagged.
go test -run '^$' -fuzz '^FuzzDecisionStopKeepsAnswers$' -fuzztime=5s ./internal/core

stage "benchmark smoke (-benchtime=1x -benchmem)"
# One iteration of every benchmark in every package: catches bit-rot in the
# experiment and microbenchmark harnesses without paying for real
# measurements. -benchmem keeps allocs/op in the output so hot-path
# allocation creep is visible in every CI log, not only when the
# AllocsPerRun bounds trip.
go test -run '^$' -bench . -benchtime=1x -benchmem ./...

stage "go run ./scripts/smoke"
go run ./scripts/smoke

stage "done in ${SECONDS}s"
echo "OK"
