#!/bin/sh
# The repository's verification gate, in two tiers:
#
#   tier 1  build + vet + gofmt + the fast (-short) test suite — what
#           every change must keep green (see ROADMAP.md) — plus vet and
#           tests of the nested perfbench module (perfbench/go.mod, which
#           the root ./... never compiles but which imports the sim and
#           monitor seams the root module exports)
#   tier 2  the race detector over the concurrency-bearing packages: the
#           worker pool, the campaign service (the only unit scheduler:
#           every campaign of cmd/experiments and cmd/sensitivity runs as
#           a job on it) with its bounded priority queue, the shard
#           coordinator (the service's per-unit executor on worker
#           processes), the fault-injection harness, the checkpoint
#           journal, the front-end trace cache, the observability layer,
#           the experiment engine's resilience layer, the fused-mix-engine
#           equivalence (clean runs and a mid-mix kill-and-resume), and the
#           cmd-level kill-and-resume, fail-fast, sharded
#           worker-kill-and-merge, dead-letter-and-replay, serve-mode
#           submit/drain-and-restart, warm-cache, and
#           observability-equivalence tests; then each fuzz target (journal
#           recovery, lane sidecar, trace round trip, cache resize, monitor
#           shadow set) for a bounded 10 seconds, and one iteration of each
#           root benchmark as a smoke run
#
# Everything is hermetic (no network, no external services); the whole
# script runs in a few minutes on a laptop. CI=full additionally runs the
# long-form (non-short) suite.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: these files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go test -short ./..."
go test -short ./...

echo "==> perfbench module: go vet + go test"
(cd perfbench && go vet ./... && go test ./...)

echo "==> go test -race (concurrency-bearing packages)"
go test -race -short \
    ./internal/parallel/... \
    ./internal/shard/... \
    ./internal/fsutil/... \
    ./internal/faultinject/... \
    ./internal/checkpoint/... \
    ./internal/telemetry/... \
    ./internal/tracecache/... \
    ./internal/obs/... \
    ./internal/campaign/...

echo "==> go test -race (kill-and-resume + fail-fast + trace cache + observability equivalence)"
# TestFailedRunPreservesPreviousOutputs is the fail-fast proof of the one
# campaign path: without -dlq, a persistently failing unit fails the job,
# cancels the rest, and leaves the previous outputs untouched.
go test -race -run 'TestCheckpointResumeEquivalence|TestStudyCheckpointResume|TestTransientFault|TestObservabilityDoesNotPerturbOutputs|TestWarmCacheUnitsReportReplayed|TestFailedRunPreservesPreviousOutputs|TestUnitObserverSeam|TestTraceCacheWarmColdEquivalence|TestTraceCacheKeyMismatchFailsLoudly|TestTraceCacheCorruptEntry|TestTraceCacheLaneOutcomeSidecar|TestTraceCacheStaleSidecar|TestWarmFrontEndCache' \
    ./internal/experiments/ ./cmd/experiments/

echo "==> go test -race (sharded worker-kill-and-merge equivalence)"
go test -race -run 'TestShardedCampaignEquivalence|TestShardedStudyEquivalence' \
    ./cmd/experiments/ ./cmd/sensitivity/

echo "==> go test -race (dead-letter-and-replay + serve submit and drain-and-restart)"
# The tentpole robustness guarantees: a poisoned campaign completes
# degraded with the unit dead-lettered and -replay restores byte-identical
# outputs; a served campaign matches a direct run byte for byte, bad
# submissions are refused, and a resident service drained mid-campaign
# commits a valid partial and a restarted service resumes to
# byte-identical outputs.
go test -race -run 'TestDeadLetterCampaignEquivalence|TestDeadLetterPanickingUnit|TestServeCampaignMatchesDirectRun|TestServeRejectsBadSubmissions|TestServeDrainRestartEquivalence' \
    ./cmd/experiments/

echo "==> go test -race (mix-fusion equivalence: clean + mid-mix kill)"
# -short limits the engine-level bitwise check to two mixes (the full
# 16-mix raced sweep takes ~3.5 min and runs under CI=full); the
# campaign-level check covers cold, warm-cache, and a checkpointed
# mid-mix kill-and-resume through the fused path.
go test -race -short -run 'TestMixFusionMatchesOracle|TestMixFusionUnderrunRegenerates' \
    ./internal/experiments/
go test -race -run 'TestMixFusionCampaignOutputsMatchOracle' ./cmd/experiments/

echo "==> go test -fuzz (bounded, 10s per target)"
# Plain go test runs only each fuzz target's seed corpus; this stage
# mutates beyond it: journal crash recovery, lane-outcome sidecar
# decoding, the trace-file round trip, the bucketed cache resize against
# the original sort-based one, and the monitor's recency-ordered shadow
# set against the original per-size tick-LRU caches.
go test -run '^$' -fuzz '^FuzzJournalRecovery$' -fuzztime 10s ./internal/checkpoint/
go test -run '^$' -fuzz '^FuzzLaneSidecar$' -fuzztime 10s ./internal/tracecache/
go test -run '^$' -fuzz '^FuzzTraceRoundTrip$' -fuzztime 10s ./internal/isa/
go test -run '^$' -fuzz '^FuzzResize$' -fuzztime 10s ./internal/cache/
go test -run '^$' -fuzz '^FuzzShadowSet$' -fuzztime 10s ./internal/cache/

echo "==> go test -bench (smoke: each root benchmark once)"
# The root benchmarks (Figures 12-17, the active attacker, adaptation,
# R'max and the ablations) are not timed here — perfbench/run.sh times
# campaigns — but one iteration each keeps them compiling and running.
go test -run '^$' -bench . -benchtime 1x .

if [ "${CI:-}" = "full" ]; then
    echo "==> go test ./... (long suite)"
    go test -timeout 60m ./...
fi

echo "ci: all green"
