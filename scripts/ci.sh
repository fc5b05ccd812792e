#!/bin/sh
# The repository's verification gate, in two tiers:
#
#   tier 1  build + vet + gofmt + the fast (-short) test suite — what
#           every change must keep green (see ROADMAP.md) — plus vet and
#           tests of the nested perfbench module (perfbench/go.mod, which
#           the root ./... never compiles but which imports the sim and
#           monitor seams the root module exports), and one run of each
#           examples/* program, which must exit 0
#   tier 2  the race detector over the concurrency-bearing packages: the
#           worker pool, the campaign service (the only unit scheduler:
#           every campaign of cmd/experiments, the sensitivity study
#           alone included, runs as jobs on it) with its bounded priority
#           queue, the shard
#           coordinator (the service's per-unit executor on worker
#           processes), the fault-injection harness, the checkpoint
#           journal, the front-end trace cache, the observability layer,
#           the experiment engine's resilience layer and its pooled
#           study engines' shadow-set outcomes, the fused-mix-engine
#           equivalence (clean runs, inline and concurrent lane rounds, and
#           a mid-mix kill-and-resume), its bounded tape window (the
#           chunk ring the concurrent lanes share), its fe-cache keys
#           (pinned monitor geometry), its recorder-free warm tapes, its
#           one stream per key across concurrent mixes and its warm tapes
#           continued cold on a live stream or past a corrupt entry run,
#           and
#           the cmd-level kill-and-resume, fail-fast, sharded
#           worker-kill-and-merge, mix-unit independence from the study
#           (a unit is a function of its key and the fingerprinted
#           flags), dead-letter-and-replay, serve-mode
#           submit/drain-and-restart, warm-cache, and
#           observability-equivalence tests; then each fuzz target (journal
#           recovery, lane sidecar, rich fe-cache entry, trace round trip,
#           cache resize, monitor shadow set) for a bounded 10 seconds, and
#           one iteration of each root benchmark and of each internal/cache
#           benchmark (access, resize, set index) as a smoke
#           run
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

echo "==> examples: run each once"
# The build only compiles the examples; running them catches a demo that
# fails at run time (examples/otherresources drives the TLB metric).
for dir in examples/*/; do
    echo "    $dir"
    go run "./$dir" >/dev/null
done

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
# TestColdOutcomesMatchLanes and TestEngineMatchesOracleQuick cover the
# study engines' shadow sets, which the worker pool's goroutines take
# from a sync.Pool and reset between benchmarks.
go test -race -run 'TestColdOutcomesMatchLanes|TestEngineMatchesOracleQuick|TestCheckpointResumeEquivalence|TestStudyCheckpointResume|TestTransientFault|TestObservabilityDoesNotPerturbOutputs|TestWarmCacheUnitsReportReplayed|TestFailedRunPreservesPreviousOutputs|TestUnitObserverSeam|TestTraceCacheWarmColdEquivalence|TestTraceCacheKeyMismatchFailsLoudly|TestTraceCacheCorruptEntry|TestTraceCacheLaneOutcomeSidecar|TestTraceCacheStaleSidecar|TestWarmFrontEndCache' \
    ./internal/experiments/ ./cmd/experiments/

echo "==> go test -race (sharded worker-kill-and-merge equivalence + stateless units)"
# TestShardedStudyEquivalence shards a sensitivity-only campaign
# (-mixes none) and kills a worker on a sens/ unit.
# TestMixUnitIndependentOfStudy requires Mix 1's journal value to be
# byte-identical with no study, a full study run on shard workers (which
# are never sent it), and a study with a dead-lettered row: workers hold
# no campaign state, and the caption is rendered at report assembly.
go test -race -run 'TestShardedCampaignEquivalence|TestShardedStudyEquivalence|TestMixUnitIndependentOfStudy' \
    ./cmd/experiments/

echo "==> go test -race (dead-letter-and-replay + serve submit and drain-and-restart)"
# The tentpole robustness guarantees: a poisoned campaign completes
# degraded with the unit dead-lettered and -replay restores byte-identical
# outputs; a served campaign matches a direct run byte for byte, bad
# submissions are refused, and a resident service drained mid-campaign
# commits a valid partial and a restarted service resumes to
# byte-identical outputs.
go test -race -run 'TestDeadLetterCampaignEquivalence|TestDeadLetterPanickingUnit|TestServeCampaignMatchesDirectRun|TestServeRejectsBadSubmissions|TestServeDrainRestartEquivalence' \
    ./cmd/experiments/

echo "==> go test -race (mix-fusion equivalence + bounded tape: clean + mid-mix kill)"
# -short limits the engine-level bitwise check to two mixes (the full
# 16-mix sweep runs under CI=full); it runs the lane rounds inline
# and on four workers, which share each mix's chunk ring, and
# TestMixTapeFollowsWindow checks that ring's buffer count at both.
# TestMixEntryKeyPinsMonitorGeometry keeps entries recorded under another
# monitor geometry apart, and TestWarmMixBuildsNoShadowRecorder bounds a
# warm mix's allocations below one shadow recorder.
# TestMixStreamsSingleFlight runs Mixes 1-4 cold on pools of 2 and 4
# workers, whose tapes share live streams through followers of the staged
# entries, and TestMixFusionUnderrunRegenerates and
# TestMixTapeResumesOnLiveStream continue warm tapes cold past their
# entry's end, alone and on another tape's live stream,
# TestMixFusionCorruptEntryContinuesInPlace continues warm tapes cold past
# a corrupt run of their entry, and
# TestMixStreamFailureFailsConsumers fails every consumer of a stream
# whose production failed, and TestReaccountMatchesRerun requires the
# active-attacker leakage re-accounted from each of Mixes 1-4's Untangle
# trace to equal a worst-case rerun's, bit for bit. The campaign-level
# check covers cold, warm-cache, and a checkpointed mid-mix
# kill-and-resume through the fused path.
go test -race -short -run 'TestMixFusionMatchesOracle|TestMixFusionUnderrunRegenerates|TestMixTapeFollowsWindow|TestMixEntryKeyPinsMonitorGeometry|TestWarmMixBuildsNoShadowRecorder|TestMixStreamsSingleFlight|TestMixTapeResumesOnLiveStream|TestMixFusionCorruptEntryContinuesInPlace|TestMixStreamFailureFailsConsumers|TestReaccountMatchesRerun' \
    ./internal/experiments/
go test -race -run 'TestMixFusionCampaignOutputsMatchOracle' ./cmd/experiments/

echo "==> go test -fuzz (bounded, 10s per target)"
# Plain go test runs only each fuzz target's seed corpus; this stage
# mutates beyond it: journal crash recovery, lane-outcome sidecar
# decoding, rich fe-cache entries with their move-to-front monitor masks
# (round trip, and ErrCorrupt for every damaged byte the format reads),
# the trace-file round trip, the bucketed cache resize against
# the original sort-based one, and the monitor's recency-ordered shadow
# set against the original per-size tick-LRU caches. The journal target
# runs without minimization: each of its executions writes and fsyncs a
# file, and Go's default 60 s of minimizing one new input (about n²/2
# executions for n bytes) held the stage at 0 execs/sec for most of
# its 10 s.
go test -run '^$' -fuzz '^FuzzJournalRecovery$' -fuzztime 10s -fuzzminimizetime 0 ./internal/checkpoint/
go test -run '^$' -fuzz '^FuzzLaneSidecar$' -fuzztime 10s ./internal/tracecache/
go test -run '^$' -fuzz '^FuzzRichEntry$' -fuzztime 10s ./internal/tracecache/
go test -run '^$' -fuzz '^FuzzTraceRoundTrip$' -fuzztime 10s ./internal/isa/
go test -run '^$' -fuzz '^FuzzResize$' -fuzztime 10s ./internal/cache/
go test -run '^$' -fuzz '^FuzzShadowSet$' -fuzztime 10s ./internal/cache/

echo "==> go test -bench (smoke: each root benchmark once)"
# The root benchmarks (Figures 12-17, the active attacker, adaptation,
# R'max and the ablations) are not timed here — perfbench/run.sh times
# campaigns — but one iteration each keeps them compiling and running.
go test -run '^$' -bench . -benchtime 1x .

echo "==> go test -bench (smoke: each internal/cache benchmark once)"
# The resize benchmarks copy a full partition with the test harness's
# clone, which must track the line format; one iteration keeps them
# compiling and running.
go test -run '^$' -bench . -benchtime 1x ./internal/cache

if [ "${CI:-}" = "full" ]; then
    echo "==> go test ./... (long suite)"
    go test -timeout 60m ./...
fi

echo "ci: all green"
