GO ?= go

.PHONY: check check-race vet build test race e2ebench-check bench bench-raft bench-resume bench-script bench-smoke bench-snapshot conformance fleet fuzz explore goldens harden raft resume snapshot

# check is the full PR gate: vet, build, race-enabled tests (the parallel
# conformance runner and campaign pool run under -race via ./...), an
# explicit conformance pass, a short fuzz smoke over the script language,
# a one-iteration pass over every benchmark so the perf suite always
# compiles, and a vet/test/build of the end-to-end benchmark module.
# Allocation budgets (TestFilterProcessAllocBudget and friends) run in the
# non-race `test` pass, so hot-path alloc creep fails the gate.
check: vet build test race conformance fuzz bench-smoke e2ebench-check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# e2ebench-check vets, tests and builds the end-to-end benchmark. It is a
# separate Go module (replace pfi => ../), so the root ./... never builds
# it; this catches API changes that would break the benchmark. The
# environment matches e2ebench/run.sh, and the binary is discarded.
E2EBENCH_ENV = GOWORK=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
e2ebench-check:
	cd e2ebench && $(E2EBENCH_ENV) $(GO) vet . && $(E2EBENCH_ENV) $(GO) test . && \
		$(E2EBENCH_ENV) $(GO) build -o /dev/null .

# check-race is the standalone race gate for CI pipelines that split the
# detector run from the main check.
check-race: race

# bench-smoke runs every benchmark for one iteration so the perf suite
# always compiles and executes; it makes no timing claims.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run @ ./...

# bench measures the script hot path — the per-message filter path and
# the interpreter on its own — and regenerates BENCH_script.json.
bench:
	$(GO) test -bench 'FilterProcess|InterpEval' -benchmem -benchtime 2s -count 1 -run @ . | \
		$(GO) run ./tools/benchjson -out BENCH_script.json

# bench-script is the CI smoke over the script hot path: the filter and
# interpreter benchmarks at a fixed small iteration count (no timing
# claims — CI machines are noisy) plus the allocation budgets, so a change
# that re-introduces per-message garbage in the interpreter fails the job
# even when it is too small to move wall-clock numbers.
bench-script:
	$(GO) test -bench 'FilterProcess|InterpEval' -benchmem -benchtime 100x -run @ .
	$(GO) test -run 'AllocBudget' -count 1 -v .

# conformance replays every .pfi scenario against its golden trace, serial
# and through the worker pool.
conformance:
	$(GO) test -run Conformance ./internal/conformance/ ./cmd/pfitest/

# fleet exercises the sharded-campaign coordinator under the race
# detector: the determinism battery (fleet sweeps and fleet fuzzing
# byte-identical to single-process at 1/2/4 spawned worker processes),
# the control-plane fault-injection tests (kill -9 mid-batch, lease
# stalls, truncated and garbage results, version skew), and the shard
# planner and wire-protocol goldens.
fleet:
	$(GO) test -race ./internal/fleet/

# fuzz gives each native fuzz target a 10-second smoke. Corpus findings are
# written to testdata/fuzz as usual; run longer locally when touching the
# script parser or interpreter. FuzzCompiledParity requires a script parsed
# once and run to agree byte-for-byte with the same source evaluated cold
# and then warm through the parse caches. FuzzJournalParse
# hammers the write-ahead log's frame parser with hostile bytes — the
# recovery scan must never panic, loop, or accept a corrupt frame.
fuzz:
	$(GO) test -run @ -fuzz 'FuzzParse$$' -fuzztime 10s ./internal/script/
	$(GO) test -run @ -fuzz 'FuzzEval$$' -fuzztime 10s ./internal/script/
	$(GO) test -run @ -fuzz 'FuzzEvalExpr$$' -fuzztime 10s ./internal/script/
	$(GO) test -run @ -fuzz 'FuzzCompiledParity$$' -fuzztime 10s ./internal/script/
	$(GO) test -run @ -fuzz 'FuzzJournalParse$$' -fuzztime 10s ./internal/journal/

# resume proves the crash-safety battery under the race detector: the
# write-ahead journal's torn-tail recovery and format goldens, campaign
# and fuzz journal/resume determinism, the durable fleet queue, worker
# reconnect re-adoption across a coordinator restart, the crash-safety
# /metrics counters, the two-stage interrupt helper, and the
# process-level SIGKILL + -resume byte-identity batteries for pfifuzz
# (1 and 4 workers) and pficampaign (pool, and fleet coordinator restart
# at 2 and 4 real spawned worker processes).
resume:
	$(GO) test -race ./internal/journal/ ./internal/diag/
	$(GO) test -race -run 'Journal|Resume|Queue|Reconnect|Streamed|CellStreaming|Metrics' \
		./internal/campaign/ ./internal/explore/ ./internal/fleet/
	$(GO) test -race -run 'KillResume' ./cmd/pfifuzz/ ./cmd/pficampaign/

# explore runs a pinned-seed coverage-guided fuzz over the fault-schedule
# space (~30s): a deterministic smoke that the explorer still converges and
# that its known finding (silent corruption — the simulated TCP has no
# checksum) is rediscovered and shrunk. Repros land in a throwaway dir;
# promote one by copying it plus its golden into
# internal/conformance/testdata/found/.
explore:
	$(GO) run ./cmd/pfifuzz -seed 1 -budget 1000 -workers 4 -q -out $$(mktemp -d /tmp/pfifuzz.XXXXXX)

# harden exercises the run-isolation layer under the race detector: the
# harden package's watchdog/budget/retry edge cases plus the containment
# and worker-invariance regressions it feeds in campaign, conformance,
# explore, and interpose (quarantine replay, crash/livelock sweeps,
# graceful drain).
harden:
	$(GO) test -race ./internal/harden/
	$(GO) test -race -run 'ForEach|Sweep|Quarantin|Runaway|TraceBudget|ZeroConfig|ContainedFailures|EvaluateContains|Drain|Oversized' \
		./internal/campaign/ ./internal/conformance/ ./internal/explore/ ./internal/interpose/

# snapshot proves the world-snapshot fast path is invisible, under the race
# detector: session forks byte-identical to fresh replays across every
# vendor profile and world kind, and a snapshots-on exploration bit-identical
# to snapshots-off at 1/4/8 workers.
snapshot:
	$(GO) test -race -run 'TestSession|TestShell' ./internal/conformance/
	$(GO) test -race -run 'TestFuzzSnapshot|TestSplitStatements|TestCommonStatements' ./internal/explore/

# raft runs the consensus suite under the race detector: the raft package
# unit and property tests, the rig scale tests, the conformance raft
# scenarios against their goldens, the explore safety-oracle self-tests
# (both seeded bugs caught at generation zero, bug-free seeds
# violation-free), and the 1/4/8-worker scale determinism battery.
raft:
	$(GO) test -race ./internal/raft/
	$(GO) test -race -run 'Raft' ./internal/exp/ ./internal/explore/ .
	$(GO) test -race -run 'Conformance' ./internal/conformance/

# bench-raft measures the consensus scale battery's denominator — the cost
# of one simulated scheduler step in an elected, heartbeat-steady raft
# world at 100 vs 1000 nodes — and regenerates BENCH_raft.json.
bench-raft:
	$(GO) test -bench 'BenchmarkRaftStep' -benchmem -benchtime 2s -count 1 -run @ . | \
		$(GO) run ./tools/benchjson -out BENCH_raft.json \
		-note "one op = one simulated scheduler step in a steady-state raft world after leader election; RaftStep100 = 100 nodes, RaftStep1000 = 1000 nodes; near-flat ns/op across the 10x cluster scale shows per-step cost is dominated by per-message work, not cluster bookkeeping"

# bench-resume measures the crash-safety tax: the same 1,008-cell sweep
# with every completed cell banked to the write-ahead log (including the
# final fsync) vs no journal at all, and regenerates BENCH_resume.json.
# The budget is <2% — the per-cell append is a few microseconds of JSON
# and one buffered write against hundreds of microseconds of cell work.
bench-resume:
	$(GO) test -bench 'BenchmarkResumeSweep' -benchmem -benchtime 5x -count 1 -run @ ./internal/campaign/ | \
		$(GO) run ./tools/benchjson -out BENCH_resume.json -before-suffix Bare \
		-note "before = BenchmarkResumeSweepBare (identical 1,008-cell sweep, no journal), after = BenchmarkResumeSweep (every completed cell banked to the write-ahead log as it lands, plus final fsync), same host and run, serial workers for stable timing; the delta is the whole crash-safety tax and is budgeted <2% — CPU profiles attribute <0.5% to journaling, so most of any measured gap is run-to-run scheduler noise"

# bench-snapshot measures one fuzzing iteration served by a world fork vs a
# full fresh-world replay of the same scenario, and regenerates
# BENCH_snapshot.json with before/after numbers and deltas.
bench-snapshot:
	$(GO) test -bench 'BenchmarkWorldFork' -benchmem -benchtime 2s -count 1 -run @ . | \
		$(GO) run ./tools/benchjson -out BENCH_snapshot.json -before-suffix Replay \
		-note "before = BenchmarkWorldForkReplay (fresh world replays the full 240s-sim lossy prefix plus suffix per candidate), after = BenchmarkWorldFork (restore captured world in place, execute only the mutated suffix), same host and run; prefix-heavy corpora see the full ratio, pfifuzz hit-rate bounds the realized speedup"

# goldens re-blesses every pinned artifact: conformance traces and rendered
# experiment tables. Inspect the diff before committing.
goldens:
	$(GO) run ./cmd/pfitest -update
	$(GO) test -run Golden -update ./internal/exp/
