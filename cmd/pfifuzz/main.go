// Command pfifuzz explores the fault-schedule space with coverage-guided
// fuzzing and shrinks every oracle violation to a committable .pfi repro
// scenario plus golden trace.
//
// Usage:
//
//	pfifuzz                           # 1000 runs, seed 1, serial
//	pfifuzz -seed 7 -budget 5000      # bigger, differently-seeded campaign
//	pfifuzz -workers 8                # parallel evaluation (same results)
//	pfifuzz -profile solaris          # vendor profile for unpinned schedules
//	pfifuzz -out found/               # emit minimized repros + goldens here
//	pfifuzz -no-snapshot              # full world replay per candidate
//	pfifuzz -q                        # suppress per-generation progress
//	pfifuzz -raft 5                   # also seed raft consensus schedules (5-node cluster)
//	pfifuzz -raft 5 -raft-bugs skip-vote-persist
//	                                  # fuzz a deliberately broken raft (oracle self-test)
//
// Sharded (fleet) mode distributes candidate evaluation over worker
// processes while derivation, corpus evolution, shrinking, and repro
// emission stay on the coordinator — the report and emitted bytes are
// bit-identical to a single-process run with the same seed (see
// internal/fleet):
//
//	pfifuzz -spawn-workers 4              # fork 4 local worker processes
//	pfifuzz -serve :8080                  # also serve HTTP workers + /status /metrics
//	pfifuzz -connect http://host:8080     # run as a remote worker (reconnects)
//	pfifuzz -worker-stdio                 # run as a spawned stdio worker (internal)
//
// These fleet flags, -shards, -unit-timeout, -journal and -resume are the
// run surface pfifuzz shares with pficampaign (fleet.Flags). With -journal
// the exploration checkpoints at every generation boundary; a killed run
// restarted with -resume ends bit-identical to an uninterrupted one.
//
// Candidates sharing a schedule prefix fork from one world snapshot and
// execute only their mutated suffix — O(delta) per candidate instead of a
// full replay — with results bit-identical to -no-snapshot at any -workers
// value; the end-of-run summary reports throughput and the snapshot
// hit-rate. The -cpuprofile/-memprofile/-trace flags profile the run for
// `go tool pprof` / `go tool trace`.
//
// Every candidate runs through the harden isolation layer: a panicking
// world surfaces as a tool-fault finding, a stalled one as livelock, an
// over-budget one as budget-exceeded — never a dead fuzzer. The
// -stall-steps and -budget-* flags tune the simulated-time watchdogs
// (those findings stay deterministic across machines); -quarantine, like
// them a harden flag, is where shrunk contained failures land as headered
// .pfi repros.
// -run-timeout also works but its timeouts are wall-clock and therefore
// machine-dependent: reported, never emitted (and they disable the
// snapshot fast path, whose forks would see a different clock).
//
// The same -seed yields a bit-for-bit identical exploration — corpus,
// coverage fingerprint, findings, and emitted files — at any -workers
// value, snapshots on or off. Exit status is 1 on an execution error, 0
// otherwise (findings are the product, not a failure).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pfi/internal/diag"
	"pfi/internal/explore"
	"pfi/internal/fleet"
	"pfi/internal/harden"
	"pfi/internal/journal"
	"pfi/internal/script"
	"pfi/internal/tcp"
)

func main() {
	var (
		seed    = flag.Int64("seed", 1, "exploration seed (same seed: same run)")
		budget  = flag.Int("budget", 1000, "candidate schedule evaluations")
		workers = flag.Int("workers", 1, "parallel evaluation workers")
		batch   = flag.Int("batch", 32, "candidates per deterministic generation")
		profile = flag.String("profile", "", "default vendor profile for tcp schedules (default SunOS 4.1.3)")
		out     = flag.String("out", "", "directory for minimized .pfi repros and golden traces (none: report only)")
		quiet   = flag.Bool("q", false, "suppress per-generation progress lines")
		noSnap  = flag.Bool("no-snapshot", false, "replay every candidate in a fresh world (default: fork shared-prefix candidates from world snapshots)")

		raftN    = flag.Int("raft", 0, "seed raft consensus schedules for an n-node cluster into the corpus (0: tcp/gmp only)")
		raftBugs = flag.String("raft-bugs", "", "comma-separated raft implementation bugs to seed (skip-vote-persist, ack-before-quorum) — oracle self-test")
	)
	hcfg := harden.Flags(flag.CommandLine)
	fl := fleet.Flags(flag.CommandLine)
	prof := diag.Register()
	flag.Parse()

	opts := explore.Options{
		Seed:      *seed,
		Budget:    *budget,
		Workers:   *workers,
		BatchSize: *batch,
		OutDir:    *out,
		Harden:    *hcfg,
		Snapshot:  !*noSnap,
	}
	if *profile != "" {
		p, err := tcp.ProfileByName(*profile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pfifuzz:", err)
			os.Exit(1)
		}
		opts.Profile = p
	}
	if *raftN > 0 {
		// The generic corpus plus both crafted probes; with -raft-bugs set
		// the probes catch their seeded bug at generation zero, so even a
		// tiny -budget demonstrates the oracles end to end. Leaving -raft
		// off keeps the historical tcp/gmp seed stream bit-identical.
		// Schedules carry bugs as space-separated `world raft ... bugs`
		// tokens, so commas in the flag normalize to spaces.
		bugs := strings.Join(strings.FieldsFunc(*raftBugs, func(r rune) bool {
			return r == ',' || r == ' '
		}), " ")
		opts.Seeds = append(explore.RaftSeedCorpus(*raftN, bugs),
			explore.RaftStaleLeaderProbe(bugs), explore.RaftDoubleVoteProbe(bugs))
	} else if *raftBugs != "" {
		fmt.Fprintln(os.Stderr, "pfifuzz: -raft-bugs needs -raft to seed raft schedules")
		os.Exit(1)
	}
	if !*quiet {
		opts.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	// The first ctrl-c drains the run at the next generation boundary
	// (the journal checkpoint makes it resumable).
	fl.Main("pfifuzz", "run", "draining at the generation boundary — interrupt again to force quit", prof,
		func(ctx context.Context, jl *journal.Log) error {
			opts.Context, opts.Journal = ctx, jl
			return fuzz(opts, *profile, fl)
		})
}

// fuzz runs the exploration in-process or, with -serve/-spawn-workers,
// shards candidate evaluation over a worker fleet, and prints the report.
// Only deterministic isolation knobs travel to workers; wall-clock
// -run-timeout does not (it is machine-dependent), so fleet runs use the
// deterministic watchdogs alone. A drained run still reports what it
// explored.
func fuzz(opts explore.Options, profile string, fl *fleet.RunFlags) error {
	start := time.Now()
	var rep *explore.Report
	var err error
	if fl.Fleet() {
		coord := fleet.NewFuzz(profile, fleet.HardenWire(opts.Harden), fl.Config())
		err = fl.Coordinate(coord, func() (err error) {
			rep, err = coord.RunFuzz(opts)
			return err
		})
		if err == nil {
			fs := coord.Stats()
			fmt.Fprintf(os.Stderr, "fleet: %d units in %d rounds over %d worker(s): %d reassigned, %d contained, %d stale, %d bad frames\n",
				fs.Units, fs.Rounds, fs.WorkersSeen, fs.Reassigned, fs.Contained, fs.Stale, fs.BadFrames)
		}
	} else {
		rep, err = explore.Fuzz(opts)
	}
	elapsed := time.Since(start)
	if err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	if rep != nil {
		fmt.Print(rep)
	}
	if err != nil {
		return err
	}
	fmt.Println(throughput(rep, elapsed))
	fmt.Println(scriptStats())
	return nil
}

// scriptStats renders the script-cache summary: how many sources the run
// parsed and how often the parse and expr caches answered instead.
func scriptStats() string {
	ss := script.Stats()
	return fmt.Sprintf("script: %d compiles, %d cache hits, %d cache misses",
		ss.Compiles, ss.CacheHits, ss.CacheMisses)
}

// throughput renders the end-of-run summary line: total evaluations,
// wall-clock rate, and — when the snapshot fast path served candidates —
// the fraction of candidate evaluations that forked from a warm world
// instead of replaying it.
func throughput(rep *explore.Report, elapsed time.Duration) string {
	total := rep.Runs + rep.ShrinkRuns
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	s := fmt.Sprintf("throughput: %d evaluations in %s (%.0f cases/s)",
		total, elapsed.Round(time.Millisecond), float64(total)/secs)
	if st := rep.Snapshot; st.Sessions > 0 || st.FastRuns > 0 {
		hit := 0.0
		if rep.Runs > 0 {
			hit = 100 * float64(st.FastRuns) / float64(rep.Runs)
		}
		s += fmt.Sprintf(", snapshot hit-rate %.0f%% (%d forked, %d fallback, %d fresh over %d sessions)",
			hit, st.FastRuns, st.Fallbacks, st.FreshRuns, st.Sessions)
	}
	return s
}
