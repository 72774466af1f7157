package fleet

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"pfi/internal/diag"
	"pfi/internal/journal"
)

// RunFlags is the run surface every sweeping CLI shares (pficampaign,
// pfifuzz): how the process takes part in a fleet and whether its run is
// journaled. Zero fleet fields mean the classic in-process run.
type RunFlags struct {
	Serve       string        // -serve: coordinate and serve HTTP workers on this address
	Connect     string        // -connect: run as a remote worker against this coordinator URL
	Spawn       int           // -spawn-workers: coordinate N locally spawned worker processes
	WorkerStdio bool          // -worker-stdio: run as a spawned stdio worker
	Shards      int           // -shards: fleet units per round (0: fleet default)
	UnitTimeout time.Duration // -unit-timeout: lease timeout before a silent worker's unit is reassigned
	Journal     string        // -journal: write-ahead log that makes the run crash-safe
	Resume      bool          // -resume: continue the run banked in -journal
}

// Flags registers the fleet and journal knobs on fs and returns the
// RunFlags they populate, so every CLI spells them the same way.
func Flags(fs *flag.FlagSet) *RunFlags {
	f := &RunFlags{}
	fs.StringVar(&f.Serve, "serve", "", "coordinate a fleet and serve HTTP workers plus /status and /metrics on this address")
	fs.StringVar(&f.Connect, "connect", "", "run as a remote worker against a coordinator URL (e.g. http://host:8080); reconnects if the coordinator restarts")
	fs.IntVar(&f.Spawn, "spawn-workers", 0, "coordinate a fleet of N locally spawned worker processes")
	fs.BoolVar(&f.WorkerStdio, "worker-stdio", false, "run as a spawned stdio worker (internal)")
	fs.IntVar(&f.Shards, "shards", 0, "fleet units per round (0: fleet default)")
	fs.DurationVar(&f.UnitTimeout, "unit-timeout", 30*time.Second, "fleet lease timeout before a silent worker's unit is reassigned (0: never reap)")
	fs.StringVar(&f.Journal, "journal", "", "write-ahead log for crash-safe runs: completed work is banked as it lands")
	fs.BoolVar(&f.Resume, "resume", false, "continue the run banked in -journal instead of refusing to reuse it")
	return f
}

// Fleet reports whether the flags ask for a coordinator (-serve or
// -spawn-workers) instead of the in-process run.
func (f *RunFlags) Fleet() bool { return f.Serve != "" || f.Spawn > 0 }

// Config is the coordinator configuration the flags select: -shards,
// -unit-timeout, and progress lines on stderr.
func (f *RunFlags) Config() Config {
	return Config{Shards: f.Shards, UnitTimeout: f.UnitTimeout, Log: stderrLog}
}

func stderrLog(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// Coordinate runs round on coord with the workers the flags ask for:
// remote HTTP workers joining via -serve, -spawn-workers copies of this
// executable started with -worker-stdio, or both. Once round returns, the
// coordinator drains and Coordinate waits for the spawned workers to exit.
func (f *RunFlags) Coordinate(coord *Coordinator, round func() error) error {
	if f.Serve != "" {
		srv, err := coord.Serve(f.Serve)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "fleet: serving workers on http://%s (status: /status, metrics: /metrics)\n", srv.Addr)
	}
	var pool *Pool
	if f.Spawn > 0 {
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		if pool, err = coord.SpawnWorkers(f.Spawn, []string{exe, "-worker-stdio"}, nil); err != nil {
			return err
		}
	}
	err := round()
	coord.Close()
	if pool != nil {
		pool.Wait()
	}
	return err
}

// Main runs one invocation of tool and exits the process with status 1
// on an error. With -worker-stdio or -connect the process serves a fleet
// as a worker. Otherwise Main runs run as the coordinator-side work: see
// coordinate. noun names the tool's unit of work in the exit messages
// ("sweep", "run"); drain is announced on the first interrupt.
func (f *RunFlags) Main(tool, noun, drain string, prof *diag.Flags, run func(ctx context.Context, jl *journal.Log) error) {
	var err error
	switch {
	case f.WorkerStdio:
		err = ServeStdio(tool)
	case f.Connect != "":
		err = f.connect(tool)
	default:
		err = f.coordinate(tool, noun, drain, prof, run)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		os.Exit(1)
	}
}

// connect runs a remote worker that outlives a coordinator restart: a
// lost coordinator is redialed with backoff. The first interrupt lets the
// leased unit finish and stops leasing; the second forces the exit.
func (f *RunFlags) connect(tool string) error {
	it := diag.NotifyInterrupt(nil,
		func() {
			fmt.Fprintf(os.Stderr, "\n%s: draining — the leased unit will finish; interrupt again to force quit\n", tool)
		},
		func() { fmt.Fprintf(os.Stderr, "%s: forced exit\n", tool) })
	defer it.Stop()
	host, _ := os.Hostname()
	dial := func() (Conn, error) { return DialHTTP(f.Connect), nil }
	err := RunWorkerReconnect(it.Context(), dial, tool+"@"+host, Reconnect{Log: stderrLog})
	if it.Interrupted() && errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// coordinate is the coordinator-side lifecycle: start the profiles, open
// -journal (refusing a used one without -resume), arm the two-stage
// interrupt, and call run with the interrupt context and the journal (nil
// without -journal). Afterwards it stops the profiles and syncs the
// journal. A run drained by an interrupt is an orderly stop, not a
// failure: coordinate says how to pick it back up and returns nil.
func (f *RunFlags) coordinate(tool, noun, drain string, prof *diag.Flags, run func(context.Context, *journal.Log) error) error {
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	var jl *journal.Log
	if f.Journal != "" {
		if jl, err = journal.OpenResumable(f.Journal, f.Resume); err != nil {
			return err
		}
		defer jl.Close()
	}
	it := diag.NotifyInterrupt(nil,
		func() { fmt.Fprintf(os.Stderr, "\n%s: %s\n", tool, drain) },
		func() { fmt.Fprintf(os.Stderr, "%s: forced exit\n", tool) })
	err = run(it.Context(), jl)
	it.Stop()
	if perr := stopProf(); perr != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, perr)
	}
	if jl != nil {
		if serr := jl.Sync(); serr != nil && err == nil {
			err = serr
		}
	}
	if it.Interrupted() && errors.Is(err, context.Canceled) {
		if jl != nil {
			fmt.Fprintf(os.Stderr, "%s: %s interrupted; resume with -journal %s -resume\n", tool, noun, f.Journal)
		} else {
			fmt.Fprintf(os.Stderr, "%s: %s interrupted (use -journal to make interrupted %ss resumable)\n", tool, noun, noun)
		}
		return nil
	}
	return err
}
