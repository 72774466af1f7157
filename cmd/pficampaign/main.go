// Command pficampaign generates a fault-injection campaign from a protocol
// specification and sweeps it over a live simulated cluster, fanning cases
// out across a worker pool.
//
// Usage:
//
//	pficampaign                       # sweep the GMP matrix, one worker per CPU
//	pficampaign -workers 8            # explicit pool size
//	pficampaign -faults drop,delay    # restrict the fault vocabulary
//	pficampaign -types HEARTBEAT,ACK  # restrict the targeted message types
//	pficampaign -list                 # print the generated cases and exit
//
// Sharded (fleet) mode distributes the same sweep over worker processes
// with bit-identical merged verdicts (see internal/fleet):
//
//	pficampaign -spawn-workers 4              # fork 4 local worker processes
//	pficampaign -serve :8080                  # also serve HTTP workers + /status /metrics
//	pficampaign -connect http://host:8080     # run as a remote worker
//	pficampaign -worker-stdio                 # run as a spawned stdio worker (internal)
//
// Each case boots a fresh 3-daemon GMP cluster, faults one daemon's
// traffic with the generated filter script, and checks the healthy pair
// still converges to a common membership view.
//
// Every case runs through the harden isolation layer: a panicking or
// livelocked cell becomes one CRASH/LIVELOCK verdict instead of killing
// the sweep. The -run-timeout, -stall-steps, and -budget-* flags tune the
// watchdogs and resource budgets; -quarantine emits a headered .pfi repro
// for every deterministic contained failure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"pfi/internal/campaign"
	"pfi/internal/core"
	"pfi/internal/diag"
	"pfi/internal/fleet"
	"pfi/internal/gmp"
	"pfi/internal/harden"
	"pfi/internal/journal"
	"pfi/internal/netsim"
	"pfi/internal/rudp"
	"pfi/internal/stack"
	"pfi/internal/trace"
)

func main() {
	var (
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "worker-pool size (1 = serial)")
		types   = flag.String("types", "HEARTBEAT,PROCLAIM,JOIN,MEMBERSHIP_CHANGE,ACK,COMMIT,RUDP-ACK", "comma-separated message types to target")
		faults  = flag.String("faults", "drop,drop-first-n,delay,duplicate,reorder", "comma-separated fault kinds")
		list    = flag.Bool("list", false, "print the generated cases and exit")
		quiet   = flag.Bool("quiet", false, "suppress per-verdict progress lines")
		quar    = flag.String("quarantine", "", "directory for .pfi repros of deterministic contained failures")

		raftSizes = flag.String("raft", "", "sweep the raft consensus matrix instead of GMP: comma-separated cluster sizes (e.g. 3,5,25)")
		raftChurn = flag.String("raft-churn", "none,restart,suspend,partition", "churn models for the raft sweep")

		serve       = flag.String("serve", "", "coordinate a fleet and serve HTTP workers plus /status and /metrics on this address")
		connect     = flag.String("connect", "", "run as a remote worker against a coordinator URL (e.g. http://host:8080)")
		spawn       = flag.Int("spawn-workers", 0, "coordinate a fleet of N locally spawned worker processes")
		workerStdio = flag.Bool("worker-stdio", false, "run as a spawned stdio worker (internal)")
		shards      = flag.Int("shards", 0, "fleet units per round (0: fleet default)")
		unitTimeout = flag.Duration("unit-timeout", 30*time.Second, "fleet lease timeout before a silent worker's unit is reassigned (0: never reap)")

		journalPath = flag.String("journal", "", "write-ahead log for crash-safe sweeps: every completed cell is banked as it lands")
		resume      = flag.Bool("resume", false, "continue the sweep banked in -journal instead of refusing to reuse it")
	)
	hcfg := harden.Flags(flag.CommandLine)
	prof := diag.Register()
	flag.Parse()
	hcfg.ReproDir = *quar
	fleet.RegisterScenario("gmp", gmpScenario)
	registerRaftScenarios()

	if *workerStdio {
		if err := fleet.ServeStdio("pficampaign"); err != nil {
			fmt.Fprintln(os.Stderr, "pficampaign:", err)
			os.Exit(1)
		}
		return
	}
	if *connect != "" {
		host, _ := os.Hostname()
		if err := fleet.RunWorker(fleet.DialHTTP(*connect), "pficampaign@"+host); err != nil {
			fmt.Fprintln(os.Stderr, "pficampaign:", err)
			os.Exit(1)
		}
		return
	}

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pficampaign:", err)
		os.Exit(1)
	}
	var jl *journal.Log
	if *journalPath != "" {
		if *raftSizes != "" {
			fmt.Fprintln(os.Stderr, "pficampaign: -journal supports the single-matrix GMP sweep; the raft mode runs several sweeps per invocation")
			os.Exit(1)
		}
		if jl, err = journal.OpenResumable(*journalPath, *resume); err != nil {
			fmt.Fprintln(os.Stderr, "pficampaign:", err)
			os.Exit(1)
		}
		defer jl.Close()
	}
	// Two-stage ctrl-c: the first signal drains the sweep (in-flight
	// cells finish and are journaled; exit 0 with a resume hint), the
	// second force-quits a stuck drain.
	it := diag.NotifyInterrupt(nil,
		func() {
			fmt.Fprintln(os.Stderr, "\npficampaign: draining — in-flight cells will finish; interrupt again to force quit")
		},
		func() { fmt.Fprintln(os.Stderr, "pficampaign: forced exit") })
	defer it.Stop()
	fcfg := fleetMode{serve: *serve, spawn: *spawn, shards: *shards, unitTimeout: *unitTimeout}
	typesSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "types" {
			typesSet = true
		}
	})
	var runErr error
	if *raftSizes != "" {
		runErr = runRaftMode(it.Context(), *raftSizes, *raftChurn, *workers, *types, typesSet, *faults, *list, *quiet, *hcfg, fcfg)
	} else {
		runErr = run(it.Context(), *workers, *types, *faults, *list, *quiet, *hcfg, fcfg, jl)
	}
	it.Stop()
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "pficampaign:", err)
	}
	if jl != nil {
		if serr := jl.Sync(); serr != nil && runErr == nil {
			runErr = serr
		}
	}
	if it.Interrupted() && errors.Is(runErr, context.Canceled) {
		// A drained sweep is an orderly stop, not a failure.
		if jl != nil {
			fmt.Fprintf(os.Stderr, "pficampaign: sweep interrupted; resume with -journal %s -resume\n", *journalPath)
		} else {
			fmt.Fprintln(os.Stderr, "pficampaign: sweep interrupted (use -journal to make interrupted sweeps resumable)")
		}
		return
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "pficampaign:", runErr)
		os.Exit(1)
	}
}

// fleetMode carries the coordinator-side fleet flags; zero means the
// classic in-process pool.
type fleetMode struct {
	serve       string
	spawn       int
	shards      int
	unitTimeout time.Duration
}

func (f fleetMode) active() bool { return f.serve != "" || f.spawn > 0 }

func run(ctx context.Context, workers int, types, faults string, list, quiet bool, hcfg harden.Config, fcfg fleetMode, jl *journal.Log) error {
	kinds, err := parseFaults(faults)
	if err != nil {
		return err
	}
	spec := campaign.Spec{
		Protocol: "gmp",
		Types:    splitList(types),
		Faults:   kinds,
	}
	cases, err := campaign.Generate(spec)
	if err != nil {
		return err
	}
	if list {
		for _, c := range cases {
			fmt.Println(c.Name)
		}
		return nil
	}
	if fcfg.active() {
		return runFleet(ctx, spec, len(cases), hcfg, fcfg, jl)
	}
	fmt.Printf("sweeping %d cases with %d worker(s)\n", len(cases), workers)
	opts := campaign.Options{Workers: workers, Harden: hcfg, Repro: reproScenario, Context: ctx, Journal: jl}
	if !quiet {
		opts.OnVerdict = func(v campaign.Verdict) {
			fmt.Printf("%-8s %s (%s)\n", v.Status(), v.Case.Name, v.Elapsed.Round(time.Millisecond))
		}
	}
	verdicts, stats, err := campaign.RunParallel(spec, gmpScenario, opts)
	if err != nil {
		return err
	}
	if stats.Resumed > 0 {
		fmt.Printf("resumed %d journaled cell(s); ran %d\n", stats.Resumed, stats.Cases-stats.Resumed)
	}
	fmt.Print(campaign.Summary(verdicts, stats))
	if fails := campaign.Failures(verdicts); len(fails) > 0 {
		return fmt.Errorf("%d cases failed", len(fails))
	}
	return nil
}

// runFleet sweeps the matrix over a worker fleet: locally spawned stdio
// workers (-spawn-workers), remote HTTP workers joining via -serve, or
// both. The merged verdict stream is bit-identical to the in-process
// sweep; only wall-clock isolation knobs (-run-timeout) stay local, as
// they do not travel to workers.
func runFleet(ctx context.Context, spec campaign.Spec, n int, hcfg harden.Config, fcfg fleetMode, jl *journal.Log) error {
	coord := fleet.NewCampaign(spec, "gmp", fleet.HardenWire(hcfg), fleet.Config{
		Shards:      fcfg.shards,
		UnitTimeout: fcfg.unitTimeout,
		Journal:     jl,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if fcfg.serve != "" {
		srv, err := coord.Serve(fcfg.serve)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "fleet: serving workers on http://%s (status: /status, metrics: /metrics)\n", srv.Addr)
	}
	var pool *fleet.Pool
	if fcfg.spawn > 0 {
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		pool, err = coord.SpawnWorkers(fcfg.spawn, []string{exe, "-worker-stdio"}, nil)
		if err != nil {
			return err
		}
	}
	fmt.Printf("sweeping %d cases over a fleet (%d spawned worker(s))\n", n, fcfg.spawn)
	verdicts, stats, err := coord.RunCampaign(ctx)
	coord.Close()
	if pool != nil {
		pool.Wait()
	}
	if err != nil {
		return err
	}
	fs := coord.Stats()
	if stats.Resumed > 0 {
		fmt.Printf("resumed %d journaled cell(s); ran %d\n", stats.Resumed, stats.Cases-stats.Resumed)
	}
	fmt.Print(campaign.Summary(verdicts, stats))
	fmt.Printf("fleet: %d units over %d worker(s): %d reassigned, %d contained, %d stale, %d bad frames\n",
		fs.Units, fs.WorkersSeen, fs.Reassigned, fs.Contained, fs.Stale, fs.BadFrames)
	if fails := campaign.Failures(verdicts); len(fails) > 0 {
		return fmt.Errorf("%d cases failed", len(fails))
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseFaults maps fault names (the FaultKind String forms) back to kinds.
func parseFaults(s string) ([]campaign.FaultKind, error) {
	byName := map[string]campaign.FaultKind{}
	for _, k := range campaign.AllFaults() {
		byName[k.String()] = k
	}
	var kinds []campaign.FaultKind
	for _, name := range splitList(s) {
		k, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown fault %q (known: drop, drop-first-n, delay, duplicate, corrupt, reorder)", name)
		}
		kinds = append(kinds, k)
	}
	if len(kinds) == 0 {
		return nil, fmt.Errorf("no faults selected")
	}
	return kinds, nil
}

// reproScenario renders a campaign case as committable conformance
// scenario source, so a contained failure can be quarantined as a .pfi
// repro that replays the same cluster, faultload, and runtime.
func reproScenario(c campaign.Case) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# campaign case: %s\n", c.Name)
	b.WriteString("world gmp gmd1 gmd2 gmd3\n")
	for _, n := range []string{"gmd1", "gmd2", "gmd3"} {
		fmt.Fprintf(&b, "gmp_start %s\n", n)
	}
	fmt.Fprintf(&b, "faultload gmd3 %s {%s}\n", c.Dir, strings.TrimRight(c.Script, "\n"))
	b.WriteString("run 3m\n")
	b.WriteString("log \"group gmd1 [gmp_group gmd1]\"\n")
	b.WriteString("log \"group gmd2 [gmp_group gmd2]\"\n")
	return b.String()
}

// gmpScenario boots a fresh 3-daemon cluster, faults gmd3's traffic per
// the case, and checks that gmd1 and gmd2 still share a view. Every call
// builds its own world, so cases are independent and safe to run in
// parallel. The isolation monitor is attached to the world's scheduler
// and trace log so watchdogs and budgets can meter the run.
func gmpScenario(m *harden.Monitor, c campaign.Case) (bool, string, error) {
	names := []string{"gmd1", "gmd2", "gmd3"}
	w := netsim.NewWorld(2026)
	log := trace.NewLog()
	w.SetTrace(log)
	daemons := map[string]*gmp.Daemon{}
	var victim *core.Layer
	var pfis []*core.Layer
	for _, name := range names {
		node, err := w.AddNode(name)
		if err != nil {
			return false, "", err
		}
		net := rudp.NewLayer(node.Env())
		pfi := core.NewLayer(node.Env(), core.WithStub(gmp.PFIStub{}))
		node.SetStack(stack.New(node.Env(), net, pfi))
		gmd, err := gmp.New(node.Env(), net, names)
		if err != nil {
			return false, "", err
		}
		daemons[name] = gmd
		pfis = append(pfis, pfi)
		if name == "gmd3" {
			victim = pfi
		}
	}
	m.Attach(w.Sched, log, func() int {
		n := 0
		for _, l := range pfis {
			n += l.SendFilter().Stats().Injected + l.ReceiveFilter().Stats().Injected
		}
		return n
	})
	if err := w.ConnectAll(netsim.LinkConfig{Latency: 2 * time.Millisecond}); err != nil {
		return false, "", err
	}
	if err := c.Apply(victim); err != nil {
		return false, "", err
	}
	for _, n := range names {
		daemons[n].Start()
	}
	w.RunFor(3 * time.Minute)

	g1, g2 := daemons["gmd1"].Group(), daemons["gmd2"].Group()
	if !g1.Equal(g2) {
		return false, fmt.Sprintf("views diverged: %v vs %v", g1, g2), nil
	}
	if !g1.Contains("gmd1") || !g1.Contains("gmd2") {
		return false, fmt.Sprintf("healthy daemons missing from %v", g1), nil
	}
	return true, g1.String(), nil
}
