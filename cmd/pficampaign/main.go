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
//	pficampaign -connect http://host:8080     # run as a remote worker (reconnects)
//	pficampaign -worker-stdio                 # run as a spawned stdio worker (internal)
//
// These fleet flags, -shards, -unit-timeout, -journal and -resume are the
// run surface pficampaign shares with pfifuzz (fleet.Flags). With -journal
// every completed cell is banked as it lands; a killed sweep restarted
// with -resume runs only the missing cells.
//
// Each case boots a fresh 3-daemon GMP cluster, faults one daemon's
// traffic with the generated filter script, and checks the healthy pair
// still converges to a common membership view.
//
// Every case runs through the harden isolation layer: a panicking or
// livelocked cell becomes one CRASH/LIVELOCK verdict instead of killing
// the sweep. The harden flags tune it: -run-timeout, -stall-steps, and
// -budget-* set the watchdogs and resource budgets; -quarantine emits a
// headered .pfi repro for every deterministic contained failure.
package main

import (
	"context"
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

		raftSizes = flag.String("raft", "", "sweep the raft consensus matrix instead of GMP: comma-separated cluster sizes (e.g. 3,5,25)")
		raftChurn = flag.String("raft-churn", "none,restart,suspend,partition", "churn models for the raft sweep")
	)
	hcfg := harden.Flags(flag.CommandLine)
	fl := fleet.Flags(flag.CommandLine)
	prof := diag.Register()
	flag.Parse()
	fleet.RegisterScenario("gmp", gmpScenario)
	registerRaftScenarios()

	if *raftSizes != "" && fl.Journal != "" {
		fmt.Fprintln(os.Stderr, "pficampaign: -journal supports the single-matrix GMP sweep; the raft mode runs several sweeps per invocation")
		os.Exit(1)
	}
	typesSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "types" {
			typesSet = true
		}
	})
	// The first ctrl-c drains the sweep: in-flight cells finish and are
	// journaled.
	fl.Main("pficampaign", "sweep", "draining — in-flight cells will finish; interrupt again to force quit", prof,
		func(ctx context.Context, jl *journal.Log) error {
			if *raftSizes != "" {
				return runRaftMode(ctx, *raftSizes, *raftChurn, *workers, *types, typesSet, *faults, *list, *quiet, *hcfg, fl)
			}
			return run(ctx, *workers, *types, *faults, *list, *quiet, *hcfg, fl, jl)
		})
}

// run sweeps the GMP matrix through the in-process pool or, with
// -serve/-spawn-workers, over a worker fleet. The fleet's merged verdict
// stream is bit-identical to the in-process sweep; only wall-clock
// isolation knobs (-run-timeout) stay local, as they do not travel to
// workers.
func run(ctx context.Context, workers int, types, faults string, list, quiet bool, hcfg harden.Config, fl *fleet.RunFlags, jl *journal.Log) error {
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
	var (
		verdicts []campaign.Verdict
		stats    campaign.RunStats
		coord    *fleet.Coordinator
	)
	if fl.Fleet() {
		cfg := fl.Config()
		cfg.Journal = jl
		coord = fleet.NewCampaign(spec, "gmp", fleet.HardenWire(hcfg), cfg)
		err = fl.Coordinate(coord, func() (err error) {
			fmt.Printf("sweeping %d cases over a fleet (%d spawned worker(s))\n", len(cases), fl.Spawn)
			verdicts, stats, err = coord.RunCampaign(ctx)
			return err
		})
	} else {
		fmt.Printf("sweeping %d cases with %d worker(s)\n", len(cases), workers)
		opts := campaign.Options{Workers: workers, Harden: hcfg, Repro: reproScenario, Context: ctx, Journal: jl}
		if !quiet {
			opts.OnVerdict = func(v campaign.Verdict) {
				fmt.Printf("%-8s %s (%s)\n", v.Status(), v.Case.Name, v.Elapsed.Round(time.Millisecond))
			}
		}
		verdicts, stats, err = campaign.RunParallel(spec, gmpScenario, opts)
	}
	if err != nil {
		return err
	}
	if stats.Resumed > 0 {
		fmt.Printf("resumed %d journaled cell(s); ran %d\n", stats.Resumed, stats.Cases-stats.Resumed)
	}
	fmt.Print(campaign.Summary(verdicts, stats))
	if coord != nil {
		fs := coord.Stats()
		fmt.Printf("fleet: %d units over %d worker(s): %d reassigned, %d contained, %d stale, %d bad frames\n",
			fs.Units, fs.WorkersSeen, fs.Reassigned, fs.Contained, fs.Stale, fs.BadFrames)
	}
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
