package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pfi/internal/campaign"
	"pfi/internal/core"
	"pfi/internal/gmp"
	"pfi/internal/harden"
	"pfi/internal/journal"
	"pfi/internal/netsim"
	"pfi/internal/rudp"
	"pfi/internal/stack"
	"pfi/internal/trace"
)

// campaignWorkers is the sweep's worker-pool size: one per CPU.
var campaignWorkers = runtime.NumCPU()

// gmpTypes are the message types pficampaign targets by default.
var gmpTypes = []string{"HEARTBEAT", "PROCLAIM", "JOIN", "MEMBERSHIP_CHANGE", "ACK", "COMMIT", "RUDP-ACK"}

func init() {
	register(&workload{
		name:    "campaign-gmp",
		setups:  15,
		tail:    95,
		workers: campaignWorkers,
		opSpan:  "campaign.case",
		setup:   setupCampaign,
	})
}

// campaignRun sweeps the full GMP fault matrix (every fault kind times
// every default message type, in both directions: 84 cases) with
// campaign.RunParallel, one worker per CPU, banking every cell to a fresh
// journal per sweep. One op is one case; one unit is one sweep.
type campaignRun struct {
	spec      campaign.Spec
	worldSeed int64
	dir       string
	chk       *checker
	warm      string
	sweeps    int

	// Per-sweep state the scenario updates from the worker pool.
	spans   *spanRecorder
	nextOp  atomic.Int64
	steps   atomic.Int64
	entries atomic.Int64
	mu      sync.Mutex
	opMS    []float64
}

func setupCampaign(seed int64, out string) (runner, error) {
	r := &campaignRun{
		spec:      campaign.Spec{Protocol: "gmp", Types: gmpTypes, Faults: campaign.AllFaults()},
		worldSeed: 2026 + seed,
		chk:       newChecker("campaign-gmp", seed),
	}
	cases, err := campaign.Generate(r.spec)
	if err != nil {
		return nil, err
	}
	// Every type and fault, on the send and the receive path.
	if want := len(campaign.AllFaults()) * len(gmpTypes) * 2; len(cases) != want {
		return nil, fmt.Errorf("matrix has %d cases, want %d", len(cases), want)
	}
	if r.dir, err = os.MkdirTemp(out, "campaign-"); err != nil {
		return nil, err
	}
	v := campaign.RunCase(cases[0], r.scenario, harden.Config{}, nil)
	if v.Status() != "PASS" && v.Status() != "FAIL" {
		r.close()
		return nil, fmt.Errorf("warm-up case %s: %s %v", v.Case.Name, v.Status(), v.Err)
	}
	r.warm = verdictLine(v)
	return r, nil
}

func verdictLine(v campaign.Verdict) string {
	return v.Case.Name + "\t" + v.Status() + "\t" + v.Note
}

func (r *campaignRun) unit(s *segment) error {
	r.spans = s.spans
	r.steps.Store(0)
	r.entries.Store(0)
	r.opMS = r.opMS[:0]
	path := filepath.Join(r.dir, fmt.Sprintf("sweep-%d.wal", r.sweeps))
	r.sweeps++
	jl, err := journal.Open(path)
	if err != nil {
		return err
	}
	verdicts, stats, err := campaign.RunParallel(r.spec, r.scenario, campaign.Options{Workers: campaignWorkers, Journal: jl})
	t0 := time.Now()
	serr := jl.Sync()
	cerr := jl.Close()
	s.ctr.syncDur += time.Since(t0)
	s.ctr.syncs++
	if err = errors.Join(err, serr, cerr, os.Remove(path)); err != nil {
		return err
	}

	d := newDigest()
	contained := 0
	for _, v := range verdicts {
		d.str(v.Case.Name)
		d.str(v.Status())
		d.str(v.Note)
		if v.Status() != "PASS" && v.Status() != "FAIL" {
			contained++ // an error or contained crash is a tool failure
		}
	}
	var bad []string
	if contained > 0 {
		bad = append(bad, fmt.Sprintf("%d errored or contained cases", contained))
	}
	if got := verdictLine(verdicts[0]); got != r.warm {
		bad = append(bad, fmt.Sprintf("first case %q differs from the warm-up's %q", got, r.warm))
	}
	if !r.chk.check(0, d.String()) {
		bad = append(bad, "verdict digest "+d.String()+" differs from the expected one")
	}
	s.ops += stats.Cases
	if len(bad) > 0 {
		s.failed += stats.Cases
		logf("sweep %d: %s", r.sweeps-1, strings.Join(bad, "; "))
	}
	s.opMS = append(s.opMS, r.opMS...)
	s.ctr.steps += r.steps.Load()
	s.ctr.entries += r.entries.Load()
	return nil
}

// scenario is the benchmark's copy of pficampaign's GMP scenario: it
// boots a fresh 3-daemon cluster, faults gmd3's traffic per the case,
// runs three virtual minutes and checks that gmd1 and gmd2 still share
// a view. The world seed comes from the workload seed. Spans cover world
// construction, script install and the run.
func (r *campaignRun) scenario(m *harden.Monitor, c campaign.Case) (bool, string, error) {
	start := time.Now()
	op := r.nextOp.Add(1)
	root := r.spans.start("campaign.case", 0, op)
	defer func() {
		r.spans.end(root)
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		r.mu.Lock()
		r.opMS = append(r.opMS, ms)
		r.mu.Unlock()
	}()

	build := r.spans.start("netsim.build", root, op)
	names := []string{"gmd1", "gmd2", "gmd3"}
	w := netsim.NewWorld(r.worldSeed)
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
	r.spans.end(build)

	install := r.spans.start("core.install", root, op)
	err := c.Apply(victim)
	r.spans.end(install)
	if err != nil {
		return false, "", err
	}
	for _, n := range names {
		daemons[n].Start()
	}
	run := r.spans.start("netsim.run", root, op)
	r.steps.Add(int64(w.RunFor(3 * time.Minute)))
	r.spans.end(run)
	r.entries.Add(int64(log.Len()))

	g1, g2 := daemons["gmd1"].Group(), daemons["gmd2"].Group()
	if !g1.Equal(g2) {
		return false, fmt.Sprintf("views diverged: %v vs %v", g1, g2), nil
	}
	if !g1.Contains("gmd1") || !g1.Contains("gmd2") {
		return false, fmt.Sprintf("healthy daemons missing from %v", g1), nil
	}
	return true, g1.String(), nil
}

func (r *campaignRun) restart()                  {}
func (r *campaignRun) warmDigest() string        { return r.warm }
func (r *campaignRun) digests() ([]string, bool) { return r.chk.digests() }
func (r *campaignRun) close()                    { os.RemoveAll(r.dir) }
