package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"pfi/internal/campaign"
	"pfi/internal/exp"
	"pfi/internal/fleet"
	"pfi/internal/harden"
)

// The raft sweep is a three-axis matrix: cluster size × faultload × churn.
// The faultload axis is the campaign.Case matrix (message type × fault ×
// direction) applied to one victim node's PFI filters; the other two axes
// select the registered scenario. Sizes and churn models are a fixed grid
// so coordinator and spawned workers always share the same scenario
// registry — the scenario name is the wire contract.
var (
	raftSweepSizes = []int{3, 5, 9, 25, 50, 100, 250, 500, 1000}
	raftSweepChurn = []string{"none", "restart", "suspend", "partition"}
)

// raftScenarioName is the fleet registry key for one (size, churn) cell.
func raftScenarioName(size int, churn string) string {
	return fmt.Sprintf("raft-%d-%s", size, churn)
}

// registerRaftScenarios publishes every supported (size, churn) cell.
// Registration is unconditional at startup so a spawned stdio worker can
// resolve whatever cell the coordinator is sweeping.
func registerRaftScenarios() {
	for _, n := range raftSweepSizes {
		for _, churn := range raftSweepChurn {
			fleet.RegisterScenario(raftScenarioName(n, churn), raftScenario(n, churn))
		}
	}
}

// raftTypesDefault is the raft wire vocabulary the faultload axis targets.
const raftTypesDefault = "REQUEST_VOTE,VOTE_RESP,APPEND_ENTRIES,APPEND_RESP"

// parseRaftSizes validates the -raft size list against the supported grid.
func parseRaftSizes(s string) ([]int, error) {
	supported := map[int]bool{}
	for _, n := range raftSweepSizes {
		supported[n] = true
	}
	var out []int
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil || !supported[n] {
			return nil, fmt.Errorf("unsupported raft cluster size %q (supported: %v)", part, raftSweepSizes)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no raft cluster sizes selected")
	}
	return out, nil
}

// parseRaftChurn validates the churn model list.
func parseRaftChurn(s string) ([]string, error) {
	supported := map[string]bool{}
	for _, c := range raftSweepChurn {
		supported[c] = true
	}
	var out []string
	for _, part := range splitList(s) {
		if !supported[part] {
			return nil, fmt.Errorf("unknown churn model %q (known: %s)", part, strings.Join(raftSweepChurn, ", "))
		}
		out = append(out, part)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no churn models selected")
	}
	return out, nil
}

// raftScenario builds the scenario for one (size, churn) cell. Each case
// boots a fresh n-node raft world, installs the generated faultload on r1's
// PFI filters, drives churn plus a steady proposal workload, and judges:
// the safety oracles (election safety, commit safety) must hold under any
// single-node faultload, and the unfaulted quorum must still commit.
func raftScenario(size int, churn string) campaign.Scenario {
	return func(m *harden.Monitor, c campaign.Case) (bool, string, error) {
		rig, err := exp.NewRaftRig(size)
		if err != nil {
			return false, "", err
		}
		victim := rig.Ms[rig.Names[0]]
		m.Attach(rig.W.Sched, rig.Log, func() int {
			return victim.PFI.SendFilter().Stats().Injected + victim.PFI.ReceiveFilter().Stats().Injected
		})
		if err := c.Apply(victim.PFI); err != nil {
			return false, "", err
		}
		rig.StartAll()
		rig.W.RunFor(20 * time.Second)

		// A proposal lands only when the cluster has exactly one
		// state-leader at the tick; several ticks spread over the run keep
		// the workload alive across churn-induced re-elections.
		proposed := 0
		propose := func(k int) {
			if ls := rig.Leaders(); len(ls) == 1 {
				if _, ok := rig.Ms[ls[0]].Raft().Propose(fmt.Sprintf("w%d", k)); ok {
					proposed++
				}
			}
		}
		propose(0)
		rig.W.RunFor(10 * time.Second)

		switch churn {
		case "restart":
			for i := 1; i <= 2; i++ {
				n := rig.Ms[rig.Names[i%size]].Raft()
				n.Stop()
				rig.W.RunFor(5 * time.Second)
				n.Start()
				rig.W.RunFor(5 * time.Second)
			}
		case "suspend":
			n := rig.Ms[rig.Names[1%size]].Raft()
			n.Suspend()
			rig.W.RunFor(15 * time.Second)
			n.Resume()
			rig.W.RunFor(5 * time.Second)
		case "partition":
			cut := size / 3
			if cut == 0 {
				cut = 1
			}
			rig.W.Partition(rig.Names[:cut], rig.Names[cut:])
			propose(1)
			rig.W.RunFor(15 * time.Second)
			rig.W.Heal()
			rig.W.RunFor(5 * time.Second)
		case "none":
			rig.W.RunFor(20 * time.Second)
		}

		propose(2)
		rig.W.RunFor(10 * time.Second)
		propose(3)
		rig.W.RunFor(15 * time.Second)

		// Safety: scan the shared trace exactly like the explore oracles —
		// one winner per term, one identity per applied index.
		if detail, bad := raftSafetyConflicts(rig); bad {
			return false, detail, nil
		}
		// Liveness: a single faulted node plus bounded churn must not stop
		// the quorum from committing.
		if proposed == 0 {
			return false, "no proposal tick found a unique leader", nil
		}
		quorum := size/2 + 1
		applied := 0
		for _, name := range rig.Names {
			if rig.Ms[name].Raft().Applied() >= 1 {
				applied++
			}
		}
		if applied < quorum {
			return false, fmt.Sprintf("entry applied on %d/%d nodes, want quorum %d", applied, size, quorum), nil
		}
		return true, fmt.Sprintf("proposed=%d applied=%d/%d", proposed, applied, size), nil
	}
}

// raftSafetyConflicts scans the rig's trace for election-safety (two
// winners of one term) and commit-safety (one index applied with two
// identities) conflicts, mirroring explore's judgeRaft oracles. The lowest
// conflicting key is reported so the detail text is deterministic.
func raftSafetyConflicts(rig *exp.RaftRig) (string, bool) {
	winners := map[uint64]map[string]bool{}
	applied := map[uint64]map[string]bool{}
	for _, e := range rig.Log.Entries() {
		switch e.Kind {
		case "elected":
			if winners[e.Seq] == nil {
				winners[e.Seq] = map[string]bool{}
			}
			winners[e.Seq][e.Node] = true
		case "apply":
			if applied[e.Seq] == nil {
				applied[e.Seq] = map[string]bool{}
			}
			applied[e.Seq][e.Note] = true
		}
	}
	if term, who := lowestConflict(winners); who != "" {
		return fmt.Sprintf("election safety: term %d elected %s", term, who), true
	}
	if idx, ids := lowestConflict(applied); ids != "" {
		return fmt.Sprintf("commit safety: index %d applied as %s", idx, ids), true
	}
	return "", false
}

// lowestConflict returns the smallest key with more than one member, with
// the members sorted.
func lowestConflict(m map[uint64]map[string]bool) (uint64, string) {
	best, found := uint64(0), false
	for k, set := range m {
		if len(set) > 1 && (!found || k < best) {
			best, found = k, true
		}
	}
	if !found {
		return 0, ""
	}
	keys := make([]string, 0, len(m[best]))
	for k := range m[best] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return best, strings.Join(keys, ", ")
}

// runRaftMode is the -raft entry point: parse the size and churn axes,
// retarget the default type vocabulary from GMP to the raft wire protocol
// (an explicit -types still wins), and hand the spec to the sweep.
func runRaftMode(ctx context.Context, sizesStr, churnStr string, workers int, types string, typesSet bool, faults string, list, quiet bool, hcfg harden.Config, fcfg fleetMode) error {
	sizes, err := parseRaftSizes(sizesStr)
	if err != nil {
		return err
	}
	churns, err := parseRaftChurn(churnStr)
	if err != nil {
		return err
	}
	if !typesSet {
		types = raftTypesDefault
	}
	kinds, err := parseFaults(faults)
	if err != nil {
		return err
	}
	spec := campaign.Spec{
		Protocol: "raft",
		Types:    splitList(types),
		Faults:   kinds,
	}
	if list {
		cases, err := campaign.Generate(spec)
		if err != nil {
			return err
		}
		for _, size := range sizes {
			for _, churn := range churns {
				for _, c := range cases {
					fmt.Printf("%s/%s\n", raftScenarioName(size, churn), c.Name)
				}
			}
		}
		return nil
	}
	return runRaft(ctx, sizes, churns, spec, workers, quiet, hcfg, fcfg)
}

// runRaft sweeps the full consensus matrix: for each (size, churn) cell,
// the faultload case matrix runs through the in-process pool or, in fleet
// mode, is sharded over worker processes (one fleet round per cell — the
// scenario name carries the cell, the wire carries the case indices).
func runRaft(ctx context.Context, sizes []int, churns []string, spec campaign.Spec, workers int, quiet bool, hcfg harden.Config, fcfg fleetMode) error {
	if fcfg.serve != "" {
		return fmt.Errorf("-raft sweeps run one fleet round per matrix cell; use -spawn-workers (a -serve listener cannot rebind per cell)")
	}
	cases, err := campaign.Generate(spec)
	if err != nil {
		return err
	}
	total := len(sizes) * len(churns) * len(cases)
	fmt.Printf("sweeping raft matrix: %d sizes x %d churn models x %d faultloads = %d cases\n",
		len(sizes), len(churns), len(cases), total)
	var all []campaign.Verdict
	for _, size := range sizes {
		for _, churn := range churns {
			cell := raftScenarioName(size, churn)
			var verdicts []campaign.Verdict
			var stats campaign.RunStats
			if fcfg.active() {
				coord := fleet.NewCampaign(spec, cell, fleet.HardenWire(hcfg), fleet.Config{
					Shards:      fcfg.shards,
					UnitTimeout: fcfg.unitTimeout,
				})
				exe, err := os.Executable()
				if err != nil {
					return err
				}
				pool, err := coord.SpawnWorkers(fcfg.spawn, []string{exe, "-worker-stdio"}, nil)
				if err != nil {
					return err
				}
				verdicts, stats, err = coord.RunCampaign(ctx)
				coord.Close()
				pool.Wait()
				if err != nil {
					return fmt.Errorf("%s: %w", cell, err)
				}
			} else {
				opts := campaign.Options{Workers: workers, Harden: hcfg, Context: ctx}
				if !quiet {
					opts.OnVerdict = func(v campaign.Verdict) {
						fmt.Printf("%-8s %s/%s (%s)\n", v.Status(), cell, v.Case.Name, v.Elapsed.Round(time.Millisecond))
					}
				}
				var err error
				verdicts, stats, err = campaign.RunParallel(spec, raftScenario(size, churn), opts)
				if err != nil {
					return fmt.Errorf("%s: %w", cell, err)
				}
			}
			fmt.Printf("-- %s --\n%s", cell, campaign.Summary(verdicts, stats))
			all = append(all, verdicts...)
		}
	}
	if fails := campaign.Failures(all); len(fails) > 0 {
		return fmt.Errorf("%d of %d raft cases failed", len(fails), total)
	}
	fmt.Printf("raft matrix clean: %d cases, both safety oracles held everywhere\n", total)
	return nil
}
