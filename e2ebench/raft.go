package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"pfi/internal/conformance"
)

// raftNodes is the cluster size of the raft-1000 workload.
const raftNodes = 1000

func init() {
	register(&workload{
		name:    "raft-1000",
		setups:  5,
		tail:    50,
		workers: 1,
		opSpan:  "conformance.replay",
		setup:   setupRaft,
	})
}

// raftInputs is how many churn variants a run cycles through.
const raftInputs = 8

// raftRun replays generated 1000-node raft churn scenarios serially with
// conformance.Run. Replay i uses churn variant i mod raftInputs, whose
// churned nodes come from subSeed(seed, variant): which nodes churn
// decides how much re-election work a replay does, so a run averages
// over several choices. One op, and one unit, is one replay.
type raftRun struct {
	scs  []*conformance.Scenario
	chk  *checker
	warm string
	next int
}

// raftChurnSource renders the scale battery's churn scenario for an
// n-node cluster: elect, commit, clock-stop a tenth of the cluster,
// crash-restart another tenth, keep committing, and assert both safety
// oracles. The seed picks which nodes churn.
func raftChurnSource(n int, seed int64) string {
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	tenth := n / 10
	set := func(idx []int) string {
		names := make([]string, len(idx))
		for i, k := range idx {
			names[i] = fmt.Sprintf("r%d", k+1)
		}
		return strings.Join(names, " ")
	}
	suspended, restarted := set(perm[:tenth]), set(perm[tenth:2*tenth])
	var b strings.Builder
	fmt.Fprintf(&b, "world raft %d\n", n)
	b.WriteString("raft_start\nrun 30s\nraft_expect_leader\n")
	b.WriteString("set i1 [raft_propose steady]\nassert {$i1 == 1} \"fault-free proposal accepted\"\n")
	b.WriteString("run 5s\nraft_expect_committed 1 data steady\n")
	fmt.Fprintf(&b, "raft_suspend %s\nrun 10s\nraft_resume %s\n", suspended, suspended)
	fmt.Fprintf(&b, "raft_restart %s\nrun 20s\n", restarted)
	b.WriteString("raft_expect_leader\n")
	b.WriteString("set i2 [raft_propose churned]\nassert {$i2 == 2} \"cluster accepts work after churn\"\n")
	b.WriteString("run 15s\nraft_expect_committed 2 data churned\n")
	b.WriteString("assert {[raft_election_conflicts] == 0} \"election safety held\"\n")
	b.WriteString("assert {[raft_apply_conflicts] == 0} \"commit safety held\"\n")
	return b.String()
}

func setupRaft(seed int64, _ string) (runner, error) {
	r := &raftRun{chk: newChecker("raft-1000", seed)}
	for v := 0; v < raftInputs; v++ {
		name := fmt.Sprintf("raft-churn-%d-v%d", raftNodes, v)
		r.scs = append(r.scs, conformance.New(name, raftChurnSource(raftNodes, subSeed(seed, v))))
	}
	res := conformance.Run(r.scs[0], conformance.Options{})
	if !res.OK() {
		return nil, fmt.Errorf("warm-up replay failed: %v %v", res.Err, res.Failed())
	}
	r.warm = raftDigest(res)
	return r, nil
}

// raftDigest hashes the replay's verdicts, final virtual clock and full
// event trace.
func raftDigest(res *conformance.Result) string {
	d := newDigest()
	for _, v := range res.Verdicts {
		d.str(v.String())
	}
	d.u64(uint64(res.Elapsed))
	for _, e := range res.Trace {
		d.u64(uint64(e.At))
		d.str(e.Node)
		d.str(e.Kind)
		d.str(e.Type)
		d.u64(e.Seq)
		d.str(e.Note)
	}
	return d.String()
}

func (r *raftRun) unit(s *segment) error {
	op, v := r.next, r.next%raftInputs
	r.next++
	root := s.spans.start("conformance.replay", 0, int64(op))
	start := time.Now()
	res := conformance.Run(r.scs[v], conformance.Options{})
	wall := time.Since(start)
	s.spans.end(root)
	s.ops++
	if !res.OK() {
		s.failed++
		logf("replay %d (variant %d): %v %v", op, v, res.Err, res.Failed())
	} else if got := raftDigest(res); !r.chk.check(v, got) {
		s.failed++
		logf("replay %d (variant %d): trace digest %s differs from the expected one", op, v, got)
	}
	s.opMS = append(s.opMS, float64(wall)/float64(time.Millisecond))
	s.ctr.entries += int64(len(res.Trace))
	s.ctr.simTime += time.Duration(res.Elapsed)
	return nil
}

func (r *raftRun) restart()                  { r.next = 0 }
func (r *raftRun) warmDigest() string        { return r.warm }
func (r *raftRun) digests() ([]string, bool) { return r.chk.digests() }
func (r *raftRun) close()                    {}
