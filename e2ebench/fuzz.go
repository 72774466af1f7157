package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"pfi/internal/explore"
)

// fuzzBudget is the candidate budget of one explore.Fuzz run: the seed
// corpus (4 schedules) plus four generations of 32 candidates.
const fuzzBudget = 132

// fuzzInputs is how many distinct fuzz seeds a run cycles through.
const fuzzInputs = 16

func init() {
	register(&workload{
		name:    "fuzz",
		setups:  15,
		tail:    50,
		workers: 1,
		opSpan:  "explore.fuzz",
		setup:   setupFuzz,
	})
}

// fuzzRun runs explore.Fuzz with the pfifuzz defaults (one worker,
// snapshots on) back to back. Run i explores seed subSeed(seed, i mod
// fuzzInputs), so run 0 is the workload seed itself; averaging over many
// explorations keeps a run's figures from hinging on one seed. One op is
// one candidate evaluation, shrink evaluations included; one unit is one
// fuzz run.
type fuzzRun struct {
	seed int64
	next int
	chk  *checker
	warm string
}

func setupFuzz(seed int64, _ string) (runner, error) {
	r := &fuzzRun{seed: seed, chk: newChecker("fuzz", seed)}
	// Budget 1 stops after generation zero: the built-in seed corpus.
	rep, err := explore.Fuzz(explore.Options{Seed: seed, Budget: 1, Workers: 1, Snapshot: true})
	if err != nil {
		return nil, err
	}
	r.warm = fuzzDigest(rep)
	return r, nil
}

// fuzzDigest is the run's coverage fingerprint plus the sorted set of
// finding kinds.
func fuzzDigest(rep *explore.Report) string {
	kinds := map[string]bool{}
	for _, f := range rep.Findings {
		kinds[f.Violation.Kind] = true
	}
	var ks []string
	for k := range kinds {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return rep.Fingerprint + "/" + strings.Join(ks, ",")
}

// toolFault is the finding kind of a candidate whose world panicked: the
// program crashed on its input. Every other kind, exec-error included (a
// schedule whose faults stop the scenario's own setup), is a finding the
// explorer is meant to report.
const toolFault = "tool-fault"

func (r *fuzzRun) unit(s *segment) error {
	op := int64(r.next)
	i := r.next % fuzzInputs
	r.next++
	root := s.spans.start("explore.fuzz", 0, op)
	mark, runs, gen := time.Now(), 0, 0
	opts := explore.Options{Seed: subSeed(r.seed, i), Budget: fuzzBudget, Workers: 1, Snapshot: true,
		Log: func(format string, args ...any) {
			// Generation lines read "gen %d: %d/%d runs, ...".
			if !strings.HasPrefix(format, "gen ") || len(args) < 2 {
				return
			}
			n, ok := args[1].(int)
			if !ok || n <= runs {
				return
			}
			now := time.Now()
			s.opMS = append(s.opMS, float64(now.Sub(mark))/float64(time.Millisecond)/float64(n-runs))
			s.spans.add("explore.generation", root, op, mark, now)
			gen++
			mark, runs = now, n
		}}
	rep, err := explore.Fuzz(opts)
	s.spans.end(root)
	if err != nil {
		return fmt.Errorf("fuzz seed %d: %w", opts.Seed, err)
	}
	ops := rep.Runs + rep.ShrinkRuns
	var bad []string
	if rep.Runs != fuzzBudget || rep.Fingerprint == "" || gen != rep.Generations {
		bad = append(bad, fmt.Sprintf("%d runs over %d generations (%d logged)", rep.Runs, rep.Generations, gen))
	}
	for _, f := range rep.Findings {
		if f.Violation.Kind == toolFault {
			bad = append(bad, fmt.Sprintf("%s finding: %s", f.Violation.Kind, f.Violation.Detail))
		}
	}
	if !r.chk.check(i, fuzzDigest(rep)) {
		bad = append(bad, "digest "+fuzzDigest(rep)+" differs from the expected one")
	}
	s.ops += ops
	if len(bad) > 0 {
		s.failed += ops
		logf("fuzz run %d (seed %d): %s", i, opts.Seed, strings.Join(bad, "; "))
	}
	s.ctr.runs += rep.Runs
	s.ctr.shrinks += rep.ShrinkRuns
	s.ctr.snap.FastRuns += rep.Snapshot.FastRuns
	s.ctr.snap.FreshRuns += rep.Snapshot.FreshRuns
	s.ctr.snap.Fallbacks += rep.Snapshot.Fallbacks
	return nil
}

func (r *fuzzRun) restart()                  { r.next = 0 }
func (r *fuzzRun) warmDigest() string        { return r.warm }
func (r *fuzzRun) digests() ([]string, bool) { return r.chk.digests() }
func (r *fuzzRun) close()                    {}
