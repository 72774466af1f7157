package fleet

import (
	"context"
	"fmt"

	"pfi/internal/explore"
	"pfi/internal/tcp"
)

// NewFuzz builds a coordinator that shards fuzz generation batches over
// the fleet. profile names the default vendor profile for schedules that
// do not pin one ("" = SunOS 4.1.3); hw is the deterministic isolation
// policy each candidate evaluation runs under on the worker.
func NewFuzz(profile string, hw WireHarden, cfg Config) *Coordinator {
	return NewCoordinator(Job{Kind: JobFuzz, Profile: profile, Harden: hw}, cfg)
}

// EvalBatch shards one generation batch over the fleet and merges the
// outcomes back in candidate order — the explore.Options.EvalBatch hook.
// Each outcome is a pure function of its schedule, so the merged slice
// is identical to in-process evaluation regardless of which worker
// evaluated what, in what order.
func (c *Coordinator) EvalBatch(ctx context.Context, batch []explore.Schedule) ([]*explore.Outcome, error) {
	if c.job.Kind != JobFuzz {
		return nil, fmt.Errorf("fleet: EvalBatch on a %s coordinator", c.job.Kind)
	}
	r := c.newRound(len(batch), func(sp Span) []explore.Schedule {
		return append([]explore.Schedule(nil), batch[sp.Lo:sp.Hi]...)
	})
	results, err := c.RunRound(ctx, r)
	if err != nil {
		return nil, err
	}
	outs := make([]*explore.Outcome, len(batch))
	for _, res := range results {
		if res == nil {
			continue
		}
		for _, wo := range res.Outcomes {
			o, oerr := outcomeFromWire(wo)
			if oerr != nil {
				return nil, oerr // validated at merge time; reaching this is a coordinator bug
			}
			outs[wo.Index] = o
		}
	}
	for i, o := range outs {
		if o == nil {
			return nil, fmt.Errorf("fleet: candidate %d never evaluated", i)
		}
	}
	return outs, nil
}

// RunFuzz runs the coverage-guided exploration loop with candidate
// evaluation sharded over the fleet. Everything sequential stays on the
// coordinator — candidate derivation, corpus evolution, shrinking, repro
// emission — so the report (fingerprint, corpus, findings, emitted
// bytes) is bit-identical to single-process explore.Fuzz for the same
// seed. opts.Profile and opts.Harden are overridden from the job so
// coordinator-side shrink evaluations and worker-side batch evaluations
// resolve the same vendor profile and isolation policy; only
// opts.Harden.ReproDir, where the coordinator writes quarantine repros,
// is kept.
//
// Crash safety rides on opts.Journal: because derivation, corpus
// evolution, and generation boundaries all live here on the
// coordinator, explore's own generation-boundary journaling makes the
// fleet run resumable with no extra wire traffic — a restarted
// coordinator skips the journaled generations and re-dispatches only
// the interrupted one. The coordinator additionally stamps its epoch
// into the journal so re-adopted workers can be told apart.
func (c *Coordinator) RunFuzz(opts explore.Options) (*explore.Report, error) {
	if c.job.Kind != JobFuzz {
		return nil, fmt.Errorf("fleet: RunFuzz on a %s coordinator", c.job.Kind)
	}
	prof, err := tcp.ProfileByName(c.job.Profile)
	if err != nil {
		return nil, err
	}
	if opts.Journal != nil {
		if err := c.adoptJournal(opts.Journal); err != nil {
			return nil, err
		}
	}
	opts.Profile = prof
	hc := c.job.Harden.Config()
	hc.ReproDir = opts.Harden.ReproDir
	opts.Harden = hc
	opts.EvalBatch = c.EvalBatch
	return explore.Fuzz(opts)
}

// outcomeFromWire rebuilds the deterministic projection of an outcome:
// schedule, coverage, violations. Result and Source stay nil — the fuzz
// loop's admit/handle path never reads them, and shrinking re-evaluates
// locally.
func outcomeFromWire(w WireOutcome) (*explore.Outcome, error) {
	cov, err := covFromWire(w.Cov)
	if err != nil {
		return nil, err
	}
	return &explore.Outcome{Schedule: w.Schedule, Cov: cov, Violations: w.Violations}, nil
}
