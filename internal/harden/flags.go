package harden

import "flag"

// Flags registers the standard isolation knobs on fs and returns the
// Config they populate. All CLIs (pficampaign, pfitest, pfifuzz) share
// this spelling so a budget learned on one tool transfers to the rest.
func Flags(fs *flag.FlagSet) *Config {
	cfg := &Config{}
	fs.DurationVar(&cfg.Timeout, "run-timeout", 0,
		"per-run wall-clock deadline, e.g. 30s (0: none; nondeterministic across machines)")
	fs.IntVar(&cfg.StallSteps, "stall-steps", 0,
		"sim-steps without trace progress before a livelock verdict (0: detector off)")
	fs.IntVar(&cfg.Budget.TraceEntries, "budget-trace", 0,
		"max trace entries per run (0: unlimited)")
	fs.IntVar(&cfg.Budget.ScriptSteps, "budget-steps", 0,
		"max scenario-interpreter steps per run (0: runner default)")
	fs.IntVar(&cfg.Budget.InjectedMsgs, "budget-inject", 0,
		"max injected messages per run (0: unlimited)")
	fs.IntVar(&cfg.Budget.Timers, "budget-timers", 0,
		"max freshly scheduled timers per run (0: unlimited)")
	fs.BoolVar(&cfg.Retry, "retry", true,
		"retry a contained failure once to classify deterministic vs. flaky")
	fs.StringVar(&cfg.ReproDir, "quarantine", "",
		"directory for .pfi repros of deterministic contained failures")
	return cfg
}
