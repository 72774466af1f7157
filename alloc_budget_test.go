package pfi

import (
	"testing"

	"pfi/internal/conformance"
	"pfi/internal/core"
	"pfi/internal/harden"
	"pfi/internal/message"
	"pfi/internal/simtime"
	"pfi/internal/stack"
)

// TestFilterProcessAllocBudget pins the steady-state allocation count of
// the per-message filter path so regressions fail `make check` instead of
// silently eroding campaign throughput. The budget matches the number
// recorded in BENCH_script.json; raise it only with a bench entry
// explaining why.
//
// The race detector instruments allocations, so the budget is only
// meaningful (and only enforced) in normal builds.
func TestFilterProcessAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	const budget = 0 // the per-message hot path must stay allocation-free

	env := &stack.Env{Sched: simtime.NewScheduler(), Node: "alloc"}
	l := core.NewLayer(env, core.WithStub(benchStub{}))
	stk := stack.New(env, l)
	stk.OnTransmit(func(m *message.Message) error { return nil })
	if err := l.SetSendScript(`if {[msg_type cur_msg] eq "DATA"} {
	if {![info exists dropped]} { set dropped 0 }
	if {$dropped < 3} {
		incr dropped
		xDrop cur_msg
	}
}
`); err != nil {
		t.Fatal(err)
	}
	m := message.NewString("payload-0123456789")
	// Warm up: first sends fill the parse caches and the word-buffer pool.
	for i := 0; i < 16; i++ {
		if err := stk.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := stk.Send(m); err != nil {
			t.Fatal(err)
		}
	})
	if avg > budget {
		t.Fatalf("FilterProcess steady state allocates %.1f/op, budget is %d", avg, budget)
	}
}

// TestWorldForkAllocBudget pins the allocation count of one snapshot-forked
// fuzzing iteration (restore the captured world, run the mutated suffix,
// package the Result). The point of the fork path is that its cost scales
// with the suffix, not the prefix — a ballooning per-fork allocation count
// would quietly hand the prefix work back. The budget tracks the number
// recorded in BENCH_snapshot.json with headroom for runtime variance; raise
// it only with a bench entry explaining why.
func TestWorldForkAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	const budget = 256 // ISSUE: fork+suffix must stay O(suffix), not O(prefix)

	sess, err := conformance.NewSession(forkPrefix, conformance.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: first forks grow interpreter and trace buffers.
	for i := 0; i < 4; i++ {
		if r, ok := sess.Run("alloc-warm", forkSuffix); !ok || r.Outcome != harden.Pass {
			t.Fatalf("warm-up fork not clean: ok=%v", ok)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		if r, ok := sess.Run("alloc-fork", forkSuffix); !ok || r.Outcome != harden.Pass {
			t.Fatalf("fork not clean: ok=%v", ok)
		}
	})
	if avg > budget {
		t.Fatalf("WorldFork steady state allocates %.0f/op, budget is %d", avg, budget)
	}
}
