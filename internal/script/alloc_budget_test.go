package script

import (
	"strings"
	"testing"
)

// TestCompiledEvalAllocBudget pins the steady-state allocations of running
// an already-parsed script. The filter body below is the BenchmarkInterpEval
// script: command substitution, an expr guard with &&, and incr
// bookkeeping. After warmup the parse and expr caches hit, word buffers
// come from the interpreter's pool, and small counter values are interned.
//
// The race detector inflates allocation counts; enforce in normal builds.
func TestCompiledEvalAllocBudget(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	const budget = 2

	in := New()
	in.Register("msg_type", func(_ *Interp, args []string) (string, error) {
		return "DATA", nil
	})
	s := MustParse(`
		set type [msg_type cur_msg]
		if {$type eq "DATA" && [string length $type] > 0} { incr seen }
	`)
	for i := 0; i < 16; i++ {
		if _, err := in.Run(s); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := in.Run(s); err != nil {
			t.Fatal(err)
		}
	})
	if avg > budget {
		t.Fatalf("eval steady state allocates %.1f/op, budget is %d", avg, budget)
	}
}

// TestCompiledEvalNoAllocControlFlow pins a pure control-flow loop — no
// host command, no string building — which must run allocation-free once
// its body and condition are cached.
func TestCompiledEvalNoAllocControlFlow(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	in := New()
	s := MustParse(`set i 0
while {$i < 8} { incr i }`)
	for i := 0; i < 4; i++ {
		if _, err := in.Run(s); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := in.Run(s); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("control-flow loop allocates %.1f/op, want 0", avg)
	}
}

// TestTreeEngineStillWorks guards the interpreter end to end on a loop
// that mixes foreach, expr, command substitution and puts output.
func TestTreeEngineStillWorks(t *testing.T) {
	in := New()
	var out strings.Builder
	in.SetOutput(&out)
	r, err := in.Eval(`set s 0; foreach x {1 2 3} { set s [expr {$s + $x}] }; puts $s; set s`)
	if err != nil {
		t.Fatal(err)
	}
	if r != "6" || out.String() != "6\n" {
		t.Fatalf("r=%q out=%q", r, out.String())
	}
}
