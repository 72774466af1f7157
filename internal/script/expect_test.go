package script

import (
	"strings"
	"testing"
)

// The tables in this file are literal expectations for the interpreter:
// each row is a script, evaluated on a fresh interpreter, and the exact
// result, error text, puts output and StepLimitHit it must produce. The
// rows cover flow edges (break/continue/return through eval, procs and
// substitutions), special forms shadowed by procs, argument errors, and
// the step limit landing at every offset of small loops.

// evalWant is one expected outcome of Eval(src) on a fresh interpreter.
type evalWant struct {
	src   string
	steps int // step limit; 0 keeps the default
	res   string
	err   string // error text; "" when Eval succeeds
	out   string // everything written by puts
	hit   bool   // StepLimitHit after the run
}

func checkEval(t *testing.T, w evalWant) {
	t.Helper()
	in := New()
	if w.steps > 0 {
		in.SetStepLimit(w.steps)
	}
	var out strings.Builder
	in.SetOutput(&out)
	res, err := in.Eval(w.src)
	errs := ""
	if err != nil {
		errs = err.Error()
	}
	if res != w.res || errs != w.err || out.String() != w.out || in.StepLimitHit() != w.hit {
		t.Errorf("Eval(%q) steps=%d:\n got: res=%q err=%q out=%q hit=%v\nwant: res=%q err=%q out=%q hit=%v",
			w.src, w.steps, res, errs, out.String(), in.StepLimitHit(), w.res, w.err, w.out, w.hit)
	}
}

func checkEvals(t *testing.T, ws []evalWant) {
	t.Helper()
	for _, w := range ws {
		checkEval(t, w)
	}
}

func TestEngineDiffBasics(t *testing.T) {
	checkEvals(t, []evalWant{
		{src: ``},
		{src: `set x 1`, res: `1`},
		{src: `set x 1; set y 2; expr {$x + $y}`, res: `3`},
		{src: `set x hello; string length $x`, res: `5`},
		{src: `puts [expr {1 + 2 * 3}]`, out: "7\n"},
		{src: `set a 5; if {$a > 3} { puts big } else { puts small }`, out: "big\n"},
		{src: `set a 1; if {$a > 3} { puts big } elseif {$a > 0} { puts mid } else { puts small }`, out: "mid\n"},
		{src: `if {1} then { puts yes }`, out: "yes\n"},
		{src: `set i 0; while {$i < 5} { incr i }; set i`, res: `5`},
		{src: `set s 0; foreach x {1 2 3 4} { set s [expr {$s + $x}] }; set s`, res: `10`},
		{src: `foreach {a b} {1 2 3 4 5} { puts "$a/$b" }`, out: "1/2\n3/4\n5/\n"},
		{src: `foreach x {} { puts never }; puts done`, out: "done\n"},
		{src: `proc add {a b} { expr {$a + $b} }; add 2 3`, res: `5`},
		{src: `proc f {x {y 10}} { expr {$x * $y} }; puts [f 3]; puts [f 3 4]`, out: "30\n12\n"},
		{src: `proc fact {n} { if {$n <= 1} { return 1 }; expr {$n * [fact [expr {$n - 1}]]} }; fact 6`, res: `720`},
		{src: `set x 3; incr x; incr x 10; incr x -2; set x`, res: `12`},
		{src: `set l [list a b c]; llength $l`, res: `3`},
		{src: `set s "a b {c d}"; lindex $s 2`, res: `c d`},
		{src: `catch {undefined_cmd_xyz} msg; set msg`, res: `invalid command name "undefined_cmd_xyz"`},
		{src: `catch {expr {1/0}} msg; set msg`, res: `expr: divide by zero`},
		{src: `set x [catch {break}]; set x`, res: `3`},
		{src: `set x [catch {continue}]; set x`, res: `4`},
		{src: `set x [catch {return ok} v]; list $x $v`, res: `2 ok`},
		{src: `string range "hello world" 0 4`, res: `hello`},
		{src: `format "%d-%s" 42 xyz`, res: `42-xyz`},
		{src: `expr {"abc" eq "abc"}`, res: `1`},
		{src: `expr {3 > 2 ? "yes" : "no"}`, res: `yes`},
		{src: `expr {0 ? [undefined_nope] : 7}`, res: `7`},
		{src: `expr {1 || [undefined_nope]}`, res: `1`},
		{src: `expr {0 && [undefined_nope]}`, res: `0`},
		{src: `set x 2; expr {$x == 2 && $x < 10}`, res: `1`},
		{src: `expr {-(-5)}`, res: `5`},
		{src: `expr {!0}`, res: `1`},
		{src: `expr {~5}`, res: `-6`},
		{src: `expr {7 % 3}`, res: `1`},
		{src: `expr {-7 / 2}`, res: `-4`},
		{src: `expr {-7 % 2}`, res: `1`},
		{src: `expr {1.5 + 2}`, res: `3.5`},
		{src: `expr {abs(-4)}`, res: `4`},
		{src: `expr {max(1, 9, 3)}`, res: `9`},
		{src: `expr {int(3.9)}`, res: `3`},
		{src: `expr 1 + 2`, res: `3`},
		{src: `set n 5; expr $n*2`, res: `10`},
		{src: `eval {set q 9}; set q`, res: `9`},
		{src: `eval set r 11; set r`, res: `11`},
		{src: `set body {set z 42}; eval $body; set z`, res: `42`},
		{src: `unknown_command one two`, err: `invalid command name "unknown_command" (while executing "unknown_command" near line 1)`},
		{src: `set`, err: `wrong # args: should be "set varName ?newValue?" (while executing "set" near line 1)`},
		{src: `set a b c d`, err: `wrong # args: should be "set varName ?newValue?" (while executing "set" near line 1)`},
		{src: `incr`, err: `wrong # args: should be "incr varName ?increment?" (while executing "incr" near line 1)`},
		{src: `incr novar`, res: `1`},
		{src: `set v ""; incr v`, err: `expected integer but got "" (while executing "incr" near line 1)`},
		{src: `set v abc; catch {incr v} m; set m`, res: `expected integer but got "abc"`},
		{src: `incr x notanumber`, err: `expected integer but got "notanumber" (while executing "incr" near line 1)`},
		{src: `while {1} { break }; puts after`, out: "after\n"},
		{src: `set i 0; while {$i < 10} { incr i; if {$i == 5} { break } }; set i`, res: `5`},
		{src: `set i 0; set n 0; while {$i < 10} { incr i; if {$i % 2} { continue }; incr n }; list $i $n`, res: `10 5`},
		{src: `foreach x {1 2 3} { if {$x == 2} { break }; puts $x }`, out: "1\n"},
		{src: `foreach x {1 2 3} { if {$x == 2} { continue }; puts $x }`, out: "1\n3\n"},
		{src: `set out {}; foreach i {1 2} { foreach j {a b} { if {$j eq "b"} { continue }; lappend out $i$j } }; set out`, res: `1a 2a`},
		{src: `break`, err: `invoked "break" outside of a loop`},
		{src: `continue`, err: `invoked "continue" outside of a loop`},
		{src: `return`},
		{src: `return hello`, res: `hello`},
		{src: `proc p {} { return }; p`},
		{src: `proc p {} { return x y }; catch {p} m; set m`, res: `wrong # args: should be "return ?value?"`},
		{src: `puts -nonewline abc; puts def`, out: "abcdef\n"},
		{src: `set x "a\nb"; string length $x`, res: `3`},
		{src: `join {a b c} -`, res: `a-b-c`},
		{src: `split a-b-c -`, res: `a b c`},
		{src: `info exists nope`, res: `0`},
		{src: `set yes 1; info exists yes`, res: `1`},
		{src: `info level`, res: `0`},
		{src: `proc lv {} { info level }; lv`, res: `1`},
		{src: `string index hello 1`, res: `e`},
		{src: `string first ll hello`, res: `2`},
		{src: `append x a; append x b c; set x`, res: `abc`},
		{src: `lappend l 1; lappend l 2 3; set l`, res: `1 2 3`},
	})
}

// TestEngineDiffFlowEdges: break/continue raised from nested eval, proc
// bodies, word expansion and loop conditions, and return from loops.
func TestEngineDiffFlowEdges(t *testing.T) {
	checkEvals(t, []evalWant{
		{src: `set i 0; while {$i < 5} { incr i; eval break }; set i`, res: `1`},
		{src: `set i 0; set n 0; while {$i < 5} { incr i; eval continue; incr n }; list $i $n`, res: `5 0`},
		{src: `proc b {} { break }; set r [catch {foreach x {1 2} { b }} m]; list $r $m`, res: `0 {}`},
		{src: `proc c {} { continue }; set r [catch {while {1} { c }} m]; list $r $m`, err: `step limit 5000000 exceeded`, hit: true},
		{src: `set i 0; catch {while {$i < 3} { incr i; set x [break] }} m; list $i $m`, res: `1 {}`},
		{src: `set i 0; catch {while {$i < 3} { incr i; puts [continue] }} m; list $i $m`, res: `3 {}`},
		{src: `proc f {} { foreach x {1 2 3} { if {$x == 2} { return $x } }; return none }; f`, res: `2`},
		{src: `proc f {} { set i 0; while {1} { incr i; if {$i == 3} { return $i } } }; f`, res: `3`},
		{src: `proc g {} { break }; set r [catch {while {[g]} { puts body }} m]; list $r $m`, res: `3 {}`},
		{src: `set out {}; foreach i {1 2} { set j 0; while {1} { incr j; if {$j == 2} { break } }; lappend out $i:$j }; set out`, res: `1:2 2:2`},
		{src: `set out {}; foreach i {1 2 3 4} { if {$i == 2} { continue }; lappend out $i }; set out`, res: `1 3 4`},
		{src: `catch {foreach x [break] { puts $x }} m; set m`},
		{src: `proc f {} { return [expr {6 * 7}] }; f`, res: `42`},
	})
}

// TestEngineDiffShadowing: procs that redefine special forms, including
// one defined inside a loop that is already running.
func TestEngineDiffShadowing(t *testing.T) {
	checkEvals(t, []evalWant{
		{src: `proc if {args} { return shadowed }; if {1} { puts never }`, res: `shadowed`},
		{src: "set i 0\nwhile {$i < 3} { incr i }\nproc while {args} { return w2 }\nset r [while {$i < 99} { incr i }]\nlist $i $r", res: `3 w2`},
		{src: `proc incr {v} { return fake }; set x 1; set r [incr x]; list $x $r`, res: `1 fake`},
		{src: `proc set {args} { return shadow-set }; set x 5`, res: `shadow-set`},
		{src: `proc foreach {args} { return fe }; foreach x {1 2} { puts $x }`, res: `fe`},
		{src: `proc expr {args} { return ee }; expr {1 + 1}`, res: `ee`},
		{src: `proc break {} { return bb }; set i 0; while {$i < 2} { incr i; break }; set i`, res: `2`},
		{src: `proc return {args} { puts r }; proc f {} { return 5 }; f`, out: "r\n"},
		{src: "set out {}\nforeach i {1 2 3} {\n  if {$i == 2} { proc if {args} { return late } }\n  lappend out [if {1} { concat x$i }]\n}\nset out", res: `x1 late late`},
	})
}

func TestEngineDiffErrors(t *testing.T) {
	checkEvals(t, []evalWant{
		{src: `if`, err: `wrong # args: should be "if cond ?then? body ?elseif cond body ...? ?else body?" (while executing "if" near line 1)`},
		{src: `if {1}`, err: `wrong # args: no script following "1" argument (while executing "if" near line 1)`},
		{src: `if {1} {puts a} trailing`, out: "a\n"},
		{src: `if {1} {puts a} else`, out: "a\n"},
		{src: `if {0} {puts a} elseif`, err: `wrong # args: should be "if cond ?then? body ?elseif cond body ...? ?else body?" (while executing "if" near line 1)`},
		{src: `if {bad expr} { puts x }`, err: `expr: unknown operand "bad" (while executing "if" near line 1)`},
		{src: `while`, err: `wrong # args: should be "while test command" (while executing "while" near line 1)`},
		{src: `while {1}`, err: `wrong # args: should be "while test command" (while executing "while" near line 1)`},
		{src: `while {bad expr} { puts x }`, err: `expr: unknown operand "bad" (while executing "while" near line 1)`},
		{src: `while {notbool} { puts x }`, err: `expr: unknown operand "notbool" (while executing "while" near line 1)`},
		{src: `foreach`, err: `wrong # args: should be "foreach varList list command" (while executing "foreach" near line 1)`},
		{src: `foreach x`, err: `wrong # args: should be "foreach varList list command" (while executing "foreach" near line 1)`},
		{src: `foreach x {1 2}`, err: `wrong # args: should be "foreach varList list command" (while executing "foreach" near line 1)`},
		{src: `foreach {} {1 2} { puts y }`, err: `foreach: empty variable list (while executing "foreach" near line 1)`},
		{src: `foreach x {bad {list} { puts y }`, err: `script:1: missing close-brace`},
		{src: `foreach x "a { b" { puts $x }`, err: `unmatched open brace in list (while executing "foreach" near line 1)`},
		{src: `expr`, err: `wrong # args: should be "expr arg ?arg ...?" (while executing "expr" near line 1)`},
		{src: `expr {$undefined_var}`, err: `can't read "undefined_var": no such variable (while executing "expr" near line 1)`},
		{src: `expr {1 +}`, err: `expr: unexpected end of expression (while executing "expr" near line 1)`},
		{src: `expr {foo(1)}`, err: `expr: unknown function "foo" (while executing "expr" near line 1)`},
		{src: `puts $undefined_var`, err: `can't read "undefined_var": no such variable`},
		{src: `set x $undefined_var`, err: `can't read "undefined_var": no such variable`},
		{src: `concat a$missing b`, err: `can't read "missing": no such variable`},
		{src: `string length`, err: `wrong # args: should be "string option arg ?arg ...?" (while executing "string" near line 1)`},
		{src: `llength {a { b}`, err: `script:1: missing close-brace`},
		{src: `proc`, err: `wrong # args: should be "proc name args body" (while executing "proc" near line 1)`},
		{src: `proc p`, err: `wrong # args: should be "proc name args body" (while executing "proc" near line 1)`},
		{src: `proc p {a} {body}; p`, err: `wrong # args: should be "p a" (while executing "p" near line 1)`},
		{src: `proc p {a} {body}; p 1 2`, err: `wrong # args: should be "p a" (while executing "p" near line 1)`},
		{src: `proc p {{a}} { set a }; catch {p} m; set m`, res: `wrong # args: should be "p a"`},
		{src: `[}`, err: `script:1: missing close-bracket`},
		{src: `set x {unclosed`, err: `script:1: missing close-brace`},
		{src: `"unclosed`, err: `script:1: missing closing quote`},
	})
}

// TestEngineDiffStepLimit: runaway loops and recursion under small step
// limits.
func TestEngineDiffStepLimit(t *testing.T) {
	checkEvals(t, []evalWant{
		{src: `while {1} { set x 1 }`, steps: 1, err: `step limit 1 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 2, err: `step limit 2 exceeded`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 3, err: `step limit 3 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 7, err: `step limit 7 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 25, err: `step limit 25 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 100, err: `step limit 100 exceeded`, hit: true},
		{src: `while {1} {}`, steps: 1, err: `step limit 1 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `while {1} {}`, steps: 2, err: `step limit 2 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `while {1} {}`, steps: 3, err: `step limit 3 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `while {1} {}`, steps: 7, err: `step limit 7 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `while {1} {}`, steps: 25, err: `step limit 25 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `while {1} {}`, steps: 100, err: `step limit 100 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `proc f {} { f }; f`, steps: 1, err: `step limit 1 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 2, err: `step limit 2 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 3, err: `step limit 3 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 7, err: `step limit 7 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 25, err: `step limit 25 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 100, err: `step limit 100 exceeded`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 1, err: `step limit 1 exceeded`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 2, err: `step limit 2 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 3, err: `step limit 3 exceeded`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 7, err: `step limit 7 exceeded`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 25, err: `step limit 25 exceeded`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 100, err: `step limit 100 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `foreach x {1 2 3 4 5 6 7 8 9 10} { foreach y {1 2 3 4 5 6 7 8 9 10} { set z $x$y } }`, steps: 1, err: `step limit 1 exceeded`, hit: true},
		{src: `foreach x {1 2 3 4 5 6 7 8 9 10} { foreach y {1 2 3 4 5 6 7 8 9 10} { set z $x$y } }`, steps: 2, err: `step limit 2 exceeded`, hit: true},
		{src: `foreach x {1 2 3 4 5 6 7 8 9 10} { foreach y {1 2 3 4 5 6 7 8 9 10} { set z $x$y } }`, steps: 3, err: `step limit 3 exceeded`, hit: true},
		{src: `foreach x {1 2 3 4 5 6 7 8 9 10} { foreach y {1 2 3 4 5 6 7 8 9 10} { set z $x$y } }`, steps: 7, err: `step limit 7 exceeded`, hit: true},
		{src: `foreach x {1 2 3 4 5 6 7 8 9 10} { foreach y {1 2 3 4 5 6 7 8 9 10} { set z $x$y } }`, steps: 25, err: `step limit 25 exceeded`, hit: true},
		{src: `foreach x {1 2 3 4 5 6 7 8 9 10} { foreach y {1 2 3 4 5 6 7 8 9 10} { set z $x$y } }`, steps: 100, err: `step limit 100 exceeded`, hit: true},
	})
}

// TestOptimizeDiffFusionBoundaries: shadowed special forms, break and
// continue in nested loop bodies, eq/ne against constants with numeric
// normalization (007 eq 7 is true in expr), unset reads and errors inside
// conditions, elseif chains, and `info exists` across frames, unset and
// shadowing.
func TestOptimizeDiffFusionBoundaries(t *testing.T) {
	checkEvals(t, []evalWant{
		{src: `proc if {args} { return shadowed }; if {1} { puts never }`, res: `shadowed`},
		{src: `set x 1; proc incr {v} { return fake }; set r [incr x]; list $x $r`, res: `1 fake`},
		{src: "set i 0\nforeach k {1 2 3} {\n  if {$k == 2} { proc if {args} { return late } }\n  if {1} { incr i }\n}\nlist $i", res: `1`},
		{src: `proc set {args} { return ss }; if {1} { set y 0 }`, res: `ss`},
		{src: `set i 0; while {$i < 5} { incr i; if {$i == 3} { break } }; set i`, res: `3`},
		{src: `set n 0; foreach x {1 2 3 4} { if {$x == 2} { continue }; incr n }; set n`, res: `3`},
		{src: `set out {}; foreach i {1 2} { set j 0; while {1} { incr j; if {$j == 2} { break } }; lappend out $i:$j }; set out`, res: `1:2 2:2`},
		{src: `set i 0; while {$i < 5} { incr i; eval break }; set i`, res: `1`},
		{src: `set i 0; set n 0; while {$i < 5} { incr i; eval continue; incr n }; list $i $n`, res: `5 0`},
		{src: `proc t {} { return DATA }; if {[t] eq "DATA"} { puts hit } else { puts miss }`, out: "hit\n"},
		{src: `proc t {} { return DATA }; if {[t] ne "DATA"} { puts hit } else { puts miss }`, out: "miss\n"},
		{src: `proc t {} { return 007 }; if {[t] eq "7"} { puts hit } else { puts miss }`, out: "hit\n"},
		{src: `proc t {} { return 7 }; if {[t] eq "007"} { puts hit } else { puts miss }`, out: "miss\n"},
		{src: `proc t {} { return 7.0 }; if {[t] eq "7"} { puts hit } else { puts miss }`, out: "miss\n"},
		{src: `proc t {} { return " 7 " }; if {[t] eq "7"} { puts hit } else { puts miss }`, out: "hit\n"},
		{src: `proc t {} { return "" }; if {[t] eq ""} { puts hit } else { puts miss }`, out: "hit\n"},
		{src: `set dropped 0; if {$dropped < 3} { incr dropped }; set dropped`, res: `1`},
		{src: `set v abc; catch {if {$v} { puts x }} m; set m`, res: `expected boolean value but got "abc"`},
		{src: `set v 0x10; if {$v == 16} { puts hex }`, out: "hex\n"},
		{src: `if {$never_set < 3} { puts x }`, err: `can't read "never_set": no such variable (while executing "if" near line 1)`},
		{src: `catch {if {$never_set < 3} { puts x }} m; set m`, res: `can't read "never_set": no such variable`},
		{src: `proc boom {} { error kaboom }; catch {if {[boom] eq "x"} { puts y }} m; set m`, res: `kaboom`},
		{src: `catch {string} m; set m`, res: `wrong # args: should be "string option arg ?arg ...?"`},
		{src: `set a 1; if {$a > 3} { puts big } elseif {$a > 0} { puts mid } else { puts small }`, out: "mid\n"},
		{src: `set a -1; if {$a > 3} { puts big } elseif {$a > 0} { puts mid } else { puts small }`, out: "small\n"},
		{src: `set a 1; list [info exists a] [info exists nope]`, res: `1 0`},
		{src: `if {![info exists dropped]} { set dropped 0 }; incr dropped; set dropped`, res: `1`},
		{src: `set a 1; unset a; info exists a`, res: `0`},
		{src: `proc p {} { set x 1; info exists x }; list [p] [info exists x]`, res: `1 0`},
		{src: `proc p {} { global g; info exists g }; set g 5; list [p] [info exists g]`, res: `1 1`},
		{src: `proc p {} { info exists q }; set q 1; p`, res: `0`},
		{src: `set a 1; set r [info exists a]; proc info {args} { return shadow }; list $r [info exists a]`, res: `1 shadow`},
	})
}

// TestOptimizeDiffStepLimits lands the step limit on every offset of a few
// loop shapes: the error text, output and StepLimitHit must match step for
// step.
func TestOptimizeDiffStepLimits(t *testing.T) {
	checkEvals(t, []evalWant{
		{src: `while {1} { set x 1 }`, steps: 1, err: `step limit 1 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 2, err: `step limit 2 exceeded`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 3, err: `step limit 3 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 4, err: `step limit 4 exceeded`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 5, err: `step limit 5 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 6, err: `step limit 6 exceeded`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 7, err: `step limit 7 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 8, err: `step limit 8 exceeded`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 9, err: `step limit 9 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 10, err: `step limit 10 exceeded`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 11, err: `step limit 11 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 12, err: `step limit 12 exceeded`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 13, err: `step limit 13 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 14, err: `step limit 14 exceeded`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 15, err: `step limit 15 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 16, err: `step limit 16 exceeded`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 17, err: `step limit 17 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 18, err: `step limit 18 exceeded`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 19, err: `step limit 19 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 20, err: `step limit 20 exceeded`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 21, err: `step limit 21 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 22, err: `step limit 22 exceeded`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 23, err: `step limit 23 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 24, err: `step limit 24 exceeded`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 25, err: `step limit 25 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 26, err: `step limit 26 exceeded`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 27, err: `step limit 27 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 28, err: `step limit 28 exceeded`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 29, err: `step limit 29 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 30, err: `step limit 30 exceeded`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 50, err: `step limit 50 exceeded`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 100, err: `step limit 100 exceeded`, hit: true},
		{src: `while {1} { set x 1 }`, steps: 1000, err: `step limit 1000 exceeded`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 1, err: `step limit 1 exceeded`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 2, err: `step limit 2 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 3, err: `step limit 3 exceeded`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 4, err: `step limit 4 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 5, err: `step limit 5 exceeded`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 6, err: `step limit 6 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 7, err: `step limit 7 exceeded`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 8, err: `step limit 8 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 9, err: `step limit 9 exceeded`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 10, err: `step limit 10 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 11, err: `step limit 11 exceeded`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 12, err: `step limit 12 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 13, err: `step limit 13 exceeded`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 14, err: `step limit 14 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 15, err: `step limit 15 exceeded`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 16, err: `step limit 16 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 17, err: `step limit 17 exceeded`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 18, err: `step limit 18 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 19, err: `step limit 19 exceeded`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 20, err: `step limit 20 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 21, err: `step limit 21 exceeded`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 22, err: `step limit 22 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 23, err: `step limit 23 exceeded`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 24, err: `step limit 24 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 25, err: `step limit 25 exceeded`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 26, err: `step limit 26 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 27, err: `step limit 27 exceeded`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 28, err: `step limit 28 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 29, err: `step limit 29 exceeded`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 30, err: `step limit 30 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 50, err: `step limit 50 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 100, err: `step limit 100 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set i 0; while {$i < 100000} { incr i }`, steps: 1000, err: `step limit 1000 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 1, err: `step limit 1 exceeded`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 2, err: `step limit 2 exceeded`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 3, err: `step limit 3 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 4, err: `step limit 4 exceeded`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 5, err: `step limit 5 exceeded`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 6, err: `step limit 6 exceeded`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 7, err: `step limit 7 exceeded`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 8, err: `step limit 8 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 9, err: `step limit 9 exceeded`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 10, err: `step limit 10 exceeded`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 11, err: `step limit 11 exceeded`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 12, err: `step limit 12 exceeded`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 13, err: `step limit 13 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 14, err: `step limit 14 exceeded`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 15, err: `step limit 15 exceeded`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 16, err: `step limit 16 exceeded`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 17, err: `step limit 17 exceeded`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 18, err: `step limit 18 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 19, err: `step limit 19 exceeded`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 20, err: `step limit 20 exceeded`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 21, err: `step limit 21 exceeded`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 22, err: `step limit 22 exceeded`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 23, err: `step limit 23 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 24, err: `step limit 24 exceeded`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 25, err: `step limit 25 exceeded`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 26, err: `step limit 26 exceeded`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 27, err: `step limit 27 exceeded`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 28, err: `step limit 28 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 29, err: `step limit 29 exceeded`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 30, err: `step limit 30 exceeded`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 50, err: `step limit 50 exceeded`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 100, err: `step limit 100 exceeded`, hit: true},
		{src: `proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`, steps: 1000, err: `step limit 1000 exceeded`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 1, err: `step limit 1 exceeded`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 2, err: `step limit 2 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 3, err: `step limit 3 exceeded`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 4, err: `step limit 4 exceeded`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 5, err: `step limit 5 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 6, err: `step limit 6 exceeded`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 7, err: `step limit 7 exceeded`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 8, err: `step limit 8 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 9, err: `step limit 9 exceeded`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 10, err: `step limit 10 exceeded`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 11, err: `step limit 11 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 12, err: `step limit 12 exceeded`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 13, err: `step limit 13 exceeded`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 14, err: `step limit 14 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 15, err: `step limit 15 exceeded`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 16, err: `step limit 16 exceeded`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 17, err: `step limit 17 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 18, err: `step limit 18 exceeded`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 19, err: `step limit 19 exceeded`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 20, err: `step limit 20 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 21, err: `step limit 21 exceeded`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 22, err: `step limit 22 exceeded`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 23, err: `step limit 23 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 24, err: `step limit 24 exceeded`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 25, err: `step limit 25 exceeded`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 26, err: `step limit 26 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 27, err: `step limit 27 exceeded`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 28, err: `step limit 28 exceeded`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 29, err: `step limit 29 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 30, err: `step limit 30 exceeded`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 50, err: `step limit 50 exceeded in while loop (while executing "while" near line 1)`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 100, err: `step limit 100 exceeded`, hit: true},
		{src: `set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`, steps: 1000, err: `step limit 1000 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 1, err: `step limit 1 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 2, err: `step limit 2 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 3, err: `step limit 3 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 4, err: `step limit 4 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 5, err: `step limit 5 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 6, err: `step limit 6 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 7, err: `step limit 7 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 8, err: `step limit 8 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 9, err: `step limit 9 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 10, err: `step limit 10 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 11, err: `step limit 11 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 12, err: `step limit 12 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 13, err: `step limit 13 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 14, err: `step limit 14 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 15, err: `step limit 15 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 16, err: `step limit 16 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 17, err: `step limit 17 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 18, err: `step limit 18 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 19, err: `step limit 19 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 20, err: `step limit 20 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 21, err: `step limit 21 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 22, err: `step limit 22 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 23, err: `step limit 23 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 24, err: `step limit 24 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 25, err: `step limit 25 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 26, err: `step limit 26 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 27, err: `step limit 27 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 28, err: `step limit 28 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 29, err: `step limit 29 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 30, err: `step limit 30 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 50, err: `step limit 50 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 100, err: `step limit 100 exceeded`, hit: true},
		{src: `proc f {} { f }; f`, steps: 1000, err: `too many nested procedure calls (while executing "f" near line 1)`},
	})
}

// TestEngineDiffStateful: a sequence of Evals on one interpreter, where
// the parse caches, globals and procs persist between calls.
func TestEngineDiffStateful(t *testing.T) {
	in := New()
	for _, w := range []evalWant{
		{src: `set count 0`, res: `0`},
		{src: `proc bump {} { global count; incr count }`},
		{src: `bump; bump; bump`, res: `3`},
		{src: `set count`, res: `3`},
		{src: `proc bump {} { global count; incr count 10 }`},
		{src: `bump`, res: `13`},
		{src: `set count`, res: `13`},
		{src: `unset count`},
		{src: `catch {set count} m; set m`, res: `can't read "count": no such variable`},
	} {
		res, err := in.Eval(w.src)
		if err != nil || res != w.res {
			t.Fatalf("Eval(%q) = %q, %v; want %q", w.src, res, err, w.res)
		}
	}
}

// TestEngineDiffRegisterReplace: replacing or removing a host command
// takes effect on the next evaluation of the same source.
func TestEngineDiffRegisterReplace(t *testing.T) {
	in := New()
	in.Register("probe", func(i *Interp, args []string) (string, error) { return "v1", nil })
	if r, err := in.Eval(`probe`); err != nil || r != "v1" {
		t.Fatalf("first call got %q, %v", r, err)
	}
	in.Register("probe", func(i *Interp, args []string) (string, error) { return "v2", nil })
	if r, err := in.Eval(`probe`); err != nil || r != "v2" {
		t.Fatalf("after replace got %q, %v", r, err)
	}
	in.Unregister("probe")
	if _, err := in.Eval(`probe`); err == nil || !strings.Contains(err.Error(), "invalid command name") {
		t.Fatalf("after unregister got err=%v", err)
	}
}

// TestOptimizeRecompileOnDefine: a proc defined after a parsed script
// first ran shadows the host command of the same name on the script's
// next run; nothing about the first run is remembered.
func TestOptimizeRecompileOnDefine(t *testing.T) {
	in := New()
	in.Register("probe", func(*Interp, []string) (string, error) { return "host", nil })
	s := MustParse(`if {[probe] eq "host"} { set r builtin } else { set r replaced }; set r`)
	if res, err := in.Run(s); err != nil || res != "builtin" {
		t.Fatalf("host probe run: %q, %v", res, err)
	}
	if _, err := in.Eval(`proc probe {} { return nope }`); err != nil {
		t.Fatalf("proc define: %v", err)
	}
	if res, err := in.Run(s); err != nil || res != "replaced" {
		t.Fatalf("after proc shadow: %q, %v", res, err)
	}
}
