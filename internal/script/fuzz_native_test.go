package script

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seedCorpus feeds f with the adversarial inputs above, a spread of
// well-formed scripts, and — when available — the real conformance
// scenarios, which are the richest scripts in the tree.
func seedCorpus(f *testing.F) {
	seeds := []string{
		"",
		"set x 1",
		"set x 1; incr x; set x",
		`if {$x > 3} { set y 1 } else { set y 2 }`,
		`while {$i < 10} { incr i }`,
		`foreach x {1 2 3} { incr s $x }`,
		`proc double {n} { expr {$n * 2} }; double 21`,
		`set l {a b {c d} e}; foreach x $l { set last $x }`,
		`expr {(1 + 2) * 3 == 9 && "a" eq "a"}`,
		`expr {7 % 3 + 0x10 - 1e2}`,
		"# comment\nset x 1 ;# trailing\n",
		`set msg "interp \[nested\] $x"`,
		"if {![info exists count]} { set count 0 }\nincr count\nif {$count > 30} { xDrop cur_msg }",
		`if {[msg_type cur_msg] eq "ACK"} { xDelay cur_msg 2000 }`,
		"{", "}", "[", "]", `"`, "$", "${", "\\", "[[[[[[[[",
		"expr {", "expr 1+", "expr 0x", "expr $",
		"\x00", "\xff\xfe\xfd",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// The checked-in .pfi scenarios double as corpus entries: they exercise
	// nesting, expr, loops, and every quoting form the language supports.
	paths, _ := filepath.Glob("../conformance/testdata/*.pfi")
	for _, p := range paths {
		if src, err := os.ReadFile(p); err == nil {
			f.Add(string(src))
		}
	}
}

// FuzzParse: Parse must never panic, whatever the bytes. Run with
//
//	go test ./internal/script -fuzz FuzzParse
func FuzzParse(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if err != nil {
			return
		}
		if s == nil {
			t.Fatalf("Parse(%q) returned nil script and nil error", src)
		}
	})
}

// FuzzEval: evaluation of arbitrary input must neither panic nor run away —
// the step limit has to bound any loop the fuzzer can synthesize.
func FuzzEval(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, src string) {
		in := New()
		in.SetStepLimit(50_000)
		_, _ = in.Eval(src)
	})
}

// FuzzCompiledParity: a script parsed once and run (the filter path) and
// the same source evaluated through the parse and expr caches must agree
// byte for byte on result, error text and puts output. The cached source
// is evaluated twice on one interpreter, with its state rolled back in
// between, so the second run takes every body and condition from a warm
// cache.
func FuzzCompiledParity(f *testing.F) {
	seedCorpus(f)
	f.Add(`set i 0; while {$i < 5} { incr i; eval break }`)
	f.Add(`proc if {args} { return shadowed }; if {1} { puts never }`)
	f.Add(`foreach {a b} {1 2 3} { puts $a$b }`)
	f.Add(`expr {1 ? [concat a] : $nope}`)
	f.Fuzz(func(t *testing.T, src string) {
		type outcome struct{ res, err, out string }
		capture := func(in *Interp, run func() (string, error)) outcome {
			var b strings.Builder
			in.SetOutput(&b)
			r, err := run()
			if err != nil {
				return outcome{r, err.Error(), b.String()}
			}
			return outcome{r, "", b.String()}
		}
		parsed := New()
		parsed.SetStepLimit(20000)
		pre := capture(parsed, func() (string, error) {
			s, err := Parse(src)
			if err != nil {
				return "", err
			}
			return parsed.Run(s)
		})
		in := New()
		in.SetStepLimit(20000)
		fresh := in.SnapshotState()
		cold := capture(in, func() (string, error) { return in.Eval(src) })
		in.RestoreState(fresh)
		warm := capture(in, func() (string, error) { return in.Eval(src) })
		if pre != cold || cold != warm {
			t.Fatalf("divergence on %q:\n parsed: %+v\n   cold: %+v\n   warm: %+v", src, pre, cold, warm)
		}
	})
}

// FuzzEvalExpr targets the expression sub-language on its own.
func FuzzEvalExpr(f *testing.F) {
	for _, s := range []string{
		"1", "1+2*3", "(1)", "!0", `"a" eq "a"`, "1 && 0 || 1",
		"0x10 % 7", "1e3 - 1.5", "$x + $y", "[llength {a b}] == 2",
		"((((", "1+", "0x", "$", "~", "1 <=", `"unterminated`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		in := New()
		in.SetStepLimit(50_000)
		_, _ = in.EvalExpr(src)
	})
}
