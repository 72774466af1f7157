package script

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"strings"
)

// Command is a host (Go-native) command callable from scripts — the
// equivalent of a C-coded Tcl extension in the original PFI tool. args
// excludes the command name itself. The returned string is the command's
// result (Tcl semantics: every command returns a string).
type Command func(in *Interp, args []string) (string, error)

// flow carries Tcl's non-error result codes (return/break/continue) through
// Go's error plumbing. It never escapes Eval's public API.
type flow struct {
	code  flowCode
	value string
}

type flowCode int

const (
	flowReturn flowCode = iota + 1
	flowBreak
	flowContinue
)

func (f *flow) Error() string {
	switch f.code {
	case flowReturn:
		return "invoked \"return\" outside of a proc"
	case flowBreak:
		return "invoked \"break\" outside of a loop"
	default:
		return "invoked \"continue\" outside of a loop"
	}
}

// break and continue carry no payload, so every loop iteration can share
// one immutable instance instead of allocating.
var (
	flowBreakErr    = &flow{code: flowBreak}
	flowContinueErr = &flow{code: flowContinue}
)

// EvalError is a script runtime error, annotated with the failing command.
type EvalError struct {
	Cmd  string // command name that raised the error
	Line int
	Msg  string
}

func (e *EvalError) Error() string {
	if e.Cmd == "" {
		return e.Msg
	}
	return fmt.Sprintf("%s (while executing %q near line %d)", e.Msg, e.Cmd, e.Line)
}

// frame is one proc call's variable scope. The global scope is not a frame:
// it is the interpreter's globals map.
type frame struct {
	vars    map[string]string
	globals map[string]bool // names linked to the global frame via `global`
}

func newFrame() *frame {
	return &frame{vars: make(map[string]string)}
}

// proc is a script-defined procedure.
type proc struct {
	name    string
	params  []procParam
	body    *Script
	varargs bool // last param is `args`
}

type procParam struct {
	name       string
	defaultVal string
	hasDefault bool
}

// Interp is a Tcl-subset interpreter. State (variables, procs) persists
// across Eval calls, which is what lets a PFI filter script keep counters
// and phase flags between messages. Interp is not safe for concurrent use;
// the simulation is single-threaded by design.
type Interp struct {
	globals  map[string]string
	frames   []*frame // proc call stack (empty at top level)
	commands map[string]Command
	procs    map[string]*proc
	scripts  *srcCache[*Script]  // parse cache for control-flow bodies
	exprs    *srcCache[exprNode] // compile cache for expr conditions
	wordBufs [][]string          // scratch buffers for expandCommand
	out      io.Writer           // destination for puts
	steps    int                 // commands executed since limit reset
	maxSteps int                 // 0 = unlimited
	limitHit bool                // last top-level Eval/Run died on the step limit
	depth    int                 // proc/eval recursion depth
}

const maxDepth = 200

// New returns an interpreter with the core command set installed.
// Output from puts is discarded unless SetOutput is called.
func New() *Interp {
	in := &Interp{
		globals:  make(map[string]string),
		commands: make(map[string]Command),
		procs:    make(map[string]*proc),
		scripts:  newSrcCache[*Script](4096),
		exprs:    newSrcCache[exprNode](4096),
		out:      io.Discard,
		maxSteps: 5_000_000,
	}
	registerCore(in)
	return in
}

// SetOutput directs puts output to w.
func (in *Interp) SetOutput(w io.Writer) {
	if w == nil {
		w = io.Discard
	}
	in.out = w
}

// Output returns the current puts destination.
func (in *Interp) Output() io.Writer { return in.out }

// SetStepLimit bounds the number of commands a single top-level Eval may
// execute (0 disables the bound). It guards experiments against runaway
// scripts such as `while {1} {}`.
func (in *Interp) SetStepLimit(n int) { in.maxSteps = n }

// StepLimitHit reports whether the most recent top-level Eval/Run failed
// because the step limit was exhausted — letting callers classify the
// error as a resource-budget trip rather than a script bug without
// matching on error text.
func (in *Interp) StepLimitHit() bool { return in.limitHit }

// Steps reports the commands executed by the most recent top-level
// Eval/Run. Snapshot-based evaluation uses it to charge a scenario's
// shared prefix against the suffix's step budget, so the limit trips at
// the same command whether a run replays the whole scenario or resumes
// from a snapshot.
func (in *Interp) Steps() int { return in.steps }

// interpState is the script-visible mutable state of an interpreter:
// global variables and script-defined procs. Host commands, caches, and
// scratch space are excluded — commands are installed by the host once,
// and the caches are semantically transparent.
type interpState struct {
	globals map[string]string
	procs   map[string]*proc
}

// SnapshotState captures global variables and proc definitions for the
// snapshot registry.
func (in *Interp) SnapshotState() any {
	return &interpState{globals: maps.Clone(in.globals), procs: maps.Clone(in.procs)}
}

// RestoreState rewinds globals and procs to a captured state. The captured
// maps are copied, so the state can be restored any number of times.
func (in *Interp) RestoreState(state any) {
	st := state.(*interpState)
	in.globals = maps.Clone(st.globals)
	in.procs = maps.Clone(st.procs)
}

// Register installs (or replaces) a host command.
func (in *Interp) Register(name string, cmd Command) {
	if cmd == nil {
		panic("script: nil command for " + name)
	}
	in.commands[name] = cmd
}

// Unregister removes a host command.
func (in *Interp) Unregister(name string) {
	delete(in.commands, name)
}

// HasCommand reports whether name resolves to a host command or proc.
func (in *Interp) HasCommand(name string) bool {
	if _, ok := in.commands[name]; ok {
		return true
	}
	_, ok := in.procs[name]
	return ok
}

// CommandNames lists registered host commands and procs (unsorted).
func (in *Interp) CommandNames() []string {
	names := make([]string, 0, len(in.commands)+len(in.procs))
	for n := range in.commands {
		names = append(names, n)
	}
	for n := range in.procs {
		names = append(names, n)
	}
	return names
}

// SetVar sets a variable in the current frame (the global frame between
// Eval calls). It is how host code passes values like `cur_msg` to scripts.
func (in *Interp) SetVar(name, value string) {
	if f := in.curFrame(); f != nil && !f.globals[name] {
		f.vars[name] = value
		return
	}
	in.globals[name] = value
}

// SetGlobal sets a variable in the global frame regardless of call depth.
func (in *Interp) SetGlobal(name, value string) {
	in.globals[name] = value
}

// Var reads a variable from the current frame (following `global` links).
func (in *Interp) Var(name string) (string, bool) {
	if f := in.curFrame(); f != nil && !f.globals[name] {
		v, ok := f.vars[name]
		return v, ok
	}
	v, ok := in.globals[name]
	return v, ok
}

// Global reads a variable from the global frame.
func (in *Interp) Global(name string) (string, bool) {
	v, ok := in.globals[name]
	return v, ok
}

// UnsetVar removes a variable from the current frame.
func (in *Interp) UnsetVar(name string) {
	if f := in.curFrame(); f != nil && !f.globals[name] {
		delete(f.vars, name)
		return
	}
	delete(in.globals, name)
}

// curFrame returns the innermost proc frame, or nil at global scope.
func (in *Interp) curFrame() *frame {
	if n := len(in.frames); n > 0 {
		return in.frames[n-1]
	}
	return nil
}

// Eval parses (with caching) and runs src at the top level, resetting the
// step budget. It returns the result of the last command.
func (in *Interp) Eval(src string) (string, error) {
	s, err := in.compile(src)
	if err != nil {
		in.steps, in.limitHit = 0, false
		return "", err
	}
	return in.Run(s)
}

// Run executes a pre-parsed script at the top level, resetting the step
// budget.
func (in *Interp) Run(s *Script) (string, error) {
	in.steps = 0
	in.limitHit = false
	res, err := in.run(s)
	if err != nil {
		var fl *flow
		if errors.As(err, &fl) {
			if fl.code == flowReturn {
				return fl.value, nil // top-level return is permitted
			}
			return "", &EvalError{Msg: fl.Error()}
		}
	}
	return res, err
}

// compile parses src, memoizing results so control-flow bodies evaluated
// every message parse only once. The cache is keyed by pointer identity
// first (bodies are substrings of one parsed script, so repeated messages
// present the same backing array) and evicts LRU-half when full, so hot
// filter bodies survive long campaigns.
func (in *Interp) compile(src string) (*Script, error) {
	if s, ok := in.scripts.get(src); ok {
		return s, nil
	}
	statCompiles.Add(1)
	s, err := Parse(src)
	if err != nil {
		return nil, err
	}
	in.scripts.put(src, s)
	return s, nil
}

// run executes a parsed script in the current frame.
func (in *Interp) run(s *Script) (string, error) {
	var result string
	for i := range s.cmds {
		cmd := &s.cmds[i]
		if in.maxSteps > 0 {
			in.steps++
			if in.steps > in.maxSteps {
				in.limitHit = true
				return "", &EvalError{Msg: fmt.Sprintf("step limit %d exceeded", in.maxSteps), Line: cmd.line}
			}
		}
		words, err := in.expandCommand(cmd)
		if err != nil {
			return "", err
		}
		if len(words) == 0 {
			in.putWords(words)
			continue
		}
		result, err = in.invoke(words, cmd.line)
		in.putWords(words)
		if err != nil {
			return "", err
		}
	}
	return result, nil
}

// expandCommand substitutes each word of cmd into its final string form.
// The returned slice comes from the interpreter's scratch pool; run returns
// it via putWords after invoke. Commands must not retain it past the call —
// the Command contract already says args are only valid for the call.
func (in *Interp) expandCommand(cmd *command) ([]string, error) {
	words := in.getWords(len(cmd.words))
	for i := range cmd.words {
		w, err := in.expandWord(&cmd.words[i])
		if err != nil {
			in.putWords(words)
			return nil, err
		}
		words = append(words, w)
	}
	return words, nil
}

// getWords pops a scratch buffer from the pool (or allocates one). Nested
// evaluation ([cmd] substitution, proc bodies) pops deeper buffers while
// outer ones are in use, so stack discipline keeps reuse safe.
func (in *Interp) getWords(capHint int) []string {
	if n := len(in.wordBufs); n > 0 {
		buf := in.wordBufs[n-1]
		in.wordBufs = in.wordBufs[:n-1]
		return buf[:0]
	}
	if capHint < 8 {
		capHint = 8
	}
	return make([]string, 0, capHint)
}

func (in *Interp) putWords(buf []string) {
	if cap(buf) == 0 || len(in.wordBufs) >= 32 {
		return
	}
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = "" // release string references
	}
	in.wordBufs = append(in.wordBufs, buf[:0])
}

func (in *Interp) expandWord(w *word) (string, error) {
	if len(w.segs) == 1 {
		seg := &w.segs[0]
		if seg.kind == segLiteral {
			return seg.text, nil
		}
	}
	var b strings.Builder
	for i := range w.segs {
		seg := &w.segs[i]
		switch seg.kind {
		case segLiteral:
			b.WriteString(seg.text)
		case segVar:
			v, ok := in.Var(seg.text)
			if !ok {
				return "", &EvalError{Msg: fmt.Sprintf("can't read %q: no such variable", seg.text), Line: w.line}
			}
			b.WriteString(v)
		case segCmd:
			in.depth++
			if in.depth > maxDepth {
				in.depth--
				return "", &EvalError{Msg: "too many nested evaluations", Line: w.line}
			}
			res, err := in.run(seg.body)
			in.depth--
			if err != nil {
				return "", err
			}
			b.WriteString(res)
		}
	}
	return b.String(), nil
}

// invoke dispatches an expanded command: procs first, then host commands.
func (in *Interp) invoke(words []string, line int) (string, error) {
	name := words[0]
	if pr, ok := in.procs[name]; ok {
		return in.callProc(pr, words[1:], line)
	}
	if cmd, ok := in.commands[name]; ok {
		res, err := cmd(in, words[1:])
		if err != nil {
			var fl *flow
			var ev *EvalError
			var pe *ParseError
			if errors.As(err, &fl) || errors.As(err, &ev) || errors.As(err, &pe) {
				return res, err
			}
			return res, &EvalError{Cmd: name, Line: line, Msg: err.Error()}
		}
		return res, nil
	}
	return "", &EvalError{Cmd: name, Line: line, Msg: fmt.Sprintf("invalid command name %q", name)}
}

// callProc binds arguments and runs the proc body in a fresh frame.
func (in *Interp) callProc(pr *proc, args []string, line int) (string, error) {
	in.depth++
	defer func() { in.depth-- }()
	if in.depth > maxDepth {
		return "", &EvalError{Cmd: pr.name, Line: line, Msg: "too many nested procedure calls"}
	}
	f := newFrame()
	nFixed := len(pr.params)
	if pr.varargs {
		nFixed--
	}
	for i, p := range pr.params[:nFixed] {
		switch {
		case i < len(args):
			f.vars[p.name] = args[i]
		case p.hasDefault:
			f.vars[p.name] = p.defaultVal
		default:
			return "", &EvalError{Cmd: pr.name, Line: line,
				Msg: fmt.Sprintf("wrong # args: should be %q", procUsage(pr))}
		}
	}
	if pr.varargs {
		f.vars["args"] = ListJoin(args[min(nFixed, len(args)):])
	} else if len(args) > len(pr.params) {
		return "", &EvalError{Cmd: pr.name, Line: line,
			Msg: fmt.Sprintf("wrong # args: should be %q", procUsage(pr))}
	}
	in.frames = append(in.frames, f)
	defer func() { in.frames = in.frames[:len(in.frames)-1] }()
	res, err := in.run(pr.body)
	var fl *flow
	if errors.As(err, &fl) && fl.code == flowReturn {
		return fl.value, nil
	}
	return res, err
}

func procUsage(pr *proc) string {
	parts := []string{pr.name}
	for _, p := range pr.params {
		if p.hasDefault {
			parts = append(parts, "?"+p.name+"?")
		} else {
			parts = append(parts, p.name)
		}
	}
	return strings.Join(parts, " ")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
