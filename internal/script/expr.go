package script

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// value is an expr operand: an int64, float64, or string.
type value struct {
	kind valueKind
	i    int64
	f    float64
	s    string
}

type valueKind int

const (
	intVal valueKind = iota + 1
	floatVal
	strVal
)

func intv(i int64) value     { return value{kind: intVal, i: i} }
func floatv(f float64) value { return value{kind: floatVal, f: f} }
func strv(s string) value    { return value{kind: strVal, s: s} }
func boolv(b bool) value {
	if b {
		return intv(1)
	}
	return intv(0)
}

// String renders the value in Tcl's canonical form.
func (v value) String() string {
	switch v.kind {
	case intVal:
		return itoaFast(v.i)
	case floatVal:
		s := strconv.FormatFloat(v.f, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eEnI") { // NaN/Inf contain n/I
			s += ".0"
		}
		return s
	default:
		return v.s
	}
}

// smallIntStrs caches the decimal form of small integers so counter
// bookkeeping (incr, expr results) doesn't allocate a fresh string per
// message on the hot path.
var smallIntStrs = func() (a [640]string) {
	for i := range a {
		a[i] = strconv.FormatInt(int64(i-128), 10)
	}
	return
}()

// itoaFast is strconv.FormatInt(n, 10) with an allocation-free fast path
// for the small values counters actually take.
func itoaFast(n int64) string {
	if n >= -128 && n < 512 {
		return smallIntStrs[n+128]
	}
	return strconv.FormatInt(n, 10)
}

func (v value) isNumeric() bool { return v.kind == intVal || v.kind == floatVal }

func (v value) asFloat() float64 {
	if v.kind == intVal {
		return float64(v.i)
	}
	return v.f
}

func (v value) truth() (bool, error) {
	switch v.kind {
	case intVal:
		return v.i != 0, nil
	case floatVal:
		return v.f != 0, nil
	default:
		switch strings.ToLower(v.s) {
		case "true", "yes", "on":
			return true, nil
		case "false", "no", "off":
			return false, nil
		}
		if n, ok := parseNumber(v.s); ok {
			return n.truth()
		}
		return false, fmt.Errorf("expected boolean value but got %q", v.s)
	}
}

// parseNumber interprets s as an integer (decimal or 0x hex) or float.
//
// The first-byte prefilter matters for the per-message hot path: strconv
// allocates a *NumError on failure, and coerce calls parseNumber on every
// operand — including plainly non-numeric message types like "DATA". Only
// strings that could possibly start a number reach strconv. (i/I/n/N admit
// Inf and NaN, which ParseFloat accepts.)
func parseNumber(s string) (value, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return value{}, false
	}
	switch c := s[0]; {
	case c >= '0' && c <= '9', c == '+', c == '-', c == '.',
		c == 'i', c == 'I', c == 'n', c == 'N':
	default:
		return value{}, false
	}
	// A '.' anywhere rules out an integer; skip the guaranteed ParseInt
	// failure (and its error allocation) for float literals like "0.25".
	if !strings.ContainsRune(s, '.') {
		if i, err := strconv.ParseInt(s, 0, 64); err == nil {
			return intv(i), true
		}
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return floatv(f), true
	}
	return value{}, false
}

// coerce turns a raw operand string into a typed value, preferring numbers.
func coerce(s string) value {
	if n, ok := parseNumber(s); ok {
		return n
	}
	return strv(s)
}

// EvalExpr evaluates a Tcl expression, performing $variable and [command]
// substitution against the interpreter, and returns the canonical result.
func (in *Interp) EvalExpr(text string) (string, error) {
	v, err := in.exprValue(text)
	if err != nil {
		return "", err
	}
	return v.String(), nil
}

// EvalExprBool evaluates a condition expression to a boolean.
func (in *Interp) EvalExprBool(text string) (bool, error) {
	v, err := in.exprValue(text)
	if err != nil {
		return false, err
	}
	return v.truth()
}

func (in *Interp) exprValue(text string) (value, error) {
	n, err := in.compileExpr(text)
	if err != nil {
		return value{}, err
	}
	return n.eval(in)
}

// compileExpr parses text into an expression tree, memoized in the
// interpreter's expr cache. Filter guards evaluate on every message but
// compile only once.
func (in *Interp) compileExpr(text string) (exprNode, error) {
	if n, ok := in.exprs.get(text); ok {
		return n, nil
	}
	p := &exprParser{src: text}
	n, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos < len(p.src) {
		return nil, fmt.Errorf("expr: syntax error near %q", p.src[p.pos:])
	}
	in.exprs.put(text, n)
	return n, nil
}

// ----------------------------------------------------------------------------
// Expression tree. Compilation syntax-checks the whole expression (including
// the untaken sides of &&, ||, and ?:); evaluation implements Tcl's lazy
// semantics by simply not walking untaken subtrees, so their variables,
// commands, and arithmetic are never touched.

type exprNode interface {
	eval(in *Interp) (value, error)
}

type litNode struct{ v value }

func (n *litNode) eval(*Interp) (value, error) { return n.v, nil }

type varNode struct{ name string }

func (n *varNode) eval(in *Interp) (value, error) {
	v, ok := in.Var(n.name)
	if !ok {
		return value{}, fmt.Errorf("can't read %q: no such variable", n.name)
	}
	return coerce(v), nil
}

type cmdNode struct{ body *Script }

func (n *cmdNode) eval(in *Interp) (value, error) {
	res, err := in.run(n.body)
	if err != nil {
		return value{}, err
	}
	return coerce(res), nil
}

// strNode is a quoted operand with substitutions ("v=$v").
type strNode struct{ w word }

func (n *strNode) eval(in *Interp) (value, error) {
	s, err := in.expandWord(&n.w)
	if err != nil {
		return value{}, err
	}
	return strv(s), nil
}

type ternNode struct{ cond, thenN, elseN exprNode }

func (n *ternNode) eval(in *Interp) (value, error) {
	c, err := n.cond.eval(in)
	if err != nil {
		return value{}, err
	}
	b, err := c.truth()
	if err != nil {
		return value{}, err
	}
	if b {
		return n.thenN.eval(in)
	}
	return n.elseN.eval(in)
}

type andNode struct{ l, r exprNode }

func (n *andNode) eval(in *Interp) (value, error) {
	lv, err := n.l.eval(in)
	if err != nil {
		return value{}, err
	}
	lb, err := lv.truth()
	if err != nil {
		return value{}, err
	}
	if !lb {
		return boolv(false), nil // lazy: right side unevaluated
	}
	rv, err := n.r.eval(in)
	if err != nil {
		return value{}, err
	}
	rb, err := rv.truth()
	if err != nil {
		return value{}, err
	}
	return boolv(rb), nil
}

type orNode struct{ l, r exprNode }

func (n *orNode) eval(in *Interp) (value, error) {
	lv, err := n.l.eval(in)
	if err != nil {
		return value{}, err
	}
	lb, err := lv.truth()
	if err != nil {
		return value{}, err
	}
	if lb {
		return boolv(true), nil // lazy: right side unevaluated
	}
	rv, err := n.r.eval(in)
	if err != nil {
		return value{}, err
	}
	rb, err := rv.truth()
	if err != nil {
		return value{}, err
	}
	return boolv(rb), nil
}

// binNode covers arithmetic, bitwise/shift, comparison, and string equality.
type binNode struct {
	op   string
	l, r exprNode
}

func (n *binNode) eval(in *Interp) (value, error) {
	a, err := n.l.eval(in)
	if err != nil {
		return value{}, err
	}
	b, err := n.r.eval(in)
	if err != nil {
		return value{}, err
	}
	switch n.op {
	case "+", "-", "*", "/", "%":
		return arith(n.op, a, b)
	case "&", "|", "^", "<<", ">>":
		return intBinop(n.op, a, b)
	case "eq":
		return boolv(a.String() == b.String()), nil
	case "ne":
		return boolv(a.String() != b.String()), nil
	case "==":
		return boolv(compare(a, b) == 0), nil
	case "!=":
		return boolv(compare(a, b) != 0), nil
	case "<":
		return boolv(compare(a, b) < 0), nil
	case ">":
		return boolv(compare(a, b) > 0), nil
	case "<=":
		return boolv(compare(a, b) <= 0), nil
	case ">=":
		return boolv(compare(a, b) >= 0), nil
	}
	return value{}, fmt.Errorf("expr: unknown operator %q", n.op)
}

type unaryNode struct {
	op byte // '+', '-', '!', '~'
	x  exprNode
}

func (n *unaryNode) eval(in *Interp) (value, error) {
	v, err := n.x.eval(in)
	if err != nil {
		return value{}, err
	}
	switch n.op {
	case '+':
		if !v.isNumeric() {
			if num, ok := parseNumber(v.s); ok {
				return num, nil
			}
			return value{}, fmt.Errorf("expr: unary + on non-number %q", v.s)
		}
		return v, nil
	case '-':
		switch v.kind {
		case intVal:
			return intv(-v.i), nil
		case floatVal:
			return floatv(-v.f), nil
		default:
			if num, ok := parseNumber(v.s); ok {
				if num.kind == intVal {
					return intv(-num.i), nil
				}
				return floatv(-num.f), nil
			}
			return value{}, fmt.Errorf("expr: unary - on non-number %q", v.s)
		}
	case '!':
		b, err := v.truth()
		if err != nil {
			return value{}, err
		}
		return boolv(!b), nil
	default: // '~'
		if v.kind != intVal {
			return value{}, fmt.Errorf("expr: ~ requires an integer")
		}
		return intv(^v.i), nil
	}
}

type funcNode struct {
	name string
	args []exprNode
}

func (n *funcNode) eval(in *Interp) (value, error) {
	args := make([]value, len(n.args))
	for i, a := range n.args {
		v, err := a.eval(in)
		if err != nil {
			return value{}, err
		}
		args[i] = v
	}
	return applyFunc(n.name, args)
}

// ----------------------------------------------------------------------------
// Parser. Recursive descent, lowest to highest precedence, producing the
// tree above. Pure syntax: no interpreter state is consulted.

type exprParser struct {
	src string
	pos int
}

func (p *exprParser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *exprParser) peekOp(ops ...string) string {
	p.skipSpace()
	rest := p.src[p.pos:]
	for _, op := range ops {
		if strings.HasPrefix(rest, op) {
			// Word operators (eq, ne) must not glue to identifiers.
			if isAlphaOp(op) {
				if len(rest) > len(op) && isVarNameChar(rest[len(op)]) {
					continue
				}
			}
			return op
		}
	}
	return ""
}

func isAlphaOp(op string) bool {
	c := op[0]
	return c >= 'a' && c <= 'z'
}

func (p *exprParser) takeOp(op string) { p.pos += len(op) }

func (p *exprParser) parseTernary() (exprNode, error) {
	cond, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if op := p.peekOp("?"); op == "" {
		return cond, nil
	}
	p.takeOp("?")
	thenN, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if op := p.peekOp(":"); op == "" {
		return nil, fmt.Errorf("expr: missing ':' in ternary")
	}
	p.takeOp(":")
	elseN, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &ternNode{cond: cond, thenN: thenN, elseN: elseN}, nil
}

func (p *exprParser) parseOr() (exprNode, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peekOp("||") != "" {
		p.takeOp("||")
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &orNode{l: left, r: right}
	}
	return left, nil
}

func (p *exprParser) parseAnd() (exprNode, error) {
	left, err := p.parseBitOr()
	if err != nil {
		return nil, err
	}
	for p.peekOp("&&") != "" {
		p.takeOp("&&")
		right, err := p.parseBitOr()
		if err != nil {
			return nil, err
		}
		left = &andNode{l: left, r: right}
	}
	return left, nil
}

func (p *exprParser) parseBitOr() (exprNode, error) {
	left, err := p.parseBitXor()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if p.pos < len(p.src) && p.src[p.pos] == '|' &&
			(p.pos+1 >= len(p.src) || p.src[p.pos+1] != '|') {
			p.pos++
			right, err := p.parseBitXor()
			if err != nil {
				return nil, err
			}
			left = &binNode{op: "|", l: left, r: right}
			continue
		}
		return left, nil
	}
}

func (p *exprParser) parseBitXor() (exprNode, error) {
	left, err := p.parseBitAnd()
	if err != nil {
		return nil, err
	}
	for p.peekOp("^") != "" {
		p.takeOp("^")
		right, err := p.parseBitAnd()
		if err != nil {
			return nil, err
		}
		left = &binNode{op: "^", l: left, r: right}
	}
	return left, nil
}

func (p *exprParser) parseBitAnd() (exprNode, error) {
	left, err := p.parseEquality()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if p.pos < len(p.src) && p.src[p.pos] == '&' &&
			(p.pos+1 >= len(p.src) || p.src[p.pos+1] != '&') {
			p.pos++
			right, err := p.parseEquality()
			if err != nil {
				return nil, err
			}
			left = &binNode{op: "&", l: left, r: right}
			continue
		}
		return left, nil
	}
}

func (p *exprParser) parseEquality() (exprNode, error) {
	left, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peekOp("==", "!=", "eq", "ne")
		if op == "" {
			return left, nil
		}
		p.takeOp(op)
		right, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		left = &binNode{op: op, l: left, r: right}
	}
}

func (p *exprParser) parseRelational() (exprNode, error) {
	left, err := p.parseShift()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peekOp("<=", ">=", "<", ">")
		if op == "" {
			return left, nil
		}
		// Avoid consuming "<<" or ">>" as "<" "<".
		if (op == "<" || op == ">") && p.peekOp("<<", ">>") != "" {
			return left, nil
		}
		p.takeOp(op)
		right, err := p.parseShift()
		if err != nil {
			return nil, err
		}
		left = &binNode{op: op, l: left, r: right}
	}
}

func (p *exprParser) parseShift() (exprNode, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peekOp("<<", ">>")
		if op == "" {
			return left, nil
		}
		p.takeOp(op)
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		left = &binNode{op: op, l: left, r: right}
	}
}

func (p *exprParser) parseAdditive() (exprNode, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peekOp("+", "-")
		if op == "" {
			return left, nil
		}
		p.takeOp(op)
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &binNode{op: op, l: left, r: right}
	}
}

func (p *exprParser) parseMultiplicative() (exprNode, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peekOp("*", "/", "%")
		if op == "" {
			return left, nil
		}
		p.takeOp(op)
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &binNode{op: op, l: left, r: right}
	}
}

func (p *exprParser) parseUnary() (exprNode, error) {
	op := p.peekOp("-", "+", "!", "~")
	if op == "" {
		return p.parsePrimary()
	}
	p.takeOp(op)
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return &unaryNode{op: op[0], x: x}, nil
}

func (p *exprParser) parsePrimary() (exprNode, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("expr: unexpected end of expression")
	}
	c := p.src[p.pos]
	switch {
	case c == '(':
		p.pos++
		n, err := p.parseTernary()
		if err != nil {
			return nil, err
		}
		if p.peekOp(")") == "" {
			return nil, fmt.Errorf("expr: missing close parenthesis")
		}
		p.takeOp(")")
		return n, nil
	case c == '$':
		return p.parseVarOperand()
	case c == '[':
		return p.parseCmdOperand()
	case c == '"':
		return p.parseStringOperand()
	case c == '{':
		return p.parseBracedOperand()
	case c >= '0' && c <= '9' || c == '.':
		return p.parseNumberOperand()
	case isVarNameChar(c):
		return p.parseFuncOrWord()
	default:
		return nil, fmt.Errorf("expr: unexpected character %q", c)
	}
}

func (p *exprParser) parseVarOperand() (exprNode, error) {
	sub := &parser{src: p.src, pos: p.pos, line: 1}
	seg, ok, err := sub.parseVarRef()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("expr: lone '$'")
	}
	p.pos = sub.pos
	return &varNode{name: seg.text}, nil
}

func (p *exprParser) parseCmdOperand() (exprNode, error) {
	sub := &parser{src: p.src, pos: p.pos + 1, line: 1}
	cmds, err := sub.parseCommands(bracketEnd)
	if err != nil {
		return nil, err
	}
	body := &Script{src: p.src[p.pos:sub.pos], cmds: cmds}
	p.pos = sub.pos
	return &cmdNode{body: body}, nil
}

func (p *exprParser) parseStringOperand() (exprNode, error) {
	sub := &parser{src: p.src, pos: p.pos, line: 1}
	segs, err := sub.parseQuoted()
	if err != nil {
		return nil, err
	}
	p.pos = sub.pos
	// A quoted operand without substitutions is a constant.
	allLit := true
	for i := range segs {
		if segs[i].kind != segLiteral {
			allLit = false
			break
		}
	}
	if allLit {
		var b strings.Builder
		for i := range segs {
			b.WriteString(segs[i].text)
		}
		return &litNode{v: strv(b.String())}, nil
	}
	return &strNode{w: word{segs: segs}}, nil
}

func (p *exprParser) parseBracedOperand() (exprNode, error) {
	sub := &parser{src: p.src, pos: p.pos, line: 1}
	text, err := sub.parseBraced()
	if err != nil {
		return nil, err
	}
	p.pos = sub.pos
	return &litNode{v: strv(text)}, nil
}

func (p *exprParser) parseNumberOperand() (exprNode, error) {
	start := p.pos
	seenDot, seenExp := false, false
	if strings.HasPrefix(p.src[p.pos:], "0x") || strings.HasPrefix(p.src[p.pos:], "0X") {
		p.pos += 2
		for p.pos < len(p.src) && isHexDigit(p.src[p.pos]) {
			p.pos++
		}
		i, err := strconv.ParseInt(p.src[start:p.pos], 0, 64)
		if err != nil {
			return nil, fmt.Errorf("expr: bad hex literal %q", p.src[start:p.pos])
		}
		return &litNode{v: intv(i)}, nil
	}
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case c >= '0' && c <= '9':
			p.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			p.pos++
		case (c == 'e' || c == 'E') && !seenExp && p.pos > start:
			seenExp = true
			p.pos++
			if p.pos < len(p.src) && (p.src[p.pos] == '+' || p.src[p.pos] == '-') {
				p.pos++
			}
		default:
			goto done
		}
	}
done:
	text := p.src[start:p.pos]
	if !seenDot && !seenExp {
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("expr: bad integer literal %q", text)
		}
		return &litNode{v: intv(i)}, nil
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return nil, fmt.Errorf("expr: bad float literal %q", text)
	}
	return &litNode{v: floatv(f)}, nil
}

// parseFuncOrWord handles math functions and the bareword booleans.
func (p *exprParser) parseFuncOrWord() (exprNode, error) {
	start := p.pos
	for p.pos < len(p.src) && isVarNameChar(p.src[p.pos]) {
		p.pos++
	}
	name := p.src[start:p.pos]
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '(' {
		return p.parseFuncCall(name)
	}
	switch strings.ToLower(name) {
	case "true", "yes", "on":
		return &litNode{v: boolv(true)}, nil
	case "false", "no", "off":
		return &litNode{v: boolv(false)}, nil
	}
	return nil, fmt.Errorf("expr: unknown operand %q", name)
}

func (p *exprParser) parseFuncCall(name string) (exprNode, error) {
	if _, known := knownFuncs[name]; !known {
		return nil, fmt.Errorf("expr: unknown function %q", name)
	}
	p.pos++ // consume '('
	var args []exprNode
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == ')' {
		p.pos++
	} else {
		for {
			n, err := p.parseTernary()
			if err != nil {
				return nil, err
			}
			args = append(args, n)
			p.skipSpace()
			if p.pos >= len(p.src) {
				return nil, fmt.Errorf("expr: missing ')' in %s()", name)
			}
			if p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			if p.src[p.pos] == ')' {
				p.pos++
				break
			}
			return nil, fmt.Errorf("expr: bad character %q in %s()", p.src[p.pos], name)
		}
	}
	return &funcNode{name: name, args: args}, nil
}

// knownFuncs lists the math functions, checked at compile time so an
// unknown function errors even inside a never-taken branch.
var knownFuncs = map[string]struct{}{
	"abs": {}, "int": {}, "double": {}, "round": {}, "floor": {}, "ceil": {},
	"sqrt": {}, "exp": {}, "log": {}, "log10": {}, "sin": {}, "cos": {},
	"tan": {}, "pow": {}, "fmod": {}, "atan2": {}, "hypot": {}, "min": {}, "max": {},
}

func applyFunc(name string, args []value) (value, error) {
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("expr: %s() takes %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	num := func(v value) (float64, error) {
		if !v.isNumeric() {
			n, ok := parseNumber(v.s)
			if !ok {
				return 0, fmt.Errorf("expr: %s() requires numeric argument, got %q", name, v.s)
			}
			v = n
		}
		return v.asFloat(), nil
	}
	switch name {
	case "abs":
		if err := need(1); err != nil {
			return value{}, err
		}
		if args[0].kind == intVal {
			if args[0].i < 0 {
				return intv(-args[0].i), nil
			}
			return args[0], nil
		}
		f, err := num(args[0])
		if err != nil {
			return value{}, err
		}
		return floatv(math.Abs(f)), nil
	case "int":
		if err := need(1); err != nil {
			return value{}, err
		}
		f, err := num(args[0])
		if err != nil {
			return value{}, err
		}
		return intv(int64(f)), nil
	case "double":
		if err := need(1); err != nil {
			return value{}, err
		}
		f, err := num(args[0])
		if err != nil {
			return value{}, err
		}
		return floatv(f), nil
	case "round":
		if err := need(1); err != nil {
			return value{}, err
		}
		f, err := num(args[0])
		if err != nil {
			return value{}, err
		}
		return intv(int64(math.Round(f))), nil
	case "floor", "ceil", "sqrt", "exp", "log", "log10", "sin", "cos", "tan":
		if err := need(1); err != nil {
			return value{}, err
		}
		f, err := num(args[0])
		if err != nil {
			return value{}, err
		}
		fns := map[string]func(float64) float64{
			"floor": math.Floor, "ceil": math.Ceil, "sqrt": math.Sqrt,
			"exp": math.Exp, "log": math.Log, "log10": math.Log10,
			"sin": math.Sin, "cos": math.Cos, "tan": math.Tan,
		}
		return floatv(fns[name](f)), nil
	case "pow", "fmod", "atan2", "hypot":
		if err := need(2); err != nil {
			return value{}, err
		}
		a, err := num(args[0])
		if err != nil {
			return value{}, err
		}
		b, err := num(args[1])
		if err != nil {
			return value{}, err
		}
		fns := map[string]func(float64, float64) float64{
			"pow": math.Pow, "fmod": math.Mod, "atan2": math.Atan2, "hypot": math.Hypot,
		}
		return floatv(fns[name](a, b)), nil
	case "min", "max":
		if len(args) == 0 {
			return value{}, fmt.Errorf("expr: %s() needs at least one argument", name)
		}
		best, err := num(args[0])
		if err != nil {
			return value{}, err
		}
		allInt := args[0].kind == intVal
		for _, a := range args[1:] {
			f, err := num(a)
			if err != nil {
				return value{}, err
			}
			if a.kind != intVal {
				allInt = false
			}
			if name == "min" && f < best || name == "max" && f > best {
				best = f
			}
		}
		if allInt {
			return intv(int64(best)), nil
		}
		return floatv(best), nil
	default:
		return value{}, fmt.Errorf("expr: unknown function %q", name)
	}
}

// compare orders two values: numerically when both parse as numbers,
// lexically otherwise. Returns -1, 0, or 1.
func compare(a, b value) int {
	an, aok := a, a.isNumeric()
	if !aok {
		an, aok = parseNumber(a.s)
	}
	bn, bok := b, b.isNumeric()
	if !bok {
		bn, bok = parseNumber(b.s)
	}
	if aok && bok {
		if an.kind == intVal && bn.kind == intVal {
			switch {
			case an.i < bn.i:
				return -1
			case an.i > bn.i:
				return 1
			default:
				return 0
			}
		}
		af, bf := an.asFloat(), bn.asFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a.String(), b.String())
}

// arith applies + - * / % with Tcl's int/float promotion rules.
func arith(op string, a, b value) (value, error) {
	an, aok := a, a.isNumeric()
	if !aok {
		an, aok = parseNumber(a.s)
	}
	bn, bok := b, b.isNumeric()
	if !bok {
		bn, bok = parseNumber(b.s)
	}
	if !aok || !bok {
		bad := a
		if aok {
			bad = b
		}
		return value{}, fmt.Errorf("expr: can't use %q as operand of %q", bad.String(), op)
	}
	if an.kind == intVal && bn.kind == intVal {
		switch op {
		case "+":
			return intv(an.i + bn.i), nil
		case "-":
			return intv(an.i - bn.i), nil
		case "*":
			return intv(an.i * bn.i), nil
		case "/":
			if bn.i == 0 {
				return value{}, fmt.Errorf("expr: divide by zero")
			}
			// Tcl floors integer division toward negative infinity.
			q := an.i / bn.i
			if (an.i%bn.i != 0) && ((an.i < 0) != (bn.i < 0)) {
				q--
			}
			return intv(q), nil
		case "%":
			if bn.i == 0 {
				return value{}, fmt.Errorf("expr: divide by zero")
			}
			r := an.i % bn.i
			if r != 0 && ((an.i < 0) != (bn.i < 0)) {
				r += bn.i
			}
			return intv(r), nil
		}
	}
	af, bf := an.asFloat(), bn.asFloat()
	switch op {
	case "+":
		return floatv(af + bf), nil
	case "-":
		return floatv(af - bf), nil
	case "*":
		return floatv(af * bf), nil
	case "/":
		if bf == 0 {
			return value{}, fmt.Errorf("expr: divide by zero")
		}
		return floatv(af / bf), nil
	case "%":
		return value{}, fmt.Errorf("expr: %% requires integer operands")
	}
	return value{}, fmt.Errorf("expr: unknown operator %q", op)
}

// intBinop applies the bitwise/shift operators, which require integers.
func intBinop(op string, a, b value) (value, error) {
	an, aok := a, a.kind == intVal
	if !aok {
		if n, ok := parseNumber(a.String()); ok && n.kind == intVal {
			an, aok = n, true
		}
	}
	bn, bok := b, b.kind == intVal
	if !bok {
		if n, ok := parseNumber(b.String()); ok && n.kind == intVal {
			bn, bok = n, true
		}
	}
	if !aok || !bok {
		return value{}, fmt.Errorf("expr: %q requires integer operands", op)
	}
	switch op {
	case "&":
		return intv(an.i & bn.i), nil
	case "|":
		return intv(an.i | bn.i), nil
	case "^":
		return intv(an.i ^ bn.i), nil
	case "<<":
		if bn.i < 0 || bn.i > 63 {
			return value{}, fmt.Errorf("expr: shift count %d out of range", bn.i)
		}
		return intv(an.i << uint(bn.i)), nil
	case ">>":
		if bn.i < 0 || bn.i > 63 {
			return value{}, fmt.Errorf("expr: shift count %d out of range", bn.i)
		}
		return intv(an.i >> uint(bn.i)), nil
	}
	return value{}, fmt.Errorf("expr: unknown operator %q", op)
}
