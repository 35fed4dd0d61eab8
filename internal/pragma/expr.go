package pragma

import (
	"fmt"
	"slices"
	"strconv"
)

// Expr is a parsed clause expression, evaluated per rank against a
// variable environment. Booleans are represented as 0/1, matching the
// C-flavoured source syntax.
type Expr interface {
	Eval(vars map[string]int) (int, error)
	String() string
	eval(sc scope) (int, error)
}

// scope is what an expression is evaluated against: the caller's
// variables, shadowed by the executing rank's identity when a compiled plan
// supplies one (so a plan's clauses are evaluated per rank without copying
// the variable map per evaluation).
type scope struct {
	vars       map[string]int
	rank, size int
	ranked     bool // "rank" and "nprocs" read rank and size
}

func (sc scope) lookup(name string) (int, bool) {
	if sc.ranked {
		switch name {
		case "rank":
			return sc.rank, true
		case "nprocs":
			return sc.size, true
		}
	}
	v, ok := sc.vars[name]
	return v, ok
}

// addVars appends the variables e reads to names, each once. A nil e reads
// none.
func addVars(names []string, e Expr) []string {
	switch x := e.(type) {
	case varRef:
		if !slices.Contains(names, string(x)) {
			names = append(names, string(x))
		}
	case unary:
		names = addVars(names, x.x)
	case binary:
		names = addVars(addVars(names, x.l), x.r)
	}
	return names
}

// EvalBool evaluates an expression as a condition.
func EvalBool(e Expr, vars map[string]int) (bool, error) {
	v, err := e.Eval(vars)
	return v != 0, err
}

type intLit int

func (i intLit) Eval(map[string]int) (int, error) { return int(i), nil }
func (i intLit) eval(scope) (int, error)          { return int(i), nil }
func (i intLit) String() string                   { return strconv.Itoa(int(i)) }

type varRef string

func (v varRef) Eval(vars map[string]int) (int, error) { return v.eval(scope{vars: vars}) }

func (v varRef) eval(sc scope) (int, error) {
	if val, ok := sc.lookup(string(v)); ok {
		return val, nil
	}
	return 0, fmt.Errorf("pragma: undefined variable %q", string(v))
}
func (v varRef) String() string { return string(v) }

type unary struct {
	op string
	x  Expr
}

func (u unary) Eval(vars map[string]int) (int, error) { return u.eval(scope{vars: vars}) }

func (u unary) eval(sc scope) (int, error) {
	x, err := u.x.eval(sc)
	if err != nil {
		return 0, err
	}
	switch u.op {
	case "-":
		return -x, nil
	case "!":
		if x == 0 {
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("pragma: unknown unary operator %q", u.op)
}
func (u unary) String() string { return u.op + u.x.String() }

type binary struct {
	op   string
	l, r Expr
}

func (b binary) Eval(vars map[string]int) (int, error) { return b.eval(scope{vars: vars}) }

func (b binary) eval(sc scope) (int, error) {
	l, err := b.l.eval(sc)
	if err != nil {
		return 0, err
	}
	// Short-circuit the logical operators.
	switch b.op {
	case "&&":
		if l == 0 {
			return 0, nil
		}
		r, err := b.r.eval(sc)
		if err != nil {
			return 0, err
		}
		return boolInt(r != 0), nil
	case "||":
		if l != 0 {
			return 1, nil
		}
		r, err := b.r.eval(sc)
		if err != nil {
			return 0, err
		}
		return boolInt(r != 0), nil
	}
	r, err := b.r.eval(sc)
	if err != nil {
		return 0, err
	}
	switch b.op {
	case "+":
		return l + r, nil
	case "-":
		return l - r, nil
	case "*":
		return l * r, nil
	case "/":
		if r == 0 {
			return 0, fmt.Errorf("pragma: division by zero in %s", b)
		}
		return l / r, nil
	case "%":
		if r == 0 {
			return 0, fmt.Errorf("pragma: modulo by zero in %s", b)
		}
		return l % r, nil
	case "==":
		return boolInt(l == r), nil
	case "!=":
		return boolInt(l != r), nil
	case "<":
		return boolInt(l < r), nil
	case ">":
		return boolInt(l > r), nil
	case "<=":
		return boolInt(l <= r), nil
	case ">=":
		return boolInt(l >= r), nil
	}
	return 0, fmt.Errorf("pragma: unknown operator %q", b.op)
}
func (b binary) String() string { return "(" + b.l.String() + b.op + b.r.String() + ")" }

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// exprParser is a recursive-descent parser over a token stream with
// C-style precedence: || < && < comparisons < additive < multiplicative <
// unary < primary.
type exprParser struct {
	toks []token
	i    int
}

func (p *exprParser) peek() token { return p.toks[p.i] }
func (p *exprParser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *exprParser) accept(sym string) bool {
	if p.peek().kind == tokSym && p.peek().text == sym {
		p.i++
		return true
	}
	return false
}

// ParseExpr parses a complete clause expression.
func ParseExpr(src string) (Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &exprParser{toks: toks}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("pragma: trailing input %q in expression %q", p.peek().text, src)
	}
	return e, nil
}

func (p *exprParser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("||") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = binary{"||", l, r}
	}
	return l, nil
}

func (p *exprParser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.accept("&&") {
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = binary{"&&", l, r}
	}
	return l, nil
}

func (p *exprParser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"==", "!=", "<=", ">=", "<", ">"} {
		if p.accept(op) {
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return binary{op, l, r}, nil
		}
	}
	return l, nil
}

func (p *exprParser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = binary{"+", l, r}
		case p.accept("-"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = binary{"-", l, r}
		default:
			return l, nil
		}
	}
}

func (p *exprParser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = binary{"*", l, r}
		case p.accept("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = binary{"/", l, r}
		case p.accept("%"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = binary{"%", l, r}
		default:
			return l, nil
		}
	}
}

func (p *exprParser) parseUnary() (Expr, error) {
	if p.accept("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return unary{"-", x}, nil
	}
	if p.accept("!") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return unary{"!", x}, nil
	}
	return p.parsePrimary()
}

func (p *exprParser) parsePrimary() (Expr, error) {
	t := p.next()
	switch t.kind {
	case tokInt:
		v, err := strconv.Atoi(t.text)
		if err != nil {
			return nil, fmt.Errorf("pragma: bad integer %q", t.text)
		}
		return intLit(v), nil
	case tokIdent:
		return varRef(t.text), nil
	case tokSym:
		if t.text == "(" {
			e, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if !p.accept(")") {
				return nil, fmt.Errorf("pragma: missing ) at %d", p.peek().pos)
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("pragma: unexpected token %q at %d", t.text, t.pos)
}
