package pragma

import (
	"fmt"
	"strings"

	"commintent/internal/core"
)

// BufRef is one entry of an sbuf/rbuf clause: a buffer name with an
// optional element offset (`buf`, `&buf[expr]` or `buf[expr]`).
type BufRef struct {
	Name   string
	Offset Expr // nil for the whole buffer
}

func (b BufRef) String() string {
	if b.Offset == nil {
		return b.Name
	}
	return "&" + b.Name + "[" + b.Offset.String() + "]"
}

// Spec is one parsed directive. It is immutable once executed: every rank
// may share one, and what a rank's first execution lowers it to is kept on
// that rank's core.Env (see bind.go), never here.
type Spec struct {
	// Params reports a comm_parameters directive (else comm_p2p).
	Params bool

	Sender   Expr
	Receiver Expr
	SendWhen Expr
	RecvWhen Expr
	Count    Expr

	SBuf []BufRef
	RBuf []BufRef

	Target      string // TARGET_COMM_* keyword, empty if absent
	PlaceSync   string // END_PARAM_REGION etc., empty if absent
	MaxCommIter Expr

	site core.SiteKey // where a core.Env keeps this directive's bound form

	// free names the variables the clause expressions read, recorded by
	// Parse (non-nil even when empty; a Spec built by hand has nil and is
	// lowered afresh on every execution).
	free []string
}

// Parse parses one directive line. The leading "#pragma" is optional; the
// directive name (comm_p2p or comm_parameters) is required; clauses follow
// in any order, exactly as in the paper's listings.
func Parse(line string) (*Spec, error) {
	line = strings.TrimSpace(line)
	line = strings.TrimPrefix(line, "#")
	toks, err := lex(line)
	if err != nil {
		return nil, err
	}
	p := &exprParser{toks: toks}

	if p.peek().kind == tokIdent && p.peek().text == "pragma" {
		p.next()
	}
	head := p.next()
	if head.kind != tokIdent {
		return nil, fmt.Errorf("pragma: expected directive name, got %q", head.text)
	}
	s := &Spec{}
	switch head.text {
	case "comm_p2p":
	case "comm_parameters":
		s.Params = true
	default:
		return nil, fmt.Errorf("pragma: unknown directive %q (want comm_p2p or comm_parameters)", head.text)
	}

	seen := map[string]bool{}
	for p.peek().kind != tokEOF {
		name := p.next()
		if name.kind != tokIdent {
			return nil, fmt.Errorf("pragma: expected clause name, got %q at %d", name.text, name.pos)
		}
		if !p.accept("(") {
			return nil, fmt.Errorf("pragma: clause %s: missing (", name.text)
		}
		if seen[name.text] {
			return nil, fmt.Errorf("pragma: duplicate clause %s", name.text)
		}
		seen[name.text] = true
		switch name.text {
		case "sender", "receiver", "sendwhen", "receivewhen", "count", "max_comm_iter":
			e, err := p.parseOr()
			if err != nil {
				return nil, fmt.Errorf("pragma: clause %s: %w", name.text, err)
			}
			switch name.text {
			case "sender":
				s.Sender = e
			case "receiver":
				s.Receiver = e
			case "sendwhen":
				s.SendWhen = e
			case "receivewhen":
				s.RecvWhen = e
			case "count":
				s.Count = e
			case "max_comm_iter":
				s.MaxCommIter = e
			}
		case "sbuf", "rbuf", "vsbuf": // Listing 5 of the paper spells one sbuf "vsbuf"
			refs, err := p.parseBufList()
			if err != nil {
				return nil, fmt.Errorf("pragma: clause %s: %w", name.text, err)
			}
			if name.text == "rbuf" {
				s.RBuf = refs
			} else {
				s.SBuf = refs
			}
		case "target", "place_sync":
			kw := p.next()
			if kw.kind != tokIdent {
				return nil, fmt.Errorf("pragma: clause %s: expected keyword", name.text)
			}
			if name.text == "target" {
				s.Target = kw.text
			} else {
				s.PlaceSync = kw.text
			}
		default:
			return nil, fmt.Errorf("pragma: unknown clause %q", name.text)
		}
		if !p.accept(")") {
			return nil, fmt.Errorf("pragma: clause %s: missing )", name.text)
		}
	}
	if !s.Params {
		if s.PlaceSync != "" {
			return nil, fmt.Errorf("pragma: place_sync may only be used with comm_parameters")
		}
		if s.MaxCommIter != nil {
			return nil, fmt.Errorf("pragma: max_comm_iter may only be used with comm_parameters")
		}
	}
	s.free = []string{}
	for _, e := range []Expr{s.Sender, s.Receiver, s.SendWhen, s.RecvWhen, s.Count, s.MaxCommIter} {
		s.free = addVars(s.free, e)
	}
	for _, refs := range [][]BufRef{s.SBuf, s.RBuf} {
		for _, r := range refs {
			s.free = addVars(s.free, r.Offset)
		}
	}
	return s, nil
}

// MustParse is Parse that panics, for package-level directive constants.
func MustParse(line string) *Spec {
	s, err := Parse(line)
	if err != nil {
		panic(err)
	}
	return s
}

// parseBufList parses `ref (',' ref)*` where ref is `[&] ident [ '[' expr ']' ]`.
func (p *exprParser) parseBufList() ([]BufRef, error) {
	var out []BufRef
	for {
		p.accept("&") // the address-of in &buf[p] is decorative here
		id := p.next()
		if id.kind != tokIdent {
			return nil, fmt.Errorf("expected buffer name, got %q", id.text)
		}
		ref := BufRef{Name: id.text}
		if p.accept("[") {
			e, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if !p.accept("]") {
				return nil, fmt.Errorf("missing ] after %s offset", id.text)
			}
			ref.Offset = e
		}
		out = append(out, ref)
		if !p.accept(",") {
			return out, nil
		}
	}
}

// String renders the spec back as pragma text.
func (s *Spec) String() string {
	var b strings.Builder
	if s.Params {
		b.WriteString("#pragma comm_parameters")
	} else {
		b.WriteString("#pragma comm_p2p")
	}
	clause := func(name string, e Expr) {
		if e != nil {
			fmt.Fprintf(&b, " %s(%s)", name, e)
		}
	}
	clause("sender", s.Sender)
	clause("receiver", s.Receiver)
	clause("sendwhen", s.SendWhen)
	clause("receivewhen", s.RecvWhen)
	if len(s.SBuf) > 0 {
		refs := make([]string, len(s.SBuf))
		for i, r := range s.SBuf {
			refs[i] = r.String()
		}
		fmt.Fprintf(&b, " sbuf(%s)", strings.Join(refs, ","))
	}
	if len(s.RBuf) > 0 {
		refs := make([]string, len(s.RBuf))
		for i, r := range s.RBuf {
			refs[i] = r.String()
		}
		fmt.Fprintf(&b, " rbuf(%s)", strings.Join(refs, ","))
	}
	clause("count", s.Count)
	if s.Target != "" {
		fmt.Fprintf(&b, " target(%s)", s.Target)
	}
	clause("max_comm_iter", s.MaxCommIter)
	if s.PlaceSync != "" {
		fmt.Fprintf(&b, " place_sync(%s)", s.PlaceSync)
	}
	return b.String()
}
