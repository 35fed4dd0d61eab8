package pragma

import (
	"fmt"
	"strings"

	"commintent/internal/core"
)

// Block is a parsed multi-directive source block: one optional
// comm_parameters region wrapping a sequence of comm_p2p directives — the
// shape of the paper's Listing 5.
type Block struct {
	Params *Spec // nil for a bare sequence of comm_p2p directives
	P2P    []*Spec

	site core.SiteKey // where a core.Env keeps the block's bound form
}

// ParseBlock parses a source block of directive lines. Each directive
// starts at a line containing "#pragma" and continues over following lines
// until the next "#pragma" (clauses may wrap, as in the paper's listings).
// Braces and anything that is not part of a directive are ignored, so a
// listing can be pasted verbatim.
func ParseBlock(src string) (*Block, error) {
	var chunks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			chunks = append(chunks, cur.String())
			cur.Reset()
		}
	}
	for _, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if idx := strings.Index(trimmed, "#pragma"); idx >= 0 {
			flush()
			cur.WriteString(trimmed[idx:])
			cur.WriteByte(' ')
			continue
		}
		if cur.Len() > 0 {
			// Continuation of the current directive; strip block braces.
			trimmed = strings.Trim(trimmed, "{}")
			cur.WriteString(trimmed)
			cur.WriteByte(' ')
		}
	}
	flush()
	if len(chunks) == 0 {
		return nil, fmt.Errorf("pragma: no directives in block")
	}
	b := &Block{}
	for i, c := range chunks {
		s, err := Parse(c)
		if err != nil {
			return nil, fmt.Errorf("pragma: directive %d: %w", i, err)
		}
		if s.Params {
			if b.Params != nil {
				return nil, fmt.Errorf("pragma: block has more than one comm_parameters directive")
			}
			if len(b.P2P) > 0 {
				return nil, fmt.Errorf("pragma: comm_parameters must precede the comm_p2p directives")
			}
			b.Params = s
			continue
		}
		b.P2P = append(b.P2P, s)
	}
	if len(b.P2P) == 0 {
		return nil, fmt.Errorf("pragma: block has no comm_p2p directives")
	}
	return b, nil
}

// MustParseBlock is ParseBlock that panics, for literal listing constants.
func MustParseBlock(src string) *Block {
	b, err := ParseBlock(src)
	if err != nil {
		panic(err)
	}
	return b
}

// Exec runs the block: the comm_parameters region (if any) is opened with
// its clauses and every comm_p2p executes inside it in order, inheriting
// the region's assertions exactly as the paper specifies. The block is
// bound as a whole, so a replay checks its inputs once (see bind.go).
func (b *Block) Exec(cenv *core.Env, env Env) error {
	bd := cached(cenv, &b.site, env)
	if bd == nil {
		specs, off := b.P2P, 0
		if b.Params != nil {
			specs, off = append([]*Spec{b.Params}, b.P2P...), 1
		}
		nb, i, err := bind(cenv, &b.site, env, specs)
		if err != nil {
			if i < off {
				return err
			}
			return fmt.Errorf("pragma: comm_p2p %d: %w", i-off, err)
		}
		if bd = nb; off == 1 {
			p2p := bd.dirs[1:]
			bd.body = func(r *core.Region) error {
				for i, d := range p2p {
					if err := r.P2PBound(d, nil); err != nil {
						return fmt.Errorf("pragma: comm_p2p %d: %w", i, err)
					}
				}
				return nil
			}
		}
	}
	if b.Params == nil {
		for i, d := range bd.dirs {
			if err := cenv.P2PBound(d, nil); err != nil {
				return fmt.Errorf("pragma: comm_p2p %d: %w", i, err)
			}
		}
		return nil
	}
	return cenv.ParametersBound(bd.dirs[0], bd.body)
}
