package pragma

import "commintent/internal/core"

// A directive is lowered when it first executes on a core.Env and replayed
// after that: the paper's compiler lowers a directive once, at compile
// time, and that is why its directive curves track the hand-written ones.
// What a lowering depends on is small — the values of the variables the
// clause expressions read, and which buffers the sbuf/rbuf names denote —
// so the bound form snapshots exactly that, and an execution that finds the
// snapshot unchanged reuses the option list. Anything else goes back
// through Spec.Options; there is no second lowering path.

// bound is one Spec lowered on one core.Env.
type bound struct {
	opts []core.Option
	vars []varSnap    // parallel to Spec.free
	bufs []core.BufID // one per sbuf name, then one per rbuf name
}

// varSnap is a variable as the lowering saw it. An undefined variable is
// not an error if evaluation short-circuited past it, so absence is part of
// the snapshot.
type varSnap struct {
	val int
	ok  bool
}

// lower returns the option list for executing s on cenv against env.
func (s *Spec) lower(cenv *core.Env, env Env) ([]core.Option, error) {
	if b, _ := cenv.Site(&s.site).(*bound); b != nil && b.current(s, env) {
		return b.opts, nil
	}
	opts, err := s.Options(env)
	if err != nil {
		return nil, err
	}
	if b := s.bind(env, opts); b != nil {
		cenv.SetSite(&s.site, b)
	}
	return opts, nil
}

// bind snapshots what Options just read. It returns nil when the spec
// cannot be bound: it was not built by Parse, or a buffer has no identity.
func (s *Spec) bind(env Env, opts []core.Option) *bound {
	if s.free == nil {
		return nil
	}
	b := &bound{
		opts: opts,
		vars: make([]varSnap, len(s.free)),
		bufs: make([]core.BufID, 0, len(s.SBuf)+len(s.RBuf)),
	}
	for i, name := range s.free {
		b.vars[i].val, b.vars[i].ok = env.Vars[name]
	}
	for _, refs := range [2][]BufRef{s.SBuf, s.RBuf} {
		for _, r := range refs {
			id, ok := core.BufIDOf(env.Bufs[r.Name])
			if !ok {
				return nil
			}
			b.bufs = append(b.bufs, id)
		}
	}
	return b
}

// current reports whether env still holds what the lowering read. The
// identities cannot have gone stale: the option list holds the buffers
// themselves, so their storage is alive and its address not reused.
func (b *bound) current(s *Spec, env Env) bool {
	for i, name := range s.free {
		if v, ok := env.Vars[name]; ok != b.vars[i].ok || v != b.vars[i].val {
			return false
		}
	}
	i := 0
	for _, refs := range [2][]BufRef{s.SBuf, s.RBuf} {
		for _, r := range refs {
			if id, ok := core.BufIDOf(env.Bufs[r.Name]); !ok || id != b.bufs[i] {
				return false
			}
			i++
		}
	}
	return true
}
