package pragma

import "commintent/internal/core"

// A directive is lowered when it first executes on a core.Env and replayed
// after that: the paper's compiler lowers a directive once, at compile
// time, and that is why its directive curves track the hand-written ones.
// What a clause list depends on is small — the values of the variables the
// clause expressions read, and which buffers the sbuf/rbuf names denote —
// so the bound form snapshots exactly that, and an execution that finds the
// snapshot unchanged replays the core.Bound the list was frozen into.
// Anything else goes back through Spec.Options: one lowering path.

// bound is one Spec lowered on one core.Env.
type bound struct {
	dir  *core.Bound
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

// lower returns the form for executing s on cenv against env.
func (s *Spec) lower(cenv *core.Env, env Env) (*core.Bound, error) {
	if b, _ := cenv.Site(&s.site).(*bound); b != nil && b.current(s, env) {
		return b.dir, nil
	}
	opts, err := s.Options(env)
	if err != nil {
		return nil, err
	}
	dir := core.Bind(opts...)
	if b := s.bind(env, dir); b != nil {
		cenv.SetSite(&s.site, b)
	}
	return dir, nil
}

// bind snapshots what Options just read. It returns nil when the spec
// cannot be bound: it was not built by Parse, or a buffer has no identity.
func (s *Spec) bind(env Env, dir *core.Bound) *bound {
	if s.free == nil {
		return nil
	}
	b := &bound{
		dir:  dir,
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

// current reports whether env still holds what the lowering read. The frozen
// list holds the buffers themselves, so an identity's address is not reused.
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
