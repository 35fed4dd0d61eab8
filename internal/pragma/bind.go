package pragma

import (
	"slices"

	"commintent/internal/core"
	"commintent/internal/typemap"
)

// A directive is lowered when it first executes on a core.Env and replayed
// after that: the paper's compiler lowers a directive once, at compile
// time, and that is why its directive curves track the hand-written ones.
// What a clause list depends on is small — the values of the variables the
// clause expressions read, and which buffers the sbuf/rbuf names denote —
// so the bound form snapshots exactly that, and an execution that finds the
// snapshot unchanged replays the core.Bound forms the lists were frozen
// into. Anything else goes back through Spec.Options: one lowering path.
// One binder serves a list of specs: a Block's directives under the
// block's site, or one Spec under its own.

// bound is a list of specs lowered on one core.Env.
type bound struct {
	// The snapshot: the union of the specs' free variables and of their
	// buffer names, each once, with what they held at lowering.
	vars []varSnap
	bufs []bufSnap
	ids  []core.BufID // parallel to bufs: the identity behind each name

	dirs []*core.Bound // parallel to the spec list

	// body replays a block's comm_p2p forms inside its region (dirs[0]);
	// built when the block is bound, so a replay builds no closure.
	body func(*core.Region) error
}

// varSnap is a variable as the lowering saw it. An undefined variable is
// not an error if evaluation short-circuited past it, so absence is part of
// the snapshot.
type varSnap struct {
	name string
	val  int
	ok   bool
}

// bufSnap is a buffer name and the value it was bound to, kept so that
// current can compare interface words before deriving an identity.
type bufSnap struct {
	name string
	val  any
}

// cached returns the form stored under key on cenv if env still holds
// what its lowering read, else nil.
func cached(cenv *core.Env, key *core.SiteKey, env Env) *bound {
	if b, _ := cenv.Site(key).(*bound); b != nil && b.current(env) {
		return b
	}
	return nil
}

// bind lowers specs afresh through Spec.Options and snapshots what that
// read, storing the bound form under key unless the list cannot be bound:
// a spec was not built by Parse, or a buffer has no identity. On failure
// it reports the index of the spec that failed.
func bind(cenv *core.Env, key *core.SiteKey, env Env, specs []*Spec) (*bound, int, error) {
	b := &bound{dirs: make([]*core.Bound, len(specs))}
	for i, s := range specs {
		opts, err := s.Options(env)
		if err != nil {
			return nil, i, err
		}
		b.dirs[i] = core.Bind(opts...)
	}
	for _, s := range specs {
		if s.free == nil {
			return b, 0, nil
		}
		for _, name := range s.free {
			if !slices.ContainsFunc(b.vars, func(v varSnap) bool { return v.name == name }) {
				v, ok := env.Vars[name]
				b.vars = append(b.vars, varSnap{name, v, ok})
			}
		}
		for _, r := range slices.Concat(s.SBuf, s.RBuf) {
			if slices.ContainsFunc(b.bufs, func(v bufSnap) bool { return v.name == r.Name }) {
				continue
			}
			id, ok := core.BufIDOf(env.Bufs[r.Name])
			if !ok {
				return b, 0, nil
			}
			b.bufs = append(b.bufs, bufSnap{r.Name, env.Bufs[r.Name]})
			b.ids = append(b.ids, id)
		}
	}
	cenv.SetSite(key, b)
	return b, 0, nil
}

// lower returns the form for executing s alone on cenv against env.
func (s *Spec) lower(cenv *core.Env, env Env) (*core.Bound, error) {
	b := cached(cenv, &s.site, env)
	if b == nil {
		var err error
		if b, _, err = bind(cenv, &s.site, env, []*Spec{s}); err != nil {
			return nil, err
		}
	}
	return b.dirs[0], nil
}

// current reports whether env still holds what the lowering read. A name
// still bound to the very interface value it held at lowering is unchanged
// without a look at the buffer; any other value is compared by identity.
// The frozen lists hold the buffers themselves, so an identity's address is
// not reused.
func (b *bound) current(env Env) bool {
	for _, v := range b.vars {
		if val, ok := env.Vars[v.name]; ok != v.ok || val != v.val {
			return false
		}
	}
	for i, s := range b.bufs {
		val := env.Bufs[s.name]
		if typemap.SameWords(val, s.val) {
			continue
		}
		if id, ok := core.BufIDOf(val); !ok || id != b.ids[i] {
			return false
		}
	}
	return true
}
