package core

// Bound is the bound form of one directive — a comm_p2p, or the
// comm_parameters that encloses it: its clause list, frozen by Bind, and
// for a comm_p2p what lowering computed from that list the last time it ran,
// so that executing the directive again only evaluates what can differ
// between two executions. It is the paper's "created and committed once per
// function scope, reused", for everything a directive lowers to and not the
// derived datatype alone.
//
// What is kept, and for how long. The clause set merged against the
// enclosing region and the classified buffers (with the datatype, window
// and symmetric handles that ride on them) hold for as long as the form is
// executed on the same Env under the same bound region; executed anywhere
// else it is lowered again and the new lowering replaces the old. Roles,
// peers, count, target and the count-trimmed buffer ranges are kept too when
// every clause expression is a constant (Sender(id), SendWhen(b), Count(n)
// or no clause at all); a *Fn clause is an expression over the program's
// variables and is evaluated at every execution, as are the region's managed
// runtime configuration, the fabric's fault mode and the ledger's overlap
// check, none of which the clause list determines.
//
// A comm_parameters form keeps nothing but its list, so one may be shared by
// any number of environments. A comm_p2p form belongs to the goroutine of
// the Env that executes it.
type Bound struct {
	opts []Option

	// The lowering of a comm_p2p: valid while env and parent are the
	// environment and the region form it is being executed under.
	env            *Env
	parent         *Bound
	merged         Clauses // parent's assertions overlaid with the directive's own
	sarr, rarr     [4]*bufInfo
	sinfos, rinfos []*bufInfo

	// fixed: no clause of merged is a *Fn expression, so x and ranges hold
	// for every execution.
	fixed  bool
	x      xfer
	ranges []bufRange
}

// Bind freezes a clause list. The list is kept, not copied: the caller must
// not modify it afterwards.
func Bind(opts ...Option) *Bound { return &Bound{opts: opts} }

// standalone is the region of a comm_p2p with no enclosing comm_parameters.
var standalone = Bind()

// SiteKey identifies a directive site by its own address. A front end
// embeds one in whatever represents a directive (a parsed pragma.Spec, a
// compiled plan.Plan) and passes its address to Site and SetSite; the
// pointer keeps the directive alive for as long as an environment holds a
// bound form for it, so the address cannot come to mean another directive.
type SiteKey struct{ _ byte }

// maxSites bounds the site table. A program has a fixed, small number of
// directive sites; only a front end that makes a new key per execution
// (pragma.ExecP2P parses its line every call) can reach the bound, and then
// the table starts over rather than keep the dead directives alive.
const maxSites = 1024

// Site returns what SetSite last stored under key on this environment, or
// nil. The directive front ends keep here the Bound forms of a directive
// and the inputs they built its clause list from, so that a directive
// executed again with unchanged inputs is revalidated, not lowered again.
// This is the paper's "cached per function scope": the Env is that scope.
// The state lives here and not with the key because one parsed directive is
// shared by every rank, each with an Env, variables and buffers of its own.
func (e *Env) Site(key *SiteKey) any { return e.sites[key] }

// SetSite stores bound under key, replacing what was there.
func (e *Env) SetSite(key *SiteKey, bound any) {
	if _, ok := e.sites[key]; !ok && len(e.sites) >= maxSites {
		clear(e.sites)
	}
	if e.sites == nil {
		e.sites = make(map[*SiteKey]any)
	}
	e.sites[key] = bound
}
