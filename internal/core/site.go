package core

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
// nil. The directive front ends keep the bound form of a directive here —
// the option list they lowered it to and the inputs that lowering read — so
// that a directive executed again with unchanged inputs is revalidated, not
// lowered again. This is the paper's "cached per function scope": the Env
// is that scope. The state lives here and not with the key because one
// parsed directive is shared by every rank, each with an Env, variables and
// buffers of its own.
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
