package core

// MaxSites is the site table's bound.
const MaxSites = maxSites

// SiteCount reports how many directive sites the environment holds a bound
// form for.
func (e *Env) SiteCount() int { return len(e.sites) }
