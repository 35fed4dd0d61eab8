package wllsms

import (
	"fmt"

	"commintent/internal/core"
)

// The App's directive regions — Listing 7's setEvec, Listing 5's per-atom
// distribution, the two regions of the mixing phase — are bound once per
// target: their clause lists name the App's own fixed storage and this
// rank's fixed role, so nothing they are built from changes between two
// executions. The bound forms live in the environment's site table, like
// those of directive text and compiled plans.

// siteKind indexes App.sites.
type siteKind int

const (
	siteSetEvec siteKind = iota
	siteDistribute
	siteMixing
	numSiteKinds
)

// boundRegion is one comm_parameters region with the comm_p2p directives
// this rank executes in it, in order: run, executed by core.Env.RunRegion.
// Listing 7 with an overlap body is the one region that is more than its
// comm_p2p list; overlapped executes it then, under params.
type boundRegion struct {
	run        *core.BoundRegion
	params     *core.Bound
	overlapped func(*core.Region) error
}

// regions returns the n regions of one kind kept for target on this rank's
// environment; a region whose run is nil has not been bound yet.
func (a *App) regions(kind siteKind, target core.Target, n int) ([]boundRegion, error) {
	if target < 0 || int(target) >= len(a.sites[kind]) {
		return nil, fmt.Errorf("wllsms: unknown target %v", target)
	}
	key := &a.sites[kind][target]
	s, _ := a.Env.Site(key).([]boundRegion)
	if s == nil {
		s = make([]boundRegion, n)
		a.Env.SetSite(key, s)
	}
	return s, nil
}
