package wllsms

// DropBound forgets the bound forms of the App's directive regions, so that
// their next execution freezes and lowers the clause lists afresh: the
// reference the replayed path is compared against.
func (a *App) DropBound() {
	for kind := range a.sites {
		for target := range a.sites[kind] {
			a.Env.SetSite(&a.sites[kind][target], nil)
		}
	}
}
