package pragma

import "commintent/internal/core"

// DropBound forgets what the block's directives were lowered to on cenv, so
// that their next execution lowers them afresh through Spec.Options: the
// reference the replayed path is compared against.
func DropBound(cenv *core.Env, b *Block) {
	if b.Params != nil {
		cenv.SetSite(&b.Params.site, nil)
	}
	for _, s := range b.P2P {
		cenv.SetSite(&s.site, nil)
	}
}
