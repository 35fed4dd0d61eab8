package plan

import "commintent/internal/core"

// DropBound forgets what the plan was lowered to on env, so that the next
// Execute lowers it afresh: the reference the replayed path is compared
// against.
func DropBound(env *core.Env, pl *Plan) { env.SetSite(&pl.site, nil) }
