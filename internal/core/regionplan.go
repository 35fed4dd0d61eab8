package core

import (
	"slices"

	rt "commintent/internal/runtime"
)

// BoundRegion is a comm_parameters form with the comm_p2p forms its body
// executes, in order and nothing else. A front end keeps it with the forms
// (Env.Site), so a re-bind replaces it and its plan with them. Once every
// form replays, the region records a plan from their kept lowering and runs
// it where it can: its calls and one completion, with no Region, no
// per-directive dispatch and no ledger. Anywhere else it takes the
// per-directive path, the general case and the plan's oracle.
type BoundRegion struct {
	params *Bound
	p2p    []*Bound
	body   func(*Region) error // the per-directive path
	failed int                 // the comm_p2p body last failed in

	// env is the environment plan was recorded on, or refused on if nil.
	env  *Env
	plan *regionPlan
}

// BindRegion binds a comm_parameters form to the comm_p2p forms executed in
// it. The list is kept, not copied.
func BindRegion(params *Bound, p2p ...*Bound) *BoundRegion {
	br := &BoundRegion{params: params, p2p: p2p}
	br.body = func(r *Region) error {
		for i, d := range br.p2p {
			if err := r.P2PBound(d, nil); err != nil {
				br.failed = i
				return err
			}
		}
		return nil
	}
	return br
}

// RunRegion executes a bound region; on failure it also reports the index
// of the comm_p2p that failed, or -1. A plan runs only where nothing else
// acts on the region: the Env is open, no sync is carried in or absorbed,
// the fabric injects no faults (retries need each request's intent) and the
// managed runtime, which batches transfers and moves syncs, is off.
func (e *Env) RunRegion(br *BoundRegion) (int, error) {
	plain := !e.closed && !e.faults && e.pending == nil && e.co.empty()
	if p := br.plan; p != nil && br.env == e && plain && (p.pinned || !rt.Active().Enabled()) {
		return p.replay(e)
	}
	record := plain && br.env != e
	for _, b := range br.p2p {
		record = record && b.env == e && b.parent == br.params // each form replays
	}
	br.failed = -1
	if err := e.ParametersBound(br.params, br.body); err != nil {
		return br.failed, err
	}
	if record && !rt.Active().Enabled() {
		br.env, br.plan = e, e.recordPlan(br)
	}
	return -1, nil
}

// regionPlan is a bound region as one Env replays it: the calls, their
// completion, and what else the forms' replays owe.
type regionPlan struct {
	ops              []planOp
	done             ledger
	notes            []decisionRec // region set per replay
	directives, hits int64
	owed             int32 // cache-hit charges after the last call
	pinned           bool  // the region's managed_runtime clause pins the runtime off
}

// recordPlan builds br's plan from its forms' kept lowering, or nil where
// it can never run as one on e: a tracer (per-directive spans), a label, a
// deferred place_sync, a managed_runtime clause turning the runtime on, a
// *Fn clause, or a form depending on an earlier one (a flush between them).
// A list longer than max_comm_iter never gets here: its executions fail.
func (e *Env) recordPlan(br *BoundRegion) *regionPlan {
	var cl Clauses
	cl.set(br.params.opts)
	if e.tele.tr != nil || cl.label != "" || (cl.placeSyncSet && cl.placeSync != EndParamRegion) ||
		(cl.managedSet && cl.managed.Enabled()) {
		return nil
	}
	p := &regionPlan{pinned: cl.managedSet, directives: int64(len(br.p2p))}
	var seen ledger // the ranges of the forms so far
	for i, b := range br.p2p {
		x := &b.x
		if !b.fixed || (!x.idle && seen.overlapsAny(b.ranges)) {
			return nil
		}
		for _, bi := range slices.Concat(b.sinfos, b.rinfos) {
			p.hits++
			if bi.class == bufStruct {
				p.owed++ // Env.reuse: the layout's cache hit
			}
		}
		if p.notes = x.notes(p.notes); x.idle {
			continue
		}
		seen.pin(b.ranges)
		if e.lowerCalls(p, &p.done, b, x, i) != nil {
			return nil
		}
	}
	return p
}

// keep takes a call being recorded, with the charges owed before it.
func (p *regionPlan) keep(op planOp) {
	op.charges, p.owed = op.charges+p.owed, 0
	p.done.leave(&op, false)
	p.ops = append(p.ops, op)
}

// replay executes the plan: what the per-directive path would count, log
// and charge, its calls in its order, and its completion.
func (p *regionPlan) replay(e *Env) (int, error) {
	e.regionSeq++
	id := e.regionSeq
	t := &e.tele
	t.regions.Inc()
	t.planReplays.Inc()
	t.directives.Add(p.directives)
	t.resolveHits.Add(p.hits)
	e.logNotes(id, p.notes)
	posted := 0
	for i := range p.ops {
		op := &p.ops[i]
		if err := e.call(op, nil); err != nil {
			// Complete what was posted, as a failed region does.
			_ = e.comm.WaitallIgnore(p.done.reqs[:posted])
			return int(op.step), err
		}
		if op.req != nil {
			posted++
		}
	}
	if p.owed > 0 {
		e.cacheHits(p.owed)
	}
	return -1, e.complete(&p.done, id)
}
