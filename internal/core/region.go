package core

import (
	"fmt"

	rt "commintent/internal/runtime"
)

// directiveTag is the tag all directive-generated two-sided traffic uses.
// Correct pairing relies on per-pair FIFO delivery and FIFO matching, which
// both the fabric and the MPI matching queues guarantee, plus the SPMD
// discipline that all ranks execute directives in the same program order —
// the same structured-communication assumption the paper's compiler makes.
const directiveTag = 11

// Region is an open comm_parameters region. Its clause assertions apply to
// every comm_p2p executed within it, and its ledger consolidates their
// completion synchronisation.
type Region struct {
	env      *Env
	id       int
	defaults Clauses // built in place at region open, so a recycled region reuses it
	led      *ledger

	// cfg is the managed-runtime configuration resolved at region open: the
	// region's managed_runtime clause if asserted, else the process-wide
	// setting. Resolving once per region keeps every directive in the region
	// under one consistent policy.
	cfg rt.Config

	// bound is the form the region was opened with, nil when it was opened
	// from a clause list: what a comm_p2p form's lowering is valid under.
	bound *Bound

	// transient is the form of a comm_p2p executed from a clause list: it
	// goes through the one lowering path like any other form and is thrown
	// away when the directive returns.
	transient Bound
}

// ID reports the region's sequence number within its environment.
func (r *Region) ID() int { return r.id }

// Env returns the environment the region was opened on.
func (r *Region) Env() *Env { return r.env }

// Parameters opens a comm_parameters region: the clause assertions in opts
// apply to every comm_p2p executed by body. At region exit the consolidated
// completion synchronisation is placed according to the place_sync clause
// (END_PARAM_REGION if absent).
func (e *Env) Parameters(body func(*Region) error, opts ...Option) error {
	return e.parameters(nil, opts, body)
}

// ParametersBound is Parameters for a frozen clause list: the comm_p2p
// forms executed in body keep their lowering from one execution of the
// region to the next.
func (e *Env) ParametersBound(b *Bound, body func(*Region) error) error {
	return e.parameters(b, b.opts, body)
}

func (e *Env) parameters(b *Bound, opts []Option, body func(*Region) error) error {
	if e.closed {
		return ErrClosed
	}
	// A Region is only valid inside its body; the environment recycles one
	// (clause and ledger storage included) so a steady-state region loop
	// does not allocate per iteration.
	r := e.freeRegion
	if r != nil {
		e.freeRegion = nil
		r.led.p2pCount = 0
	} else {
		r = &Region{led: newLedger()}
	}
	e.regionSeq++
	if b == nil || r.bound != b {
		// A region recycled from an execution of the same bound form holds
		// that form's clause set already.
		r.defaults.set(opts)
	}
	r.env, r.id, r.bound = e, e.regionSeq, b
	cl := &r.defaults
	e.tele.regions.Inc()
	// A labelled region stamps the rank's endpoint for the duration of the
	// body, so every fabric event, span and recorder entry produced inside
	// is attributable to the directive. Restoring the previous id (rather
	// than 0) lets an unlabelled nested region inherit its parent's label.
	rid := e.regionID(cl.label)
	ep := e.comm.SPMD().Endpoint()
	prev := ep.RegionID()
	if rid != 0 {
		ep.SetRegion(rid)
	}
	start := e.comm.SPMD().Now()
	rsp := e.span("comm_parameters", "directive")
	defer func() {
		end := e.comm.SPMD().Now()
		rsp.End(end)
		if rid != 0 {
			e.observeRegionNS(rid, end-start)
			ep.SetRegion(prev)
		}
	}()
	r.cfg = rt.Active()
	if cl.managedSet {
		r.cfg = cl.managed
	}

	// Synchronisation carried in from a previous region.
	if e.pending != nil {
		p := e.pending
		e.pending = nil
		switch e.pendingMode {
		case BeginNextParamRegion:
			if err := e.flush(p, r.id); err != nil {
				return err
			}
			e.note(r.id, decSyncCarried, 0)
		case EndAdjParamRegions:
			r.led.absorb(p)
			e.note(r.id, decSyncAbsorbed, 0)
		default:
			if err := e.flush(p, r.id); err != nil {
				return err
			}
		}
	}

	if err := body(r); err != nil {
		// Complete whatever was posted so the fabric is not left with
		// dangling requests, then surface the body's error.
		_ = e.flush(r.led, r.id)
		return err
	}

	placement := EndParamRegion
	autoSync := false
	switch {
	case cl.placeSyncSet:
		placement = cl.placeSync
	case r.cfg.AutoSync:
		// Automatic sync placement: with no explicit place_sync clause the
		// managed runtime defers this region's completion exactly as a
		// manual place_sync(END_ADJ_PARAM_REGIONS) would — the dependency
		// ledger's pinned ranges prove when a later directive needs the
		// data, and any overlap forces the flush early. This is always
		// safe; it only changes *where* the consolidated sync lands.
		placement = EndAdjParamRegions
		autoSync = true
	}
	switch placement {
	case EndParamRegion:
		if err := e.flush(r.led, r.id); err != nil {
			return err
		}
		e.freeRegion = r
	case BeginNextParamRegion, EndAdjParamRegions:
		if !r.led.empty() {
			// The ledger lives on as deferred synchronisation, so this
			// region cannot be recycled.
			e.pending = r.led
			e.pendingMode = placement
			e.note(r.id, decSyncDeferred, int(placement))
		} else {
			e.freeRegion = r
		}
		if autoSync && (!r.led.empty() || !e.co.empty()) {
			e.tele.decAutosync.Inc()
			e.note(r.id, decSyncAuto, 0)
		}
	}
	return nil
}

// Sync completes every transfer posted so far in the region — an explicit
// mid-region consolidation point. The plan layer calls it where an aliased
// binding defeats the slot-granularity independence analysis (the aliased
// buffers overlap even though their slots are distinct, so the consolidated
// sync must land before the dependent step); applications may also place a
// sync by hand where they know a reuse the ledger cannot see. The decision
// note makes the forced sync observable in Env.Decisions.
func (r *Region) Sync() error {
	if r.env.closed {
		return ErrClosed
	}
	r.env.note(r.id, decSyncExplicit, 0)
	return r.env.flush(r.led, r.id)
}

// P2P executes one comm_p2p directive inside the region.
func (r *Region) P2P(opts ...Option) error {
	return r.P2POverlap(nil, opts...)
}

// P2POverlap executes one comm_p2p directive whose body is the region of
// computation overlapped with the communication: the body runs after the
// transfers are posted and before any completion synchronisation.
func (r *Region) P2POverlap(body func() error, opts ...Option) error {
	t := &r.transient
	t.opts = opts
	err := r.P2PBound(t, body)
	t.opts = nil
	return err
}

// P2PBound is P2POverlap for a frozen clause list (body may be nil). The
// first execution under a bound region lowers the directive; later ones
// under the same region replay that lowering.
func (r *Region) P2PBound(b *Bound, body func() error) error {
	e := r.env
	if e.closed {
		return ErrClosed
	}
	replay := b.env == e && b.parent == r.bound
	if !replay {
		b.env = nil
		cl := &b.merged
		cl.inherit(&r.defaults, b.opts)
		if err := validateP2POnly(cl); err != nil {
			return err
		}
		if err := validateP2P(cl); err != nil {
			return err
		}
	}
	r.led.p2pCount++
	if r.defaults.maxCommIterSet && r.led.p2pCount > r.defaults.maxCommIter {
		return fmt.Errorf("%w: %d > %d", ErrMaxCommIter, r.led.p2pCount, r.defaults.maxCommIter)
	}
	if err := e.emit(r, b, replay); err != nil {
		return err
	}
	if body != nil {
		return body()
	}
	return nil
}

// P2P executes a standalone comm_p2p directive (no enclosing
// comm_parameters): its completion synchronisation is placed immediately
// after the optional overlap body.
func (e *Env) P2P(opts ...Option) error {
	return e.P2POverlap(nil, opts...)
}

// P2POverlap is the standalone form of Region.P2POverlap.
func (e *Env) P2POverlap(body func() error, opts ...Option) error {
	return e.Parameters(func(r *Region) error {
		return r.P2POverlap(body, opts...)
	})
}

// P2PBound is the standalone form of Region.P2PBound.
func (e *Env) P2PBound(b *Bound, body func() error) error {
	return e.ParametersBound(standalone, func(r *Region) error {
		return r.P2PBound(b, body)
	})
}
