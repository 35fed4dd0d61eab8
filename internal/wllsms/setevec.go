package wllsms

import (
	"fmt"

	"commintent/internal/core"
	"commintent/internal/model"
	"commintent/internal/mpi"
)

// StageSpins moves each instance's spin configuration from the WL master to
// the privileged ranks (the step that precedes Listing 6's within-LIZ
// transfer). spins[g] holds 3 doubles per atom for group g; only the WL
// master passes it. Identical in every variant.
func (a *App) StageSpins(spins [][]float64) error {
	p := a.P
	switch a.Role {
	case RoleWL:
		if len(spins) != p.Groups {
			return fmt.Errorf("wllsms: StageSpins wants %d spin sets, got %d", p.Groups, len(spins))
		}
		if a.stageReqs == nil {
			a.stageReqs = make([]*mpi.Request, p.Groups)
			for g := range a.stageReqs {
				a.stageReqs[g] = new(mpi.Request)
			}
		}
		for g := 0; g < p.Groups; g++ {
			if len(spins[g]) != 3*p.NumAtoms {
				return fmt.Errorf("wllsms: spin set %d has %d values, want %d", g, len(spins[g]), 3*p.NumAtoms)
			}
			if err := a.World.IsendInto(a.stageReqs[g], spins[g], 3*p.NumAtoms, mpi.Float64, a.L.PrivilegedWorldRank(g), spinTag); err != nil {
				return err
			}
		}
		return a.World.WaitallIgnore(a.stageReqs)
	case RolePrivileged:
		ev := a.symEv.Local(a.Shm)
		_, err := a.World.Recv(ev, 3*p.NumAtoms, mpi.Float64, 0, spinTag)
		return err
	default:
		return nil
	}
}

// setEvecWaitLoop is the paper's original setEvec (Listing 6): the
// privileged rank Isends each atom's 3-double spin vector to its owner,
// then waits with a per-request MPI_Wait loop; workers Irecv and likewise
// wait request-by-request; a conservative trailing group barrier closes the
// phase.
func (a *App) setEvecWaitLoop() error {
	if err := a.setEvecNonblocking(func(c *mpi.Comm, reqs []*mpi.Request) error {
		for _, r := range reqs {
			if _, err := c.Wait(r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	a.Group.Barrier()
	return nil
}

// setEvecWaitall is the paper's modified original: the wait loops replaced
// by a single MPI_Waitall per loop (the ~2.6x improvement the paper
// reports); the conservative trailing barrier remains.
func (a *App) setEvecWaitall() error {
	if err := a.setEvecNonblocking(func(c *mpi.Comm, reqs []*mpi.Request) error {
		_, err := c.Waitall(reqs)
		return err
	}); err != nil {
		return err
	}
	a.Group.Barrier()
	return nil
}

// setEvecNonblocking posts the original code's sends/receives and completes
// them with the supplied strategy.
func (a *App) setEvecNonblocking(complete func(*mpi.Comm, []*mpi.Request) error) error {
	c := a.Group
	p := a.P
	ev := a.symEv.Local(a.Shm)
	var reqs []*mpi.Request
	if c.Rank() == privGroupRank {
		for atom := 0; atom < p.NumAtoms; atom++ {
			w := a.L.AtomOwner(atom)
			li := a.L.LocalIndexOf(w, atom)
			if w == privGroupRank {
				copy(a.Local[li].Scalars.Evec[:], ev[3*atom:3*atom+3])
				continue
			}
			r, err := c.Isend(ev[3*atom:3*atom+3], 3, mpi.Float64, w, li)
			if err != nil {
				return err
			}
			reqs = append(reqs, r)
		}
	} else {
		for li := range a.LocalAtoms {
			r, err := c.Irecv(a.Local[li].Scalars.Evec[:], 3, mpi.Float64, privGroupRank, li)
			if err != nil {
				return err
			}
			reqs = append(reqs, r)
		}
	}
	return complete(c, reqs)
}

// setEvecDirective is the paper's Listing 7: one comm_parameters region
// with sendwhen/receivewhen role selection, max_comm_iter and
// place_sync(END_PARAM_REGION); each comm_p2p may carry an overlapped
// computation body (overlap(li) for the owner's local atom index; nil for
// the communication-only measurement of Figure 4). The region's
// consolidated synchronisation replaces both the wait loops and the
// original's trailing barrier.
//
// Every rank of the environment's communicator executes the region, the WL
// master included: it holds neither role, but all ranks execute directives
// in the same program order, and the one-sided target creates and fences
// its window collectively.
func (a *App) setEvecDirective(target core.Target, overlap func(li int) error) error {
	regions, err := a.regions(siteSetEvec, target, 1)
	if err != nil {
		return err
	}
	s := &regions[0]
	if s.run == nil {
		a.bindSetEvec(s, target)
	}
	if a.Role == RolePrivileged {
		// This rank's own atoms, in place: no transfer touches them.
		ev := a.symEv.Local(a.Shm)
		for li, atom := range a.LocalAtoms {
			copy(a.Local[li].Scalars.Evec[:], ev[3*atom:3*atom+3])
		}
	}
	a.overlap = overlap
	if overlap == nil || s.overlapped == nil {
		_, err = a.Env.RunRegion(s.run)
	} else {
		err = a.Env.ParametersBound(s.params, s.overlapped)
	}
	if err != nil {
		return err
	}
	if a.Role == RoleWorker {
		evec := a.symEvec.Local(a.Shm)
		for li := range a.LocalAtoms {
			copy(a.Local[li].Scalars.Evec[:], evec[3*li:3*li+3])
		}
	}
	return nil
}

// bindSetEvec freezes Listing 7 for this rank's role: on the privileged
// rank one comm_p2p per atom another rank owns, in atom order; on a worker
// one per owned atom, indexed like LocalAtoms; on the WL master a single
// one it takes no part in. With an overlap body a worker overlaps each
// owned atom's computation with its own comm_p2p, and the privileged rank
// overlaps its own atoms' with all of them.
func (a *App) bindSetEvec(s *boundRegion, target core.Target) {
	p := a.P
	priv := a.groupRankToWorld(privGroupRank)
	s.params = core.Bind(
		core.SendWhen(a.Role == RolePrivileged),
		core.ReceiveWhen(a.Role == RoleWorker),
		core.Sender(priv),
		core.Receiver(priv), // overridden per comm_p2p on the sender
		core.MaxCommIter(p.NumAtoms),
		core.PlaceSync(core.EndParamRegion),
		core.WithTarget(target),
	)
	spin := func(atom, li int, more ...core.Option) *core.Bound {
		return core.Bind(append([]core.Option{
			core.SBuf(core.At(a.symEv, 3*atom)),
			core.RBuf(core.At(a.symEvec, 3*li)),
			core.Count(3),
		}, more...)...)
	}
	var p2p []*core.Bound
	var bodies []func() error // a worker's overlap body per comm_p2p
	switch a.Role {
	case RoleWL:
		s.run = core.BindRegion(s.params, spin(0, 0))
		return
	case RolePrivileged:
		for atom := 0; atom < p.NumAtoms; atom++ {
			if w := a.L.AtomOwner(atom); w != privGroupRank {
				p2p = append(p2p, spin(atom, a.L.LocalIndexOf(w, atom), core.Receiver(a.groupRankToWorld(w))))
			}
		}
		bodies = make([]func() error, len(p2p))
	default:
		for li := range a.LocalAtoms {
			p2p = append(p2p, spin(0, li))
			bodies = append(bodies, func() error { return a.overlap(li) })
		}
	}
	s.run = core.BindRegion(s.params, p2p...)
	s.overlapped = func(r *core.Region) error {
		for i, d := range p2p {
			if err := r.P2PBound(d, bodies[i]); err != nil {
				return err
			}
		}
		if a.Role == RolePrivileged {
			for li := range a.LocalAtoms {
				if err := a.overlap(li); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// SetEvec runs the within-LIZ random-spin-configuration transfer (the
// paper's second experiment, Figure 4) with the selected implementation and
// returns the measured virtual-time span. Spins must already be staged on
// the privileged ranks (StageSpins).
func (a *App) SetEvec(v Variant, target core.Target) (model.Time, error) {
	return a.Measure(func() error { return a.setEvecInner(v, target, nil) })
}

func (a *App) setEvecInner(v Variant, target core.Target, overlap func(li int) error) error {
	if a.Role == RoleWL && v != VariantDirective {
		return nil // the original's phase is group-local: no call on the WL master
	}
	switch v {
	case VariantOriginal:
		return a.setEvecWaitLoop()
	case VariantOriginalWaitall:
		return a.setEvecWaitall()
	case VariantDirective:
		return a.setEvecDirective(target, overlap)
	default:
		return fmt.Errorf("wllsms: unknown variant %v", v)
	}
}

// SetEvecInnerForDebug exposes the unmeasured inner transfer for
// calibration tooling.
func (a *App) SetEvecInnerForDebug(v Variant, target core.Target) error {
	return a.setEvecInner(v, target, nil)
}
