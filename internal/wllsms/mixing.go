package wllsms

import (
	"fmt"

	"commintent/internal/core"
	"commintent/internal/model"
	"commintent/internal/mpi"
)

// The self-consistency mixing phase: after the energy computation, each
// worker returns its updated electron densities to the privileged rank,
// which mixes them with the previous iteration (simple linear mixing) and
// redistributes the updated potentials. This is the reverse-direction
// counterpart of the initial distribution — worker-to-privileged gathers
// followed by privileged-to-worker scatters — and exercises the directive
// layer with the communication flowing against Figure 2's arrows.

// MixingFraction is the linear-mixing weight for the new density.
const MixingFraction = 0.3

// mixDensityOriginal is the explicit library-call implementation: blocking
// sends worker->privileged, mixing, blocking sends privileged->worker.
func (a *App) mixDensityOriginal() error {
	c := a.Group
	p := a.P
	t := p.TRows
	for atomIdx := 0; atomIdx < p.NumAtoms; atomIdx++ {
		owner := a.L.AtomOwner(atomIdx)
		li := a.L.LocalIndexOf(owner, atomIdx)
		if owner != privGroupRank {
			if c.Rank() == owner {
				if err := c.Send(a.Local[li].RhoTot, 2*t, mpi.Float64, privGroupRank, distTag); err != nil {
					return err
				}
			}
			if c.Rank() == privGroupRank {
				if _, err := c.Recv(a.AllAtoms[atomIdx].RhoTot, 2*t, mpi.Float64, owner, distTag); err != nil {
					return err
				}
			}
		} else if c.Rank() == privGroupRank {
			copy(a.AllAtoms[atomIdx].RhoTot, a.Local[li].RhoTot)
		}
	}
	a.mixOnPrivileged()
	// Redistribute the updated potentials.
	for atomIdx := 0; atomIdx < p.NumAtoms; atomIdx++ {
		owner := a.L.AtomOwner(atomIdx)
		li := a.L.LocalIndexOf(owner, atomIdx)
		if owner == privGroupRank {
			if c.Rank() == privGroupRank {
				copy(a.Local[li].VR, a.AllAtoms[atomIdx].VR)
			}
			continue
		}
		if c.Rank() == privGroupRank {
			if err := c.Send(a.AllAtoms[atomIdx].VR, 2*t, mpi.Float64, owner, distTag); err != nil {
				return err
			}
		}
		if c.Rank() == owner {
			if _, err := c.Recv(a.Local[li].VR, 2*t, mpi.Float64, privGroupRank, distTag); err != nil {
				return err
			}
		}
	}
	return nil
}

// mixDensityDirective expresses the same phase with two comm_parameters
// regions: a worker->privileged return of densities, then (after the
// privileged mixing) a privileged->worker redistribution of potentials.
// The second region depends on data computed from the first, so the
// regions synchronise at their boundaries by construction. Every rank
// executes both, the WL master included (see distributeDirective).
func (a *App) mixDensityDirective(target core.Target) error {
	p := a.P
	t := p.TRows
	regions, err := a.regions(siteMixing, target, 2)
	if err != nil {
		return err
	}
	ret, redist := &regions[0], &regions[1]
	if ret.run == nil {
		a.bindMixing(ret, redist, target)
	}
	// The privileged rank moves its own atoms between its staged set and
	// its local storage in place, before each region: no transfer of either
	// region reads or writes them.
	priv := a.groupRank() == privGroupRank

	// Region 1: densities flow worker -> privileged.
	if priv {
		for li, atomIdx := range a.LocalAtoms {
			copy(a.AllAtoms[atomIdx].RhoTot, a.Local[li].RhoTot)
		}
	}
	if _, err := a.Env.RunRegion(ret.run); err != nil {
		return fmt.Errorf("wllsms: density return: %w", err)
	}
	if oneSided(target) && a.Role == RolePrivileged {
		// Unstage worker densities from the per-atom symmetric staging.
		rho := a.symMix.Local(a.Shm)
		for atomIdx := 0; atomIdx < p.NumAtoms; atomIdx++ {
			owner := a.L.AtomOwner(atomIdx)
			if owner == privGroupRank {
				continue
			}
			copy(a.AllAtoms[atomIdx].RhoTot, rho[atomIdx*2*t:(atomIdx+1)*2*t])
		}
		a.RK.Compute(a.RK.Profile().MemcpyTime((p.NumAtoms - len(a.L.LocalAtoms(privGroupRank))) * 2 * t * 8))
	}

	a.mixOnPrivileged()

	// Region 2: updated potentials flow privileged -> worker, landing
	// directly in the workers' symmetric-backed VR storage.
	if priv {
		for li, atomIdx := range a.LocalAtoms {
			copy(a.Local[li].VR, a.AllAtoms[atomIdx].VR)
		}
	}
	if _, err := a.Env.RunRegion(redist.run); err != nil {
		return fmt.Errorf("wllsms: potential redistribution: %w", err)
	}
	return nil
}

// bindMixing freezes the two mixing regions: one comm_p2p per atom a worker
// owns, in atom order.
func (a *App) bindMixing(ret, redist *boundRegion, target core.Target) {
	p := a.P
	t := p.TRows
	me := a.groupRank()
	w2 := a.groupRankToWorld
	params := core.Bind(
		core.MaxCommIter(p.NumAtoms),
		core.PlaceSync(core.EndParamRegion),
		core.WithTarget(target),
	)
	var retP2P, redistP2P []*core.Bound
	for atomIdx := 0; atomIdx < p.NumAtoms; atomIdx++ {
		owner := a.L.AtomOwner(atomIdx)
		if owner == privGroupRank {
			continue
		}
		li := a.L.LocalIndexOf(owner, atomIdx)

		// Return. On a one-sided target the privileged rank's AllAtoms
		// matrices are not symmetric, so workers put into the symMix
		// staging, one slot per atom (the workers' own storage aliases
		// other slots, so a dedicated staging array keeps them disjoint),
		// which the privileged rank unstages after the region.
		sb, rb := any(a.scratch.RhoTot), any(a.scratch.RhoTot)
		if me == owner {
			sb = a.Local[li].RhoTot
		}
		if oneSided(target) {
			rb = core.At(a.symMix, atomIdx*2*t)
		} else if me == privGroupRank {
			rb = a.AllAtoms[atomIdx].RhoTot
		}
		retP2P = append(retP2P, core.Bind(
			core.SBuf(sb), core.RBuf(rb), core.Count(2*t),
			core.Sender(w2(owner)), core.Receiver(w2(privGroupRank)),
			core.SendWhen(me == owner), core.ReceiveWhen(me == privGroupRank),
		))

		// Redistribution.
		sb = a.scratch.VR
		if me == privGroupRank {
			sb = a.AllAtoms[atomIdx].VR
		}
		rb = core.At(a.symVR, li*2*t)
		if !oneSided(target) {
			rb = a.scratch.VR
			if me == owner {
				rb = a.Local[li].VR
			}
		}
		redistP2P = append(redistP2P, core.Bind(
			core.SBuf(sb), core.RBuf(rb), core.Count(2*t),
			core.Sender(w2(privGroupRank)), core.Receiver(w2(owner)),
			core.SendWhen(me == privGroupRank), core.ReceiveWhen(me == owner),
		))
	}
	ret.run = core.BindRegion(params, retP2P...)
	redist.run = core.BindRegion(params, redistP2P...)
}

// mixOnPrivileged applies linear mixing rho_new into the potentials on the
// privileged rank: vr' = vr + MixingFraction * scale(rho). Deterministic
// and cheap; the cost of the mixing arithmetic is charged to the clock.
func (a *App) mixOnPrivileged() {
	if a.Role != RolePrivileged {
		return
	}
	for _, atom := range a.AllAtoms {
		for i := range atom.VR {
			atom.VR[i] = (1-MixingFraction)*atom.VR[i] - MixingFraction*0.01*atom.RhoTot[i]
		}
	}
	a.RK.Compute(model.Time(len(a.AllAtoms)*2*a.P.TRows) * 4)
}

// MixDensities runs the self-consistency mixing phase with the selected
// implementation and returns the measured virtual-time span.
func (a *App) MixDensities(v Variant, target core.Target) (model.Time, error) {
	return a.Measure(func() error {
		if a.Role == RoleWL && v != VariantDirective {
			return nil // the original's phase is group-local: no call on the WL master
		}
		switch v {
		case VariantOriginal, VariantOriginalWaitall:
			return a.mixDensityOriginal()
		case VariantDirective:
			return a.mixDensityDirective(target)
		default:
			return fmt.Errorf("wllsms: unknown variant %v", v)
		}
	})
}
