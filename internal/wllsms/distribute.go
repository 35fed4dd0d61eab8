package wllsms

import (
	"fmt"

	"commintent/internal/core"
	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/typemap"
)

// scalarsLayout resolves the wire layout of AtomScalars once.
func scalarsLayout() (*typemap.Layout, error) {
	return typemap.LayoutOf(AtomScalars{})
}

// atomPackedSize reports the MPI_Pack buffer size for one atom (the `s` of
// Listing 4): 7 int32 headers/scalars, 7 doubles, the 80-byte header, the
// 3-double evec, and the six matrices.
func atomPackedSize(t, tc int) int {
	return 7*4 + 7*8 + 80 + 3*8 + 2*(2*t*8) + 2*tc*8 + 3*(2*tc*4)
}

// atomStageTag tags WL->privileged staging traffic.
const atomStageTag = 33

// distTag tags the original pack/send distribution traffic.
const distTag = 34

// packAtom reproduces the sender half of Listing 4: every field packed
// call-by-call into a staging buffer.
func packAtom(c *mpi.Comm, atom *AtomData, localID int32, buf []byte, pos *int) error {
	s := &atom.Scalars
	type step func() error
	pI := func(v int32) step {
		return func() error { return c.Pack([]int32{v}, 1, mpi.Int32, buf, pos) }
	}
	pD := func(v float64) step {
		return func() error { return c.Pack([]float64{v}, 1, mpi.Float64, buf, pos) }
	}
	t32 := int32(atom.PotentialRows())
	tc32 := int32(atom.CoreRows())
	steps := []step{
		pI(localID), pI(s.Jmt), pI(s.Jws),
		pD(s.Xstart), pD(s.Rmt),
		func() error { return c.Pack(s.Header[:], 80, mpi.Byte, buf, pos) },
		pD(s.Alat), pD(s.Efermi), pD(s.Vdif), pD(s.Ztotss), pD(s.Zcorss),
		func() error { return c.Pack(s.Evec[:], 3, mpi.Float64, buf, pos) },
		pI(s.Nspin), pI(s.Numc),
		pI(t32),
		func() error { return c.Pack(atom.VR, 2*int(t32), mpi.Float64, buf, pos) },
		func() error { return c.Pack(atom.RhoTot, 2*int(t32), mpi.Float64, buf, pos) },
		pI(tc32),
		func() error { return c.Pack(atom.EC, 2*int(tc32), mpi.Float64, buf, pos) },
		func() error { return c.Pack(atom.NC, 2*int(tc32), mpi.Int32, buf, pos) },
		func() error { return c.Pack(atom.LC, 2*int(tc32), mpi.Int32, buf, pos) },
		func() error { return c.Pack(atom.KC, 2*int(tc32), mpi.Int32, buf, pos) },
	}
	for _, st := range steps {
		if err := st(); err != nil {
			return err
		}
	}
	return nil
}

// unpackAtom reproduces the receiver half of Listing 4, including the
// conditional resizes.
func unpackAtom(c *mpi.Comm, atom *AtomData, buf []byte, pos *int) (localID int32, err error) {
	i1 := make([]int32, 1)
	d1 := make([]float64, 1)
	uI := func(dst *int32) error {
		if err := c.Unpack(buf, pos, i1, 1, mpi.Int32); err != nil {
			return err
		}
		*dst = i1[0]
		return nil
	}
	uD := func(dst *float64) error {
		if err := c.Unpack(buf, pos, d1, 1, mpi.Float64); err != nil {
			return err
		}
		*dst = d1[0]
		return nil
	}
	s := &atom.Scalars
	if err = uI(&localID); err != nil {
		return
	}
	if err = uI(&s.Jmt); err != nil {
		return
	}
	if err = uI(&s.Jws); err != nil {
		return
	}
	if err = uD(&s.Xstart); err != nil {
		return
	}
	if err = uD(&s.Rmt); err != nil {
		return
	}
	if err = c.Unpack(buf, pos, s.Header[:], 80, mpi.Byte); err != nil {
		return
	}
	if err = uD(&s.Alat); err != nil {
		return
	}
	if err = uD(&s.Efermi); err != nil {
		return
	}
	if err = uD(&s.Vdif); err != nil {
		return
	}
	if err = uD(&s.Ztotss); err != nil {
		return
	}
	if err = uD(&s.Zcorss); err != nil {
		return
	}
	ev := make([]float64, 3)
	if err = c.Unpack(buf, pos, ev, 3, mpi.Float64); err != nil {
		return
	}
	copy(s.Evec[:], ev)
	if err = uI(&s.Nspin); err != nil {
		return
	}
	if err = uI(&s.Numc); err != nil {
		return
	}
	var t32 int32
	if err = uI(&t32); err != nil {
		return
	}
	if int(t32) > atom.PotentialRows() {
		atom.ResizePotential(int(t32) + 50) // Listing 4's resizePotential(t+50)
	}
	if err = c.Unpack(buf, pos, atom.VR, 2*int(t32), mpi.Float64); err != nil {
		return
	}
	if err = c.Unpack(buf, pos, atom.RhoTot, 2*int(t32), mpi.Float64); err != nil {
		return
	}
	var tc32 int32
	if err = uI(&tc32); err != nil {
		return
	}
	if int(tc32) > atom.CoreRows() {
		atom.ResizeCore(int(tc32))
	}
	if err = c.Unpack(buf, pos, atom.EC, 2*int(tc32), mpi.Float64); err != nil {
		return
	}
	if err = c.Unpack(buf, pos, atom.NC, 2*int(tc32), mpi.Int32); err != nil {
		return
	}
	if err = c.Unpack(buf, pos, atom.LC, 2*int(tc32), mpi.Int32); err != nil {
		return
	}
	err = c.Unpack(buf, pos, atom.KC, 2*int(tc32), mpi.Int32)
	return
}

// stageAtomsToPrivileged moves the full atom set from the WL master to each
// instance's privileged rank (pack once, send per group). This staging step
// is identical in every variant.
func (a *App) stageAtomsToPrivileged() error {
	p := a.P
	size := p.NumAtoms * atomPackedSize(p.TRows, p.CoreRows)
	switch a.Role {
	case RoleWL:
		buf := make([]byte, size)
		pos := 0
		for i, atom := range a.AllAtoms {
			if err := packAtom(a.World, atom, int32(i), buf, &pos); err != nil {
				return err
			}
		}
		reqs := make([]*mpi.Request, 0, p.Groups)
		for g := 0; g < p.Groups; g++ {
			r, err := a.World.Isend(buf[:pos], pos, mpi.Packed, a.L.PrivilegedWorldRank(g), atomStageTag)
			if err != nil {
				return err
			}
			reqs = append(reqs, r)
		}
		_, err := a.World.Waitall(reqs)
		return err
	case RolePrivileged:
		buf := make([]byte, size)
		if _, err := a.World.Recv(buf, size, mpi.Packed, 0, atomStageTag); err != nil {
			return err
		}
		pos := 0
		for i := range a.AllAtoms {
			id, err := unpackAtom(a.World, a.AllAtoms[i], buf, &pos)
			if err != nil {
				return err
			}
			if int(id) != i {
				return fmt.Errorf("wllsms: staged atom %d arrived with id %d", i, id)
			}
		}
	}
	return nil
}

// distributeOriginal is the paper's Listing 4 path: for every atom owned by
// a non-privileged rank, the privileged process packs every field and sends
// one MPI_PACKED message; the owner receives and unpacks.
func (a *App) distributeOriginal() error {
	c := a.Group
	p := a.P
	size := atomPackedSize(p.TRows, p.CoreRows)
	for atomIdx := 0; atomIdx < p.NumAtoms; atomIdx++ {
		to := a.L.AtomOwner(atomIdx)
		if to == privGroupRank {
			if c.Rank() == privGroupRank {
				a.adoptLocal(atomIdx)
			}
			continue
		}
		if c.Rank() == privGroupRank {
			buf := make([]byte, size)
			pos := 0
			if err := packAtom(c, a.AllAtoms[atomIdx], int32(atomIdx), buf, &pos); err != nil {
				return err
			}
			if err := c.Send(buf[:pos], pos, mpi.Packed, to, distTag); err != nil {
				return err
			}
		}
		if c.Rank() == to {
			li := a.L.LocalIndexOf(to, atomIdx)
			buf := make([]byte, size)
			if _, err := c.Recv(buf, size, mpi.Packed, privGroupRank, distTag); err != nil {
				return err
			}
			pos := 0
			id, err := unpackAtom(c, a.Local[li], buf, &pos)
			if err != nil {
				return err
			}
			a.Local[li].Scalars.LocalID = id
		}
	}
	return nil
}

// distributeDirective is the paper's Listing 5 path: per atom, one
// comm_parameters region containing three comm_p2p instances — the scalar
// composite (derived datatype), the potential/density matrices, and the
// core-state matrices — with one consolidated synchronisation.
//
// Every rank of the environment's communicator executes every region, the
// WL master included, as in setEvecDirective: the one-sided target creates
// and fences its windows collectively.
func (a *App) distributeDirective(target core.Target) error {
	p := a.P
	for atomIdx := 0; atomIdx < p.NumAtoms; atomIdx++ {
		to := a.L.AtomOwner(atomIdx)
		if to == privGroupRank {
			if a.Role == RolePrivileged {
				a.adoptLocal(atomIdx)
			}
			continue
		}
		if err := a.transferAtomDirective(atomIdx, to, target); err != nil {
			return err
		}
	}
	return nil
}

func (a *App) transferAtomDirective(atomIdx, to int, target core.Target) error {
	me := a.groupRank()
	from := privGroupRank
	li := a.L.LocalIndexOf(to, atomIdx)

	regions, err := a.regions(siteDistribute, target, a.P.NumAtoms)
	if err != nil {
		return err
	}
	s := &regions[atomIdx]
	if s.run == nil {
		a.bindTransferAtom(s, atomIdx, to, li, target)
	}

	staged := oneSided(target)
	if staged && me == from {
		if err := a.encodeScalars(a.AllAtoms[atomIdx], int32(atomIdx)); err != nil {
			return err
		}
	}
	if _, err := a.Env.RunRegion(s.run); err != nil {
		return err
	}
	if me != to {
		return nil
	}
	if staged {
		return a.decodeScalars(a.Local[li], li)
	}
	a.Local[li].Scalars.LocalID = int32(atomIdx)
	return nil
}

// bindTransferAtom freezes Listing 5 for one atom: three comm_p2p, the
// scalar composite, the potential/density matrices and the core-state
// matrices.
func (a *App) bindTransferAtom(s *boundRegion, atomIdx, to, li int, target core.Target) {
	me := a.groupRank()
	from := privGroupRank
	p := a.P

	// Buffer expressions, evaluated on every rank reaching the directive
	// (non-participants name scratch storage, like unused variables in the
	// paper's C code).
	src := a.scratch
	if me == from {
		src = a.AllAtoms[atomIdx]
	}
	dst := a.scratch
	if me == to {
		dst = a.Local[li]
	}

	params := core.Bind(
		core.SendWhen(me == from), core.ReceiveWhen(me == to),
		core.Sender(a.groupRankToWorld(from)), core.Receiver(a.groupRankToWorld(to)),
		core.WithTarget(target),
	)
	if oneSided(target) {
		// Symmetric addressing: every rank computes the owner's offsets.
		// The composite is staged as bytes (encodeScalars): it cannot live
		// in typed symmetric memory.
		t, tc := p.TRows, p.CoreRows
		s.run = core.BindRegion(params,
			core.Bind(
				core.SBuf(a.scalStage),
				core.RBuf(core.At(a.symScalars, li*a.scalarsWire)),
				core.Count(a.scalarsWire),
			),
			core.Bind(
				core.SBuf(src.VR, src.RhoTot),
				core.RBuf(core.At(a.symVR, li*2*t), core.At(a.symRho, li*2*t)),
				core.Count(2*t),
			),
			core.Bind(
				core.SBuf(src.EC, src.NC, src.LC, src.KC),
				core.RBuf(core.At(a.symEC, li*2*tc), core.At(a.symNC, li*2*tc),
					core.At(a.symLC, li*2*tc), core.At(a.symKC, li*2*tc)),
				core.Count(2*tc),
			),
		)
	} else {
		// Two-sided MPI: the composite moves via an automatically created
		// derived datatype; the matrices move as typed slices (which alias
		// the symmetric arrays, so the data lands in place either way).
		s.run = core.BindRegion(params,
			core.Bind(core.SBuf(&src.Scalars), core.RBuf(&dst.Scalars), core.Count(1)),
			core.Bind(
				core.SBuf(src.VR, src.RhoTot), core.RBuf(dst.VR, dst.RhoTot),
				core.Count(2*p.TRows),
			),
			core.Bind(
				core.SBuf(src.EC, src.NC, src.LC, src.KC),
				core.RBuf(dst.EC, dst.NC, dst.LC, dst.KC),
				core.Count(2*p.CoreRows),
			),
		)
	}
}

// groupRankToWorld translates a group rank to the directive environment's
// communicator (the world): the environment is built over the world comm,
// so clause ids are world ranks. The WL master is in no group and holds no
// role in any region: its sender and receiver clauses name itself.
func (a *App) groupRankToWorld(groupRank int) int {
	if a.Group == nil {
		return a.RK.ID
	}
	return a.Group.WorldRank(groupRank)
}

// groupRank is this rank's rank in its group; -1 on the WL master.
func (a *App) groupRank() int {
	if a.Group == nil {
		return -1
	}
	return a.Group.Rank()
}

// oneSided reports whether target writes into the receiver's memory, which
// the directive's clause list must then be able to address from the sender:
// the App's regions name symmetric storage for both one-sided targets (an
// MPI window over a symmetric array is one window on every rank, where
// per-rank destination slices would be a different collective WinCreate
// sequence on each).
func oneSided(target core.Target) bool {
	return target == core.TargetSHMEM || target == core.TargetMPI1Side
}

// encodeScalars stages the scalar composite as bytes for the one-sided
// targets, charging the staging copy.
func (a *App) encodeScalars(atom *AtomData, localID int32) error {
	lay, err := scalarsLayout()
	if err != nil {
		return err
	}
	s := atom.Scalars
	s.LocalID = localID
	if _, err := lay.Encode(a.scalStage, &s, 1); err != nil {
		return err
	}
	a.RK.Compute(a.RK.Profile().MemcpyTime(lay.WireSize))
	return nil
}

// decodeScalars unstages the scalar composite on the receiver.
func (a *App) decodeScalars(atom *AtomData, li int) error {
	lay, err := scalarsLayout()
	if err != nil {
		return err
	}
	local := a.symScalars.Local(a.Shm)
	off := li * a.scalarsWire
	if _, err := lay.Decode(local[off:off+a.scalarsWire], &atom.Scalars, 1); err != nil {
		return err
	}
	a.RK.Compute(a.RK.Profile().MemcpyTime(lay.WireSize))
	return nil
}

// adoptLocal copies the privileged rank's own atom from the staged set into
// its local (symmetric-backed) storage.
func (a *App) adoptLocal(atomIdx int) {
	li := a.L.LocalIndexOf(privGroupRank, atomIdx)
	src := a.AllAtoms[atomIdx]
	dst := a.Local[li]
	dst.Scalars = src.Scalars
	dst.Scalars.LocalID = int32(atomIdx)
	copy(dst.VR, src.VR)
	copy(dst.RhoTot, src.RhoTot)
	copy(dst.EC, src.EC)
	copy(dst.NC, src.NC)
	copy(dst.LC, src.LC)
	copy(dst.KC, src.KC)
	a.RK.Compute(a.RK.Profile().MemcpyTime(atomPackedSize(a.P.TRows, a.P.CoreRows)))
}

// DistributeAtoms runs the full initial distribution of the system's
// potentials and electron densities (the paper's first experiment): the
// staging of the atom set to each privileged rank, then the within-LIZ
// distribution using the selected implementation. Returns the measured
// virtual-time span of the whole phase.
func (a *App) DistributeAtoms(v Variant, target core.Target) (model.Time, error) {
	return a.Measure(func() error {
		if err := a.stageAtomsToPrivileged(); err != nil {
			return err
		}
		if a.Role == RoleWL && v != VariantDirective {
			return nil // the original's phase is group-local: no call on the WL master
		}
		switch v {
		case VariantOriginal, VariantOriginalWaitall:
			return a.distributeOriginal()
		case VariantDirective:
			return a.distributeDirective(target)
		default:
			return fmt.Errorf("wllsms: unknown variant %v", v)
		}
	})
}
