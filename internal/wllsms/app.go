package wllsms

import (
	"fmt"
	"math/rand"

	"commintent/internal/core"
	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/shmem"
	"commintent/internal/spmd"
)

// App is the per-rank application state.
type App struct {
	P  Params
	L  Layout
	RK *spmd.Rank

	World *mpi.Comm
	Group *mpi.Comm // nil on the WL master
	Shm   *shmem.Ctx
	Env   *core.Env

	Role     Role
	GroupIdx int // -1 on the WL master

	// AllAtoms is the privileged rank's full copy of its instance's atoms
	// (the distribution source). Empty elsewhere.
	AllAtoms []*AtomData
	// Local holds this rank's owned atoms; their matrix storage aliases
	// the symmetric arrays below, so directive transfers of any target
	// land directly in the application's data structures.
	Local      []*AtomData
	LocalAtoms []int // atom indices owned by this rank

	// Symmetric storage. Each owned atom li occupies element range
	// [li*stride, (li+1)*stride) of the corresponding array.
	scalarsWire int
	symScalars  *shmem.Slice[uint8]
	symVR       *shmem.Slice[float64]
	symRho      *shmem.Slice[float64]
	symEC       *shmem.Slice[float64]
	symNC       *shmem.Slice[int32]
	symLC       *shmem.Slice[int32]
	symKC       *shmem.Slice[int32]

	// symMix stages worker densities per atom for the mixing phase on the
	// one-sided targets.
	symMix *shmem.Slice[float64]

	// Spin-configuration staging: symEv holds the instance's full spin set
	// (3 doubles per atom) on the privileged rank; symEvec is each rank's
	// per-owned-atom destination.
	symEv   *shmem.Slice[float64]
	symEvec *shmem.Slice[float64]

	// scratch is a placeholder atom used for clause buffer expressions on
	// ranks that neither send nor receive a given directive (the variable
	// must still name valid storage, as in the paper's C listings).
	scratch *AtomData
	// scalStage stages the encoded scalar struct for one-sided transfers
	// (a composite cannot live in typed symmetric memory).
	scalStage []byte

	// sites keys the bound forms of the App's directive regions in Env's
	// site table, per region kind and target (see sites.go).
	sites [numSiteKinds][core.TargetAuto + 1]core.SiteKey
	// overlap is the overlap body of the setEvec region being executed:
	// the bound per-atom bodies call through it.
	overlap func(li int) error
	// stageReqs are StageSpins' requests on the WL master, one per group,
	// started again by every call.
	stageReqs []*mpi.Request

	wl *WangLandau // WL master state (rank 0 only)
}

// Setup builds the application on one rank: communicator split into LSMS
// groups, SHMEM initialisation, directive environment, atom generation on
// privileged ranks, and symmetric buffer allocation.
func Setup(rk *spmd.Rank, p Params) (*App, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if rk.N != p.NProcs() {
		return nil, fmt.Errorf("wllsms: world size %d does not match config (%d)", rk.N, p.NProcs())
	}
	a := &App{P: p, L: Layout{P: p}, RK: rk}
	a.World = mpi.World(rk)
	a.Shm = shmem.New(rk)
	a.Role = a.L.RoleOf(rk.ID)
	a.GroupIdx = a.L.GroupOf(rk.ID)

	color := a.GroupIdx
	if a.Role == RoleWL {
		color = -1
	}
	g, err := a.World.Split(color, rk.ID)
	if err != nil {
		return nil, err
	}
	a.Group = g

	env, err := core.NewEnv(a.World, a.Shm)
	if err != nil {
		return nil, err
	}
	a.Env = env

	// Wire size of the scalar struct, for the SHMEM byte staging.
	lay, err := scalarsLayout()
	if err != nil {
		return nil, err
	}
	a.scalarsWire = lay.WireSize

	// Symmetric allocation is world-collective: every rank participates
	// with identical sizes.
	maxLocal := a.L.MaxLocalAtoms()
	t, tc := p.TRows, p.CoreRows
	if a.symScalars, err = shmem.Alloc[uint8](a.Shm, maxLocal*a.scalarsWire); err != nil {
		return nil, err
	}
	if a.symVR, err = shmem.Alloc[float64](a.Shm, maxLocal*2*t); err != nil {
		return nil, err
	}
	if a.symRho, err = shmem.Alloc[float64](a.Shm, maxLocal*2*t); err != nil {
		return nil, err
	}
	if a.symEC, err = shmem.Alloc[float64](a.Shm, maxLocal*2*tc); err != nil {
		return nil, err
	}
	if a.symNC, err = shmem.Alloc[int32](a.Shm, maxLocal*2*tc); err != nil {
		return nil, err
	}
	if a.symLC, err = shmem.Alloc[int32](a.Shm, maxLocal*2*tc); err != nil {
		return nil, err
	}
	if a.symKC, err = shmem.Alloc[int32](a.Shm, maxLocal*2*tc); err != nil {
		return nil, err
	}
	if a.symMix, err = shmem.Alloc[float64](a.Shm, p.NumAtoms*2*t); err != nil {
		return nil, err
	}
	if a.symEv, err = shmem.Alloc[float64](a.Shm, 3*p.NumAtoms); err != nil {
		return nil, err
	}
	if a.symEvec, err = shmem.Alloc[float64](a.Shm, 3*maxLocal); err != nil {
		return nil, err
	}

	a.initAtoms()
	if a.Role == RoleWL {
		a.wl = NewWangLandau(p)
	}
	return a, nil
}

// initAtoms generates the full atom set on privileged ranks and allocates
// (empty) owned-atom storage, aliased onto the symmetric arrays, on every
// LSMS rank.
func (a *App) initAtoms() {
	p := a.P
	a.scratch = NewAtomData(p.TRows, p.CoreRows)
	a.scalStage = make([]byte, a.scalarsWire)
	if a.Role == RoleWL {
		// The master holds the input atom set (the paper's 16 iron atoms)
		// and stages it to each LSMS instance's privileged rank.
		rng := rand.New(rand.NewSource(p.Seed))
		a.AllAtoms = make([]*AtomData, p.NumAtoms)
		for i := range a.AllAtoms {
			a.AllAtoms[i] = GenerateAtom(i, p.TRows, p.CoreRows, rng)
		}
		return
	}
	if a.Role == RolePrivileged {
		// Filled by the staging step of DistributeAtoms.
		a.AllAtoms = make([]*AtomData, p.NumAtoms)
		for i := range a.AllAtoms {
			a.AllAtoms[i] = NewAtomData(p.TRows, p.CoreRows)
		}
	}
	a.LocalAtoms = a.L.LocalAtoms(a.Group.Rank())
	a.Local = make([]*AtomData, len(a.LocalAtoms))
	t, tc := p.TRows, p.CoreRows
	vr := a.symVR.Local(a.Shm)
	rho := a.symRho.Local(a.Shm)
	ec := a.symEC.Local(a.Shm)
	nc := a.symNC.Local(a.Shm)
	lc := a.symLC.Local(a.Shm)
	kc := a.symKC.Local(a.Shm)
	for li := range a.Local {
		atom := &AtomData{
			VR:     vr[li*2*t : (li+1)*2*t],
			RhoTot: rho[li*2*t : (li+1)*2*t],
			EC:     ec[li*2*tc : (li+1)*2*tc],
			NC:     nc[li*2*tc : (li+1)*2*tc],
			LC:     lc[li*2*tc : (li+1)*2*tc],
			KC:     kc[li*2*tc : (li+1)*2*tc],
		}
		a.Local[li] = atom
	}
}

// Close releases the directive environment (flushing deferred syncs).
func (a *App) Close() error {
	return a.Env.Close()
}

// Measure runs f between two world synchronisation points and returns the
// virtual-time makespan of the enclosed phase. After the opening barrier
// every rank's clock is identical; the closing rendezvous max-reduces the
// finish times without charging its own cost, so the result is exactly the
// parallel time of the phase and every rank returns the same value.
func (a *App) Measure(f func() error) (model.Time, error) {
	a.World.Barrier()
	t0 := a.RK.Now()
	if err := f(); err != nil {
		return 0, err
	}
	maxV := a.RK.World().Fabric().WorldBarrier().Wait(a.RK.ID, a.RK.Now())
	a.RK.Clock().AdvanceTo(maxV)
	return maxV - t0, nil
}

// privGroupRank is the privileged process's rank within a group comm.
const privGroupRank = 0

// spinTag is the user tag for WL->privileged spin staging traffic.
const spinTag = 31

// energyTag is the user tag for privileged->WL energy returns.
const energyTag = 32
