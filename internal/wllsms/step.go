package wllsms

import (
	"fmt"

	"commintent/internal/core"
	"commintent/internal/model"
	"commintent/internal/mpi"
)

// StepStats reports one Wang-Landau step's outcome on this rank.
type StepStats struct {
	// CommV and ComputeV split the rank's virtual time spent in this step
	// between communication (staging, setEvec, reductions) and the
	// synthetic physics, for the 19:1 ratio check.
	CommV    model.Time
	ComputeV model.Time
	// Energy is the instance's total energy (valid on privileged ranks and
	// the master).
	Energy float64
	// Accepted reports the Wang-Landau decision (master only, for the last
	// walker updated).
	Accepted bool
}

// Step runs one full Wang-Landau step: the master proposes spin
// configurations and stages them to each instance; every instance transfers
// them within its LIZ with the selected implementation, runs
// calculateCoreStates, and reduces its energy back to the master, which
// applies the Wang-Landau update.
func (a *App) Step(v Variant, target core.Target) (StepStats, error) {
	var st StepStats
	p := a.P

	mark := a.RK.Now()
	commStart := func() { mark = a.RK.Now() }
	commEnd := func() { st.CommV += a.RK.Now() - mark }

	var proposals [][]float64
	if a.Role == RoleWL {
		proposals = make([][]float64, p.Groups)
		for g := range proposals {
			proposals[g] = a.wl.Propose(g)
		}
	}

	commStart()
	if err := a.StageSpins(proposals); err != nil {
		return st, err
	}
	if err := a.setEvecInner(v, target, nil); err != nil {
		return st, err
	}
	commEnd()

	// The physics: full calculateCoreStates over owned atoms.
	computeMark := a.RK.Now()
	var localE float64
	if a.Role != RoleWL {
		localE = a.localEnergy(a.P.GPUSpeedup)
		if err := checkFinite(localE); err != nil {
			return st, err
		}
	}
	st.ComputeV += a.RK.Now() - computeMark

	// Energy reduction within each instance, then privileged -> master.
	commStart()
	switch a.Role {
	case RoleWL:
		e1 := make([]float64, 1)
		for g := 0; g < p.Groups; g++ {
			if _, err := a.World.Recv(e1, 1, mpi.Float64, a.L.PrivilegedWorldRank(g), energyTag); err != nil {
				return st, err
			}
			st.Accepted = a.wl.Update(g, proposals[g], e1[0])
			st.Energy = e1[0]
		}
	default:
		in := []float64{localE}
		out := make([]float64, 1)
		if err := a.Group.Reduce(in, out, 1, mpi.Float64, mpi.OpSum, privGroupRank); err != nil {
			return st, err
		}
		if a.Role == RolePrivileged {
			st.Energy = out[0]
			if err := a.World.Send(out, 1, mpi.Float64, 0, energyTag); err != nil {
				return st, err
			}
		}
	}
	commEnd()
	return st, nil
}

// Run executes the configured number of Wang-Landau steps and returns the
// aggregate statistics of this rank.
func (a *App) Run(v Variant, target core.Target) (RunStats, error) {
	var rs RunStats
	for s := 0; s < a.P.Steps; s++ {
		st, err := a.Step(v, target)
		if err != nil {
			return rs, fmt.Errorf("wllsms: step %d: %w", s, err)
		}
		rs.Steps++
		rs.CommV += st.CommV
		rs.ComputeV += st.ComputeV
		rs.LastEnergy = st.Energy
	}
	if a.Role == RoleWL {
		rs.Accepted = a.wl.Accepted
		rs.Rejected = a.wl.Rejected
		rs.LnF = a.wl.LnF
	}
	return rs, nil
}

// RunStats aggregates a multi-step run on one rank.
type RunStats struct {
	Steps      int
	CommV      model.Time
	ComputeV   model.Time
	LastEnergy float64

	Accepted, Rejected int64
	LnF                float64
}

// Ratio reports the compute-to-communication ratio of the run on this rank.
func (r RunStats) Ratio() float64 {
	if r.CommV == 0 {
		return 0
	}
	return float64(r.ComputeV) / float64(r.CommV)
}
