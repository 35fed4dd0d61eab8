package wllsms

import (
	"fmt"
	"math"

	"commintent/internal/core"
	"commintent/internal/model"
)

// coreStateCost is the synthetic compute cost of calculateCoreStates for
// one atom, scaled by the fraction of the work and the projected GPU
// speedup (Figure 5 divides the compute time by 10).
func (a *App) coreStateCost(frac, gpuSpeedup float64) model.Time {
	base := float64(a.P.TRows) * float64(a.P.ComputePerRow)
	return model.Time(base * frac / gpuSpeedup)
}

// coreStatesIndependent is the part of calculateCoreStates that does not
// depend on the incoming spin configuration — the computation the paper
// overlaps with the communication in Listing 7.
func (a *App) coreStatesIndependent(li int, gpuSpeedup float64) float64 {
	atom := a.Local[li]
	a.RK.Compute(a.coreStateCost(a.P.OverlapFraction, gpuSpeedup))
	e := 0.0
	for i := 0; i < len(atom.VR); i += 7 {
		e += atom.VR[i] * 1e-3
	}
	for i, v := range atom.EC {
		e += v * float64(atom.NC[i]) * 1e-2
	}
	return e
}

// coreStatesSpinDependent is the remainder of calculateCoreStates, which
// needs the atom's received spin vector.
func (a *App) coreStatesSpinDependent(li int, gpuSpeedup float64) float64 {
	atom := a.Local[li]
	a.RK.Compute(a.coreStateCost(1-a.P.OverlapFraction, gpuSpeedup))
	s := &atom.Scalars
	// A deterministic Heisenberg-flavoured energy: the spin couples to an
	// effective field derived from the atom's density.
	h := [3]float64{0, 0, 0}
	for i, v := range atom.RhoTot {
		h[i%3] += v * 1e-3
	}
	e := -(s.Evec[0]*h[0] + s.Evec[1]*h[1] + s.Evec[2]*h[2]) * s.Ztotss
	e += 0.01 * s.Efermi * float64(s.Jws)
	return e
}

// AtomEnergy runs the full calculateCoreStates for one local atom and
// returns its energy contribution.
func (a *App) AtomEnergy(li int, gpuSpeedup float64) float64 {
	return a.coreStatesIndependent(li, gpuSpeedup) + a.coreStatesSpinDependent(li, gpuSpeedup)
}

// localEnergy computes this rank's energy contribution (all owned atoms).
func (a *App) localEnergy(gpuSpeedup float64) float64 {
	e := 0.0
	for li := range a.Local {
		e += a.AtomEnergy(li, gpuSpeedup)
	}
	return e
}

// CoreStatesSequential is the Figure 5 baseline: the original (wait-loop)
// spin transfer followed by the full computation, with the compute cost
// divided by gpuSpeedup (the paper projects a 10x GPU port). Returns the
// measured span and the summed local energy (for result verification).
func (a *App) CoreStatesSequential(v Variant, target core.Target, gpuSpeedup float64) (model.Time, float64, error) {
	var energy float64
	d, err := a.Measure(func() error {
		if err := a.setEvecInner(v, target, nil); err != nil {
			return err
		}
		energy = a.localEnergy(gpuSpeedup)
		return nil
	})
	return d, energy, err
}

// CoreStatesOverlapped is the Figure 5 directive version (Listing 7): the
// spin-independent part of calculateCoreStates runs as the comm_p2p overlap
// body while the transfers are in flight; the spin-dependent part runs
// after the region's consolidated synchronisation.
func (a *App) CoreStatesOverlapped(target core.Target, gpuSpeedup float64) (model.Time, float64, error) {
	var energy float64
	d, err := a.Measure(func() error {
		partial := make([]float64, len(a.Local))
		err := a.setEvecInner(VariantDirective, target, func(li int) error {
			partial[li] = a.coreStatesIndependent(li, gpuSpeedup)
			return nil
		})
		if err != nil {
			return err
		}
		for li := range a.Local {
			energy += partial[li] + a.coreStatesSpinDependent(li, gpuSpeedup)
		}
		return nil
	})
	return d, energy, err
}

// checkFinite guards the synthetic numerics.
func checkFinite(e float64) error {
	if math.IsNaN(e) || math.IsInf(e, 0) {
		return fmt.Errorf("wllsms: non-finite energy %v", e)
	}
	return nil
}
