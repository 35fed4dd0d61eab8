package wllsms_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"commintent/internal/core"
	"commintent/internal/model"
	"commintent/internal/spmd"
	"commintent/internal/wllsms"
)

// TestEveryPhaseEveryTarget: the distribution (Listing 5), the spin
// transfer (Listing 7) and both mixing regions land their data on all three
// targets of one 9-rank world — the first execution of each (which binds
// the regions, and on the one-sided target creates their windows
// collectively) and the replays after it. The WL master holds no role in
// any of these regions but executes every one: when it sat a region out,
// the one-sided target's 8 other ranks waited in WinCreate for ever, hence
// the deadline.
func TestEveryPhaseEveryTarget(t *testing.T) {
	p := smallParams()
	ref := referenceAtoms(p)
	spin := func(round, g, k int) float64 { return float64(round*100000 + g*1000 + k) }
	done := make(chan error, 1)
	go func() {
		done <- spmd.Run(p.NProcs(), model.Uniform(50), func(rk *spmd.Rank) error {
			app, err := wllsms.Setup(rk, p)
			if err != nil {
				return err
			}
			defer app.Close()
			var spins [][]float64
			if app.Role == wllsms.RoleWL {
				spins = make([][]float64, p.Groups)
				for g := range spins {
					spins[g] = make([]float64, 3*p.NumAtoms)
				}
			}
			round := 0
			for rep := 0; rep < 3; rep++ {
				for _, target := range []core.Target{core.TargetMPI2Side, core.TargetMPI1Side, core.TargetSHMEM} {
					round++
					tag := fmt.Sprintf("%v round %d", target, round)

					// The previous round's mixing changed every potential,
					// so the reference can only be back if it landed again.
					if _, err := app.DistributeAtoms(wllsms.VariantDirective, target); err != nil {
						return fmt.Errorf("%s: distribute: %w", tag, err)
					}
					verifyDistribution(t, app, ref, tag)

					for g := range spins {
						for k := range spins[g] {
							spins[g][k] = spin(round, g, k)
						}
					}
					if err := app.StageSpins(spins); err != nil {
						return err
					}
					if _, err := app.SetEvec(wllsms.VariantDirective, target); err != nil {
						return fmt.Errorf("%s: setEvec: %w", tag, err)
					}
					for li, atom := range app.LocalAtoms {
						for k, got := range app.Local[li].Scalars.Evec {
							if want := spin(round, app.GroupIdx, 3*atom+k); got != want {
								return fmt.Errorf("%s: rank %d atom %d evec[%d] = %v, want %v",
									tag, rk.ID, atom, k, got, want)
							}
						}
					}

					for li, atom := range app.LocalAtoms {
						for i := range app.Local[li].RhoTot {
							app.Local[li].RhoTot[i] += float64(round*10000 + atom*1000 + i)
						}
					}
					if _, err := app.MixDensities(wllsms.VariantDirective, target); err != nil {
						return fmt.Errorf("%s: mixing: %w", tag, err)
					}
					for li, atom := range app.LocalAtoms {
						for i, got := range app.Local[li].VR {
							want := (1-wllsms.MixingFraction)*ref[atom].VR[i] - wllsms.MixingFraction*0.01*app.Local[li].RhoTot[i]
							if got != want {
								return fmt.Errorf("%s: rank %d atom %d mixed vr[%d] = %v, want %v",
									tag, rk.ID, atom, i, got, want)
							}
						}
					}
				}
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a phase did not return on every rank within 30s")
	}
}

// TestBoundRegionsMatchFreshClauseLists: the App binds its directive
// regions once and replays them. Executing them that way must read the same
// virtual time, to the bit, as building and lowering every clause list
// afresh for every call — for the distribution (Fig. 3), the spin transfer
// with and without an overlap body (Fig. 4, Fig. 5) and the mixing phase,
// on every target.
func TestBoundRegionsMatchFreshClauseLists(t *testing.T) {
	p := smallParams()
	p.NumAtoms = 8 // two atoms per rank: the privileged rank owns some too
	for _, target := range []core.Target{core.TargetMPI2Side, core.TargetSHMEM, core.TargetMPI1Side, core.TargetAuto} {
		t.Run(target.String(), func(t *testing.T) {
			sequence := func(drop bool) [][]model.Time {
				out := make([][]model.Time, p.NProcs())
				runApp(t, p, model.GeminiLike(), func(app *wllsms.App) error {
					var spins [][]float64
					if app.Role == wllsms.RoleWL {
						spins = make([][]float64, p.Groups)
						for g := range spins {
							spins[g] = make([]float64, 3*p.NumAtoms)
						}
					}
					var times []model.Time
					phase := func(f func() (model.Time, error)) error {
						if drop {
							app.DropBound()
						}
						d, err := f()
						times = append(times, d, app.RK.Now())
						return err
					}
					for round := 0; round < 3; round++ {
						if err := phase(func() (model.Time, error) {
							return app.DistributeAtoms(wllsms.VariantDirective, target)
						}); err != nil {
							return err
						}
						for g := range spins {
							for k := range spins[g] {
								spins[g][k] = float64(round*1000 + g*100 + k)
							}
						}
						if err := app.StageSpins(spins); err != nil {
							return err
						}
						if err := phase(func() (model.Time, error) {
							return app.SetEvec(wllsms.VariantDirective, target)
						}); err != nil {
							return err
						}
						if err := phase(func() (model.Time, error) {
							d, _, err := app.CoreStatesOverlapped(target, 10)
							return d, err
						}); err != nil {
							return err
						}
						if err := phase(func() (model.Time, error) {
							return app.MixDensities(wllsms.VariantDirective, target)
						}); err != nil {
							return err
						}
					}
					out[app.RK.ID] = times
					return nil
				})
				return out
			}
			bound, fresh := sequence(false), sequence(true)
			for rank := range bound {
				if fmt.Sprint(bound[rank]) != fmt.Sprint(fresh[rank]) {
					t.Errorf("rank %d: virtual times differ\nbound: %v\nfresh: %v", rank, bound[rank], fresh[rank])
				}
				if len(bound[rank]) == 0 {
					t.Errorf("rank %d recorded nothing", rank)
				}
			}
		})
	}
}

// raceEnabled is set by race_test.go. The detector's own bookkeeping
// allocates, so the allocation guard only means something without it.
var raceEnabled bool

// TestSetEvecReplayAllocs: once bound, Listing 7's region allocates nothing
// per execution on any rank — the privileged rank's 6 comm_p2p, a worker's
// 2, the WL master's idle one — on any target (the two-sided one starts its
// operations in the region ledger's requests), and neither does the staging
// before it: the WL master's sends reuse the App's requests.
func TestSetEvecReplayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const warm, ops = 20, 200
	// One P, as in testing.AllocsPerRun: with more than one, a rank that
	// parks — in a receive, or in the barrier, whose park allocates nothing
	// itself — can make the runtime allocate (a sudog when its caches are
	// empty, a thread to run the woken rank), which is not what is measured.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := smallParams()
	p.NumAtoms = 8
	for _, target := range []core.Target{core.TargetSHMEM, core.TargetMPI1Side, core.TargetMPI2Side} {
		var before, after runtime.MemStats
		runApp(t, p, model.GeminiLike(), func(app *wllsms.App) error {
			if _, err := app.DistributeAtoms(wllsms.VariantOriginal, core.TargetDefault); err != nil {
				return err
			}
			// Rank 0 reads the counters while the others sit between two
			// barriers.
			read := func(m *runtime.MemStats) {
				app.World.Barrier()
				if app.RK.ID == 0 {
					runtime.ReadMemStats(m)
				}
				app.World.Barrier()
			}
			var spins [][]float64
			if app.Role == wllsms.RoleWL {
				spins = make([][]float64, p.Groups)
				for g := range spins {
					spins[g] = make([]float64, 3*p.NumAtoms)
				}
			}
			for i := 0; i < warm+ops; i++ {
				if i == warm {
					read(&before)
				}
				if err := app.StageSpins(spins); err != nil {
					return err
				}
				if err := app.SetEvecInnerForDebug(wllsms.VariantDirective, target); err != nil {
					return err
				}
				app.World.Barrier() // the destinations are reused: consumption sync
			}
			read(&after)
			return nil
		})
		got := float64(after.Mallocs-before.Mallocs) / float64(p.NProcs()*ops)
		t.Logf("%v: %.3f allocations per rank per region", target, got)
		if got >= 0.01 {
			t.Errorf("%v: %.3f allocations per rank per replayed region, want 0", target, got)
		}
	}
}
