package main

import (
	"commintent/internal/core"
	"commintent/internal/model"
	rt "commintent/internal/runtime"
	"commintent/internal/spmd"
	"commintent/internal/wllsms"
)

// fig4Workload is the paper's own mini-app phase (Fig. 4): the WL master
// stages a fresh spin proposal on each LSMS instance's privileged rank,
// which sends every atom's 3-double spin to its owner. One long-lived
// world; one op is StageSpins + SetEvec. SetEvec times itself between two
// world synchronisations, and that span is the op's virtual time.
//
// SetEvec(VariantDirective, TargetMPI1Side) is not a rung: it never
// returns when the WL master sits out the region (see README, findings).
func fig4Workload() *workload {
	w := &workload{
		name: "fig4_shmem_r33", ranks: 33, transport: "simnet", procs: 1,
		batch: 200, batches: 16,
		top:       "shmem",
		ladder:    []string{"stage", "original", "handwritten", "mpi2side", "coalesce", "shmem"},
		selfTimed: true,
		prepare:   noPrepare,
	}
	w.setup = func(rk *spmd.Rank, _ *shared, in *inputs, _ func() model.Time, _ func(string) bool) (*program, error) {
		p := wllsms.DefaultParams()
		p.Groups = 2
		p.GroupSize = (rk.N - 1) / p.Groups
		p.NumAtoms = 8 * p.GroupSize // 128 atoms per instance at 16 ranks
		p.Seed = int64(in.seed)
		app, err := wllsms.Setup(rk, p)
		if err != nil {
			return nil, err
		}
		if _, err := app.DistributeAtoms(wllsms.VariantOriginal, core.TargetDefault); err != nil {
			return nil, err
		}
		var spins [][]float64
		if app.Role == wllsms.RoleWL {
			spins = make([][]float64, p.Groups)
			for g := range spins {
				spins[g] = make([]float64, 3*p.NumAtoms)
			}
		}
		stage := func(seq int) error {
			for g := range spins {
				for j := range spins[g] {
					spins[g][j] = in.spin(seq, g, j)
				}
			}
			return app.StageSpins(spins)
		}
		landed := func(seq int) error {
			for li, atom := range app.LocalAtoms {
				for k, got := range app.Local[li].Scalars.Evec {
					if got != in.spin(seq, app.GroupIdx, 3*atom+k) {
						return errMismatch
					}
				}
			}
			return nil
		}
		setEvec := func(v wllsms.Variant, target core.Target) func(int) (model.Time, error) {
			return func(seq int) (model.Time, error) {
				if err := stage(seq); err != nil {
					return 0, err
				}
				d, err := app.SetEvec(v, target)
				if err != nil {
					return 0, err
				}
				return d, landed(seq)
			}
		}

		prog := &program{close: app.Close}
		add := func(r *rung) { prog.rungs = append(prog.rungs, r) }
		add(plainRung("stage", stage))
		add(&rung{name: "original", op: setEvec(wllsms.VariantOriginal, core.TargetDefault)})
		add(&rung{name: "handwritten", op: setEvec(wllsms.VariantOriginalWaitall, core.TargetDefault)})
		add(&rung{name: "mpi2side", op: setEvec(wllsms.VariantDirective, core.TargetMPI2Side)})
		// The managed runtime's configuration is process-wide, so the
		// coalescing rung switches it on for its own batches only.
		var restore func()
		add(&rung{
			name:  "coalesce",
			op:    setEvec(wllsms.VariantDirective, core.TargetMPI2Side),
			enter: func() { restore = rt.Override(rt.Config{Coalesce: true}) },
			leave: func() { restore() },
		})
		add(&rung{name: "shmem", op: setEvec(wllsms.VariantDirective, core.TargetSHMEM)})
		return prog, nil
	}
	w.derive = func(l ladderStats, m metrics) {
		hand, two, top := l["handwritten"], l["mpi2side"], l["shmem"]
		m["mpi.us_per_op"] = hand.us
		m["mpi.allocs_per_op"] = hand.allocs
		m["mpi.vtime_us_per_op"] = hand.vus
		// The directive's cost over hand-written calls, both on two-sided MPI.
		m["core.added_us_per_op"] = two.us - hand.us
		m["core.overhead_x"] = ratio(two.us, hand.us)
		m["core.allocs_added_per_op"] = two.allocs - hand.allocs
		m["core.vtime_added_us"] = two.vus - hand.vus
		m["core.retarget_shmem_us_per_op"] = top.us
		m["wllsms.handwritten_us_per_op"] = hand.us
		m["wllsms.handwritten_vtime_us"] = hand.vus
		m["wllsms.vtime_vs_handwritten_x"] = ratio(top.vus, hand.vus)
		m["wllsms.original_vtime_us"] = l["original"].vus
		m["wllsms.mpi2side_us_per_op"] = two.us
		m["wllsms.mpi2side_vtime_us"] = two.vus
		m["wllsms.stage_us_per_op"] = l["stage"].us
		m["runtime.coalesce_us_per_op"] = l["coalesce"].us
		m["runtime.coalesce_vtime_us_per_op"] = l["coalesce"].vus
	}
	return w
}
