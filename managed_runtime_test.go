package commintent

import (
	"reflect"
	"sync"
	"testing"

	"commintent/internal/core"
	"commintent/internal/model"
	rt "commintent/internal/runtime"
	"commintent/internal/spmd"
	"commintent/internal/wllsms"
)

// fig4Params is the Figure 4 workload at a size where the spin transfer
// actually has something to coalesce: 128 atoms over 16-rank instances means
// the privileged rank sends 8 small (24-byte) vectors to each worker per
// region, exactly the pattern the managed runtime batches.
func fig4Params() wllsms.Params {
	p := wllsms.DefaultParams()
	p.Groups = 2
	p.GroupSize = 16
	p.NumAtoms = 128
	return p
}

// measureFig4Directive runs the committed Figure 4 directive workload —
// unmodified wllsms source, directives and all — under the given runtime
// config and returns the measured SetEvec virtual time plus every rank's
// decision log. Every delivered spin vector is verified, so a coalescing bug
// cannot masquerade as a speedup.
func measureFig4Directive(t *testing.T, p wllsms.Params, cfg rt.Config) (model.Time, [][]core.Decision) {
	t.Helper()
	defer rt.Override(cfg)()
	w, err := spmd.NewWorld(p.NProcs(), model.GeminiLike())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var out model.Time
	logs := make([][]core.Decision, p.NProcs())
	err = w.Run(func(rk *spmd.Rank) error {
		app, err := wllsms.Setup(rk, p)
		if err != nil {
			return err
		}
		// Deferred first so it runs last, after Close has logged its flush.
		defer func() { logs[rk.ID] = app.Env.Decisions() }()
		defer app.Close()
		if _, err := app.DistributeAtoms(wllsms.VariantOriginal, core.TargetDefault); err != nil {
			return err
		}
		var spins [][]float64
		if app.Role == wllsms.RoleWL {
			spins = make([][]float64, p.Groups)
			for g := range spins {
				spins[g] = make([]float64, 3*p.NumAtoms)
				for k := range spins[g] {
					spins[g][k] = float64(g*1000 + k)
				}
			}
		}
		if err := app.StageSpins(spins); err != nil {
			return err
		}
		d, err := app.SetEvec(wllsms.VariantDirective, core.TargetMPI2Side)
		if err != nil {
			return err
		}
		if app.Role != wllsms.RoleWL {
			g := app.GroupIdx
			for li, atomIdx := range app.LocalAtoms {
				ev := app.Local[li].Scalars.Evec
				for k := 0; k < 3; k++ {
					if want := float64(g*1000 + 3*atomIdx + k); ev[k] != want {
						t.Errorf("rank %d atom %d evec[%d] = %v, want %v", app.RK.ID, atomIdx, k, ev[k], want)
					}
				}
			}
		}
		if rk.ID == 0 {
			mu.Lock()
			out = d
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Enabled() {
		if n := managedDecisions(logs); n != 0 {
			t.Errorf("runtime off but %d coalesce/autosync decision(s) recorded; goldens are no longer bit-identical", n)
		}
	}
	return out, logs
}

// managedDecisions counts the managed runtime's entries across all logs.
func managedDecisions(logs [][]core.Decision) int {
	n := 0
	for _, ds := range logs {
		for _, d := range ds {
			if d.Kind == "coalesce" || d.Kind == "autosync" {
				n++
			}
		}
	}
	return n
}

// TestManagedRuntimeFig4Speedup is the headline acceptance gate: enabling
// the managed runtime on the committed Figure 4 directive workload — with
// zero directive edits — must cut the median spin-transfer virtual time by
// at least 1.3x. The workload is virtual-time deterministic, so the "median"
// of repeated runs is the single measured value; determinism itself is
// pinned by TestManagedRuntimeDeterministicTrace below.
func TestManagedRuntimeFig4Speedup(t *testing.T) {
	p := fig4Params()
	off, _ := measureFig4Directive(t, p, rt.Config{})
	on, _ := measureFig4Directive(t, p, rt.Config{Coalesce: true})
	if off <= 0 || on <= 0 {
		t.Fatalf("non-positive virtual times: off=%d on=%d", off, on)
	}
	ratio := float64(off) / float64(on)
	t.Logf("fig4 directive-mpi2side: off=%v on=%v speedup=%.2fx", off, on, ratio)
	if ratio < 1.3 {
		t.Errorf("managed runtime speedup %.2fx < 1.3x (off=%d on=%d)", ratio, off, on)
	}
}

// TestManagedRuntimeDeterministicTrace: same seed, same program, managed
// runtime on → identical virtual times and, on every rank, the identical
// sequence of decisions. This is the replayability contract post-mortem
// debugging relies on.
func TestManagedRuntimeDeterministicTrace(t *testing.T) {
	p := fig4Params()
	v1, logs1 := measureFig4Directive(t, p, rt.Config{Coalesce: true})
	v2, logs2 := measureFig4Directive(t, p, rt.Config{Coalesce: true})
	if v1 != v2 {
		t.Errorf("virtual times diverged across same-seed runs: %d != %d", v1, v2)
	}
	for rank := range logs1 {
		if !reflect.DeepEqual(logs1[rank], logs2[rank]) {
			t.Errorf("rank %d decision logs diverged across same-seed runs:\n%v\n%v", rank, logs1[rank], logs2[rank])
		}
	}
	if managedDecisions(logs1) == 0 {
		t.Error("managed runtime on but no rank recorded a coalesce decision")
	}
}
