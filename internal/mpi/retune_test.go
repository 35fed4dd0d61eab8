package mpi_test

import (
	"testing"

	"commintent/internal/model"
	"commintent/internal/mpi"
	rt "commintent/internal/runtime"
	"commintent/internal/spmd"
)

// The managed runtime no longer retunes collectives: they have one data
// movement, so there is no choice to make. These tests pin what that leaves
// behind on the collective path — the runtime's configuration cannot reach
// a collective's virtual time, and runs stay deterministic either way.

// retuneWorkload runs a shifting mix of allreduce sizes, the workload the
// tuner used to observe, and spot-checks every result.
func retuneWorkload(t *testing.T, w *spmd.World, iters int) {
	t.Helper()
	if err := w.Run(func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		sizes := []int{8, 512, 8192}
		for iter := 0; iter < iters; iter++ {
			for _, sz := range sizes {
				in := make([]float64, sz)
				out := make([]float64, sz)
				for i := range in {
					in[i] = float64(rk.ID + i + iter)
				}
				if err := c.Allreduce(in, out, sz, mpi.Float64, mpi.OpSum); err != nil {
					return err
				}
				// Spot-check correctness on element 0: sum over ranks of
				// (rank + iter).
				want := float64(iter * c.Size())
				for r := 0; r < c.Size(); r++ {
					want += float64(r)
				}
				if out[0] != want {
					t.Errorf("rank %d iter %d sz %d: out[0] = %v, want %v", rk.ID, iter, sz, out[0], want)
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// retuneRun runs the workload once under cfg and returns the world's
// virtual makespan.
func retuneRun(t *testing.T, cfg rt.Config, iters int) model.Time {
	t.Helper()
	defer rt.Override(cfg)()
	w, err := spmd.NewWorld(8, model.GeminiLike())
	if err != nil {
		t.Fatal(err)
	}
	retuneWorkload(t, w, iters)
	return w.MaxVirtualTime()
}

// TestRetuneDeterministic: same program, same profile, the managed runtime
// fully on → identical virtual times.
func TestRetuneDeterministic(t *testing.T) {
	full := rt.Config{Coalesce: true, AutoSync: true}
	if v1, v2 := retuneRun(t, full, 6), retuneRun(t, full, 6); v1 != v2 {
		t.Errorf("virtual times diverged: %d != %d", v1, v2)
	}
}

// TestRetuneOffIsBitIdentical: the managed runtime disabled must not change
// a single virtual nanosecond between runs, and — with retuning gone — the
// runtime fully enabled must not change one either: a collective's virtual
// time is the cost model's alone (the golden-compatibility contract).
func TestRetuneOffIsBitIdentical(t *testing.T) {
	a := retuneRun(t, rt.Config{}, 3)
	b := retuneRun(t, rt.Config{}, 3)
	if a != b {
		t.Fatalf("runtime-off runs disagree with each other: %d != %d", a, b)
	}
	if on := retuneRun(t, rt.Config{Coalesce: true, AutoSync: true}, 3); on != a {
		t.Errorf("managed runtime on: %d, want the runtime-off %d", on, a)
	}
	if tr := rt.Active(); tr.Enabled() {
		t.Fatal("override leak")
	}
}
