package commintent

import (
	"math/rand"
	"runtime"
	"testing"

	"commintent/internal/core"
	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/shmem"
	"commintent/internal/spmd"
)

// shmemRingHalo runs a 256-rank bidirectional ring halo on the SHMEM target
// — put, quiet, flag, wait_until per neighbour per iteration, with no
// barrier between iterations, so a fast neighbour's next puts and flags land
// while a slow rank still waits on this iteration's — and returns the
// per-rank final virtual times. schedule perturbs only the host's
// interleaving (each rank yields a pseudo-random number of times before each
// iteration), never the program.
func shmemRingHalo(t *testing.T, schedule int64) []model.Time {
	t.Helper()
	const n, iters, count = 256, 6, 16
	w, err := spmd.NewWorld(n, model.GeminiLike())
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(rk *spmd.Rank) error {
		me := rk.ID
		left, right := (me+n-1)%n, (me+1)%n
		shm := shmem.New(rk)
		haloL := shmem.MustAlloc[float64](shm, count)
		haloR := shmem.MustAlloc[float64](shm, count)
		env, err := core.NewEnv(mpi.World(rk), shm)
		if err != nil {
			return err
		}
		defer env.Close()
		edge := make([]float64, count)
		yields := rand.New(rand.NewSource(schedule*n + int64(me)))
		for it := 0; it < iters; it++ {
			for y := yields.Intn(8); y > 0; y-- {
				runtime.Gosched()
			}
			// Uneven compute, so neighbours drift apart in virtual time and
			// whose traffic has landed when matters.
			rk.Clock().Advance(model.Time(100 * ((me*7 + it*13) % 5)))
			err := env.Parameters(func(r *core.Region) error {
				if err := r.P2P(core.Sender(left), core.Receiver(right),
					core.SBuf(edge), core.RBuf(haloL), core.Count(count)); err != nil {
					return err
				}
				return r.P2P(core.Sender(right), core.Receiver(left),
					core.SBuf(edge), core.RBuf(haloR), core.Count(count))
			}, core.WithTarget(core.TargetSHMEM))
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	times := make([]model.Time, n)
	for r := range times {
		times[r] = w.Fabric().Endpoint(r).Clock().Now()
	}
	return times
}

// TestShmemRingHaloSameSeedBitIdentical: virtual time is a property of the
// program, not of the host schedule. Fresh worlds running the same SHMEM
// ring halo, each under a different interleaving of its rank goroutines,
// must report identical per-rank virtual times. They did not while
// wait_until advanced the waiter to the latest arrival of *any* one-sided
// traffic that happened to have landed on its PE (the other neighbour's
// puts, or a fast neighbour's next iteration) instead of the arrival of the
// flag write that satisfied the wait.
func TestShmemRingHaloSameSeedBitIdentical(t *testing.T) {
	worlds := 8
	if testing.Short() {
		worlds = 3
	}
	want := shmemRingHalo(t, 0)
	for i := 1; i < worlds; i++ {
		got := shmemRingHalo(t, int64(i))
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("world %d: rank %d finished at virtual time %v, world 0 at %v", i, r, got[r], want[r])
			}
		}
	}
}
