package mpi_test

import (
	"fmt"
	"testing"

	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/simnet"
	"commintent/internal/spmd"
)

// TestFenceOneWavePerComm: Fence over windows of two communicators closes
// them with one barrier wave per communicator, however the windows are
// interleaved, and charges each wave one fence. Every put lands.
func TestFenceOneWavePerComm(t *testing.T) {
	const n = 4
	prof := model.Uniform(100)
	var waves int64
	var spent [n]model.Time
	err := spmd.Run(n, prof, func(rk *spmd.Rank) error {
		world := mpi.World(rk)
		sub, err := world.Split(0, rk.ID) // another communicator, same members
		if err != nil {
			return err
		}
		bufs := [3][]int64{make([]int64, n), make([]int64, n), make([]int64, n)}
		var wins [3]*mpi.Win
		for i, c := range []*mpi.Comm{world, sub, world} {
			if wins[i], err = c.WinCreate(bufs[i]); err != nil {
				return err
			}
		}
		right := (rk.ID + 1) % n
		for i, w := range wins {
			if err := w.Put([]int64{int64(10*i + rk.ID)}, 1, mpi.Int64, right, rk.ID); err != nil {
				return err
			}
		}
		world.Barrier()
		g0, _ := simnet.BarrierStats()
		t0 := rk.Now()
		mpi.Fence(wins[:])
		spent[rk.ID] = rk.Now() - t0
		if rk.ID == 0 {
			g1, _ := simnet.BarrierStats()
			waves = g1 - g0
		}
		world.Barrier()
		left := (rk.ID + n - 1) % n
		for i, b := range bufs {
			if b[left] != int64(10*i+left) {
				return fmt.Errorf("rank %d window %d: slot %d = %d, want %d", rk.ID, i, left, b[left], 10*i+left)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if waves != 2 {
		t.Errorf("%d barrier generations, want one per communicator (2)", waves)
	}
	for rank, d := range spent {
		if d != 2*prof.MPIWinFence {
			t.Errorf("rank %d: the fence took %v, want one charge per wave (%v)", rank, d, 2*prof.MPIWinFence)
		}
	}
}
