package mpi_test

import (
	"fmt"
	"testing"

	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/spmd"
)

// TestCommRankOf: translating a world rank to a comm rank agrees with a
// scan of the communicator's members, for every world rank, on the world,
// on a split that reorders and drops ranks, and on a split that keeps the
// world in order.
func TestCommRankOf(t *testing.T) {
	const n = 7
	scan := func(c *mpi.Comm, w int) int {
		for i := range c.Size() {
			if c.WorldRank(i) == w {
				return i
			}
		}
		return -1
	}
	err := spmd.Run(n, model.Uniform(100), func(rk *spmd.Rank) error {
		world := mpi.World(rk)
		odd, err := world.Split(rk.ID%2, n-rk.ID) // reversed, half the world
		if err != nil {
			return err
		}
		same, err := world.Split(0, rk.ID) // the world in order
		if err != nil {
			return err
		}
		for _, c := range []*mpi.Comm{world, odd, same} {
			for w := range n {
				if got, want := c.CommRankOf(w), scan(c, w); got != want {
					return fmt.Errorf("rank %d comm %s: world rank %d -> %d, want %d", rk.ID, c.ID(), w, got, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
