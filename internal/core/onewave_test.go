package core_test

import (
	"fmt"
	"testing"

	"commintent/internal/core"
	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/simnet"
	"commintent/internal/spmd"
)

// TestOneSidedRegionOneWave: a one-sided region whose two comm_p2p put into
// two windows closes them with one barrier wave per flush, on every rank —
// rank 1 among them, whose roles put into one window only — and is charged
// one fence. The bytes land, and every rank leaves the region at the
// one-wave time: the latest rank's entry (its clock or its last put's
// arrival, whichever is later) plus one MPIWinFence.
func TestOneSidedRegionOneWave(t *testing.T) {
	const n, count, regions = 4, 8, 3
	prof := model.GeminiLike()
	var entry [n]model.Time  // per rank: one-wave entry time of the last region
	var after [n]model.Time  // per rank: clock after the last region
	var waves [regions]int64 // barrier generations per region, read by rank 0
	var fences [n]int        // per rank: fence decisions closing both windows
	err := spmd.Run(n, prof, func(rk *spmd.Rank) error {
		comm := mpi.World(rk)
		e, err := core.NewEnv(comm, nil)
		if err != nil {
			return err
		}
		defer e.Close()
		me := rk.ID
		left, right := (me+n-1)%n, (me+1)%n
		edgeL, edgeR := make([]float64, count), make([]float64, count)
		haloL, haloR := make([]float64, count), make([]float64, count)
		toLeft := me != 1 // rank 1 puts into haloR's window never
		region := func(seq int) error {
			for i := range edgeL {
				edgeL[i], edgeR[i] = float64(1000*seq+10*me+1), float64(1000*seq+10*me+2)
			}
			return e.Parameters(func(r *core.Region) error {
				if err := r.P2P(core.Sender(left), core.Receiver(right),
					core.SBuf(edgeR), core.RBuf(haloL), core.Count(count)); err != nil {
					return err
				}
				return r.P2P(core.Sender(right), core.Receiver(left),
					core.SendWhen(toLeft), core.ReceiveWhen(me != 0),
					core.SBuf(edgeL), core.RBuf(haloR), core.Count(count))
			}, core.WithTarget(core.TargetMPI1Side))
		}
		if err := region(0); err != nil { // creates the windows
			return err
		}
		for seq := 1; seq <= regions; seq++ {
			comm.Barrier()
			g0, _ := simnet.BarrierStats()
			// The one-wave entry: this rank's clock after its puts, or the
			// latest arrival of one of them.
			clk := rk.Now()
			enter := clk
			put := func(dst int) {
				clk += prof.MPIPutOverhead + prof.InjectTime(8*count)
				enter = max(enter, clk, clk+prof.MPILatencyBetween(me, dst))
			}
			put(right)
			if toLeft {
				put(left)
			}
			entry[me] = enter
			if err := region(seq); err != nil {
				return err
			}
			if me == 0 {
				g1, _ := simnet.BarrierStats()
				waves[seq-1] = g1 - g0
			}
			after[me] = rk.Now()
			if want := float64(1000*seq + 10*left + 2); haloL[0] != want {
				return fmt.Errorf("rank %d region %d: haloL = %v, want %v", me, seq, haloL[0], want)
			}
			if want := float64(1000*seq + 10*right + 1); right != 1 && haloR[0] != want {
				return fmt.Errorf("rank %d region %d: haloR = %v, want %v", me, seq, haloR[0], want)
			}
		}
		fences[me] = decisionCount(e, "sync", "MPI_Win_fence closing 2 window(s)")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range waves {
		if w != 1 {
			t.Errorf("region %d: %d barrier generations, want one wave", i+1, w)
		}
	}
	want := max(entry[0], entry[1], entry[2], entry[3]) + prof.MPIWinFence
	for rank, v := range after {
		if v != want {
			t.Errorf("rank %d left the region at %v, want the one-wave time %v", rank, v, want)
		}
		if fences[rank] != regions+1 {
			t.Errorf("rank %d: %d fence waves closing both windows, want %d", rank, fences[rank], regions+1)
		}
	}
}
