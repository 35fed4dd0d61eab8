package core_test

import (
	"fmt"
	"runtime"
	"testing"

	"commintent/internal/core"
	"commintent/internal/pragma"
	"commintent/internal/shmem"
	"commintent/internal/spmd"
)

// TestSiteTableBounded: a front end that makes a new key per execution —
// pragma.ExecP2P parses its line on every call — cannot grow an
// environment's site table past its bound, and directives keep working
// across the table starting over.
func TestSiteTableBounded(t *testing.T) {
	run(t, 2, func(rk *spmd.Rank, e *core.Env) error {
		buf := make([]int64, 1)
		penv := pragma.Env{
			Vars: map[string]int{"rank": rk.ID},
			Bufs: map[string]any{"buf": buf},
		}
		for i := 0; i < 2*core.MaxSites+10; i++ {
			if rk.ID == 0 {
				buf[0] = int64(i)
			}
			line := "#pragma comm_p2p sender(0) receiver(1) sendwhen(rank==0) receivewhen(rank==1) sbuf(buf) rbuf(buf)"
			if err := pragma.ExecP2P(e, line, penv); err != nil {
				return err
			}
			if rk.ID == 1 && buf[0] != int64(i) {
				return fmt.Errorf("execution %d delivered %d", i, buf[0])
			}
			if n := e.SiteCount(); n > core.MaxSites {
				return fmt.Errorf("execution %d: %d sites, bound %d", i, n, core.MaxSites)
			}
		}
		if e.SiteCount() == 0 {
			return fmt.Errorf("ExecP2P bound nothing: the test no longer exercises the table")
		}
		return nil
	})
}

// allocsPerRankOp runs the op that setup returns warm+ops times on every
// rank of an n-rank world and reports the heap allocations of the last ops
// executions, per rank per op. Rank 0 reads the counters while the others
// sit between two barriers. One P, as in testing.AllocsPerRun: a waiter
// that spins out and parks in the simnet barrier allocates there, which is
// not what is being measured.
func allocsPerRankOp(t *testing.T, n, warm, ops int, setup func(*spmd.Rank, *core.Env) (func() error, error)) float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	run(t, n, func(rk *spmd.Rank, e *core.Env) error {
		op, err := setup(rk, e)
		if err != nil {
			return err
		}
		for i := 0; i < warm; i++ {
			if err := op(); err != nil {
				return err
			}
		}
		read := func(m *runtime.MemStats) {
			e.Comm().Barrier()
			if rk.ID == 0 {
				runtime.ReadMemStats(m)
			}
			e.Comm().Barrier()
		}
		read(&before)
		for i := 0; i < ops; i++ {
			if err := op(); err != nil {
				return err
			}
		}
		read(&after)
		return nil
	})
	return float64(after.Mallocs-before.Mallocs) / float64(n*ops)
}

// raceEnabled is set by race_test.go. The detector's own bookkeeping
// allocates, so the allocation guards only mean something without it.
var raceEnabled bool

// steadyWarm executions fill the capped decision log on every target, so
// what is measured after them is the steady state proper.
const steadyWarm = 4200

// TestRegionSteadyStateAllocs: a region of two comm_p2p whose clause lists
// were built once allocates nothing per execution on any target, although it
// is lowered afresh every time.
func TestRegionSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n, ops, count = 4, 200, 8
	type bufs struct {
		haloL, haloR *shmem.Slice[float64]
		edgeL, edgeR any
	}
	alloc := func(e *core.Env) bufs {
		shm := e.Shmem()
		return bufs{
			haloL: shmem.MustAlloc[float64](shm, count), haloR: shmem.MustAlloc[float64](shm, count),
			edgeL: make([]float64, count), edgeR: make([]float64, count),
		}
	}
	directive := func(target core.Target) float64 {
		return allocsPerRankOp(t, n, steadyWarm, ops, func(rk *spmd.Rank, e *core.Env) (func() error, error) {
			b := alloc(e)
			left, right := (rk.ID+n-1)%n, (rk.ID+1)%n
			region := []core.Option{core.WithTarget(target), core.MaxCommIter(2)}
			toRight := []core.Option{core.Sender(left), core.Receiver(right), core.SBuf(b.edgeR), core.RBuf(b.haloL), core.Count(count)}
			toLeft := []core.Option{core.Sender(right), core.Receiver(left), core.SBuf(b.edgeL), core.RBuf(b.haloR), core.Count(count)}
			body := func(r *core.Region) error {
				if err := r.P2P(toRight...); err != nil {
					return err
				}
				return r.P2P(toLeft...)
			}
			return func() error {
				if err := e.Parameters(body, region...); err != nil {
					return err
				}
				if target == core.TargetSHMEM {
					e.Shmem().BarrierAll() // the halos are reused: consumption sync
				}
				return nil
			}, nil
		})
	}
	for _, target := range []core.Target{core.TargetMPI1Side, core.TargetSHMEM, core.TargetMPI2Side} {
		got := directive(target)
		t.Logf("%v: %.3f allocations per rank per region", target, got)
		if got >= 0.05 {
			t.Errorf("%v: %.2f allocations per rank per region, want 0", target, got)
		}
	}
}

// TestHalo2sReplayAllocs: a bound two-comm_p2p region on the paper's default
// target replays as four starts and one Waitall on requests its ledger
// owns: nothing is allocated per rank per region.
func TestHalo2sReplayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n, ops, count = 4, 200, 32
	got := allocsPerRankOp(t, n, steadyWarm, ops, func(rk *spmd.Rank, e *core.Env) (func() error, error) {
		haloL, haloR := make([]float64, count), make([]float64, count)
		edgeL, edgeR := make([]float64, count), make([]float64, count)
		left, right := (rk.ID+n-1)%n, (rk.ID+1)%n
		region := core.Bind(core.WithTarget(core.TargetMPI2Side), core.MaxCommIter(2))
		toRight := core.Bind(core.Sender(left), core.Receiver(right), core.SBuf(edgeR), core.RBuf(haloL))
		toLeft := core.Bind(core.Sender(right), core.Receiver(left), core.SBuf(edgeL), core.RBuf(haloR))
		body := func(r *core.Region) error {
			if err := r.P2PBound(toRight, nil); err != nil {
				return err
			}
			return r.P2PBound(toLeft, nil)
		}
		it := 0
		return func() error {
			it++
			edgeL[0], edgeR[0] = float64(it), float64(-it)
			if err := e.ParametersBound(region, body); err != nil {
				return err
			}
			if haloL[0] != float64(-it) || haloR[0] != float64(it) {
				return fmt.Errorf("rank %d op %d: halos %v %v", rk.ID, it, haloL[0], haloR[0])
			}
			return nil
		}, nil
	})
	t.Logf("%.3f allocations per rank per replayed region", got)
	if got >= 0.01 {
		t.Errorf("%.3f allocations per rank per replayed two-sided region, want 0", got)
	}
}
