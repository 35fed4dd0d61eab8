package spmd_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/shmem"
	"commintent/internal/simnet"
	"commintent/internal/spmd"
	"commintent/internal/transport"
)

// withProcs runs f as subtests at each GOMAXPROCS in ps.
func withProcs(t *testing.T, ps []int, f func(t *testing.T, p int)) {
	for _, p := range ps {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
			f(t, p)
		})
	}
}

// TestRunLoopsOwnBlocks: a world of n ranks runs on min(GOMAXPROCS, n)
// run loops, each owning a contiguous block of ranks. A Go-level sleep
// stalls a whole loop, so at most one rank of a block is ever inside the
// sleep, and every loop is at once.
func TestRunLoopsOwnBlocks(t *testing.T) {
	const n = 8
	withProcs(t, []int{1, 2, 4}, func(t *testing.T, p int) {
		loops := min(p, n)
		inside := make([]atomic.Int32, loops)
		var all, most atomic.Int32
		err := spmd.Run(n, model.Uniform(1), func(rk *spmd.Rank) error {
			blk := rk.ID * loops / n
			for i := 0; i < 3; i++ {
				if inside[blk].Add(1) != 1 {
					return fmt.Errorf("two ranks of block %d run at once", blk)
				}
				cur := all.Add(1)
				for m := most.Load(); cur > m && !most.CompareAndSwap(m, cur); m = most.Load() {
				}
				time.Sleep(2 * time.Millisecond)
				all.Add(-1)
				inside[blk].Add(-1)
				rk.World().Fabric().WorldBarrier().Wait(rk.ID, 0)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := int(most.Load()); got != loops {
			t.Errorf("at most %d ranks slept at once, want one per loop: %d", got, loops)
		}
	})
}

// TestRunLoopPanicStaysPerRank: a panicking rank gives its PanicError, and
// the other ranks of its loop go on waiting, being woken and finishing.
func TestRunLoopPanicStaysPerRank(t *testing.T) {
	const n = 8
	withProcs(t, []int{1, 2, 4}, func(t *testing.T, p int) {
		var finished atomic.Int32
		partner := map[int]int{0: 1, 1: 0, 2: 4, 4: 2, 5: 6, 6: 5}
		err := spmd.Run(n, model.Uniform(1), func(rk *spmd.Rank) error {
			if rk.ID == 3 {
				panic("rank 3 gives up")
			}
			if peer, ok := partner[rk.ID]; ok {
				port := rk.Port()
				for i := 0; i < 50; i++ {
					port.Send(peer, i, nil, 0, i%2 == 0)
					r := port.PostRecv(peer, i, nil, 0)
					r.Wait()
					r.Release()
				}
			}
			finished.Add(1)
			return nil
		})
		var pe *spmd.PanicError
		if !errors.As(err, &pe) || pe.Rank != 3 || pe.Value != "rank 3 gives up" {
			t.Fatalf("err = %v, want rank 3's PanicError", err)
		}
		if got := finished.Load(); got != n-1 {
			t.Errorf("%d ranks finished, want %d", got, n-1)
		}
	})
}

// TestRunLoopGoexitStaysPerRank: a rank body that calls runtime.Goexit
// (t.FailNow in a rank body does) ends that rank only; the rest of its loop
// goes on, and Run returns.
func TestRunLoopGoexitStaysPerRank(t *testing.T) {
	withProcs(t, []int{1, 2}, func(t *testing.T, p int) {
		var finished atomic.Int32
		err := spmd.Run(4, model.Uniform(1), func(rk *spmd.Rank) error {
			if rk.ID == 1 {
				runtime.Goexit()
			}
			if rk.ID != 3 {
				port, peer := rk.Port(), 2-rk.ID // ranks 0 and 2 exchange
				port.Send(peer, 0, nil, 0, false)
				r := port.PostRecv(peer, 0, nil, 0)
				r.Wait()
				r.Release()
			}
			finished.Add(1)
			return nil
		})
		if err != nil || finished.Load() != 3 {
			t.Fatalf("err %v, %d ranks finished; want nil and 3", err, finished.Load())
		}
	})
}

// TestRunLoopBoundedWaitsFire: a bounded wait fires while every rank of its
// loop waits, at one P (one loop holds them all) and at two: a port's
// receive and rendezvous, mpi's RecvTimeout behind its watchdog, and SHMEM's
// WaitUntilTimeout. Nothing is ever sent, so only the deadlines end the
// waits.
func TestRunLoopBoundedWaitsFire(t *testing.T) {
	const n, bound = 4, 20 * time.Millisecond
	withProcs(t, []int{1, 2}, func(t *testing.T, p int) {
		t.Run("port", func(t *testing.T) {
			err := spmd.Run(n, model.Uniform(1), func(rk *spmd.Rank) error {
				port, peer := rk.Port(), (rk.ID+1)%n
				start := time.Now()
				r := port.PostRecv(peer, 7, nil, 0)
				if r.WaitTimeout(bound) {
					return errors.New("a receive nobody sent completed")
				}
				if el := time.Since(start); el < bound {
					return fmt.Errorf("receive timed out after %v, before its bound %v", el, bound)
				}
				if !port.CancelRecv(r) {
					return errors.New("cancel lost to a send nobody made")
				}
				r.Wait()
				r.Release()
				m := port.Send(peer, 8, nil, 0, true).Msg
				if m.WaitMatchedTimeout(bound) {
					return errors.New("a rendezvous nobody received matched")
				}
				if !port.CancelMsg(peer, m) {
					return errors.New("withdrawal lost to a receive nobody posted")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		t.Run("mpi", func(t *testing.T) {
			err := spmd.Run(n, model.Uniform(1), func(rk *spmd.Rank) error {
				c := mpi.World(rk)
				c.SetWatchdog(bound)
				buf := make([]float64, 1)
				_, err := c.RecvTimeout(buf, 1, mpi.Float64, (rk.ID+1)%n, 3, 1000)
				if !errors.Is(err, transport.ErrDeadline) {
					return fmt.Errorf("RecvTimeout: %v, want ErrDeadline", err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		t.Run("shmem", func(t *testing.T) {
			err := spmd.Run(n, model.Uniform(1), func(rk *spmd.Rank) error {
				ctx := shmem.New(rk)
				flag := shmem.MustAlloc[int64](ctx, 1)
				ctx.SetWatchdog(bound)
				if err := flag.WaitUntilTimeout(ctx, 0, shmem.CmpGE, 1, 1000); !errors.Is(err, transport.ErrDeadline) {
					return fmt.Errorf("WaitUntilTimeout: %v, want ErrDeadline", err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestRunLoopWakesParkedLoop: a rank waits on a message from a rank whose
// loop has parked, over and over, at two Ps and four: one rank per loop, so
// every wait empties its loop and every wake crosses to a parked one.
func TestRunLoopWakesParkedLoop(t *testing.T) {
	withProcs(t, []int{2, 4}, func(t *testing.T, p int) {
		n := p
		err := spmd.Run(n, model.Uniform(1), func(rk *spmd.Rank) error {
			port := rk.Port()
			next, prev := (rk.ID+1)%n, (rk.ID+n-1)%n
			for i := 0; i < 200; i++ {
				if rk.ID == i%n {
					if i%16 == 0 {
						time.Sleep(time.Millisecond) // the others' loops park
					}
					port.Send(next, i, nil, 0, i%3 == 0)
				}
				if rk.ID == (i+1)%n {
					r := port.PostRecv(prev, i, nil, 0)
					r.Wait()
					r.Release()
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestRunRepeatsAtOneP: at one P the ranks run on one loop in a fixed
// order, so two runs of one seeded ring exchange record identical fabric
// events and read identical schedule-dependent counters: parked waits and
// unexpected-queue high-water marks.
func TestRunRepeatsAtOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 6
	run := func() ([]simnet.Event, int64, []int) {
		w, err := spmd.NewWorld(n, model.Uniform(100))
		if err != nil {
			t.Fatal(err)
		}
		w.Fabric().EnableRecorder(0)
		parks := transport.GateParks()
		var mu sync.Mutex
		hwm := make([]int, n)
		err = w.Run(func(rk *spmd.Rank) error {
			c := mpi.World(rk)
			next, prev := (rk.ID+1)%n, (rk.ID+n-1)%n
			for i := 0; i < 20; i++ {
				count := 1 + rk.Rand().Intn(4)
				if rk.Rand().Intn(3) == 0 {
					count = 4096 // rendezvous-sized
				}
				out, in := make([]float64, count), make([]float64, 4096)
				rk.Compute(model.Time(rk.Rand().Intn(500)))
				req, err := c.Isend(out, count, mpi.Float64, next, i)
				if err != nil {
					return err
				}
				if _, err := c.Recv(in, 4096, mpi.Float64, prev, i); err != nil {
					return err
				}
				if _, err := c.Wait(req); err != nil {
					return err
				}
			}
			c.Barrier()
			mu.Lock()
			hwm[rk.ID] = rk.Port().UnexpectedHighWatermark()
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Fabric().Recorder().Events(), transport.GateParks() - parks, hwm
	}
	ev1, parks1, hwm1 := run()
	ev2, parks2, hwm2 := run()
	if len(ev1) == 0 || !reflect.DeepEqual(ev1, ev2) {
		t.Errorf("two runs recorded different events (%d and %d)", len(ev1), len(ev2))
	}
	if parks1 != parks2 || !reflect.DeepEqual(hwm1, hwm2) {
		t.Errorf("parked waits %d and %d, unexpected-queue high-water marks %v and %v: want each identical", parks1, parks2, hwm1, hwm2)
	}
}
