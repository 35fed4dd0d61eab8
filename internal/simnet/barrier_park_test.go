package simnet

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"commintent/internal/model"
	"commintent/internal/transport"
)

// waiterModes runs the participants of a barrier either as goroutines,
// whose waits park, or as tasks on run loops (one loop per participant, so
// each can block on its own), whose waits yield to their loop. run starts
// body(me) for every participant and returns at once; the returned func
// waits for all of them.
var waiterModes = []struct {
	name string
	run  func(b *Barrier, body func(me int)) (wait func())
}{
	{"unbound", func(b *Barrier, body func(me int)) func() {
		var wg sync.WaitGroup
		for me := 0; me < b.Size(); me++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body(me)
			}()
		}
		return wg.Wait
	}},
	{"loop", func(b *Barrier, body func(me int)) func() {
		tasks := make([]transport.Task, b.Size())
		b.Bind(func(i int) *transport.Task { return &tasks[i] })
		done := make(chan struct{})
		go func() {
			transport.Run(tasks, len(tasks), body)
			close(done)
		}()
		return func() { <-done }
	}},
}

// TestBarrierParkedWaitersSurviveNextGeneration drives, step by step on one
// node, the interleaving where a wake could go to the wrong generation:
// release(g) flips the generation, a fast participant comes round again and
// waits for g+1 before release(g) has woken anyone, and only then does
// release(g) wake the node's participants. The generation-g waiters must
// return, and the g+1 waiter, though woken, must not until release(g+1).
// Waiters that park and waiters that yield to a run loop alike.
func TestBarrierParkedWaitersSurviveNextGeneration(t *testing.T) {
	const g = 6
	for _, mode := range waiterModes {
		t.Run(mode.name, func(t *testing.T) {
			b := NewBarrierRadix(3, 3)
			nd := b.leaves[0]
			nd.word.Store(g << 32)
			woke := make(chan int, 3)
			hold := make(chan struct{})
			parks := transport.GateParks()
			wait := mode.run(b, func(me int) {
				if me == 2 {
					awaitParks(t, parks+2)
					nd.out = 0
					nd.word.Add(1<<32 - 2) // release(g), first half: the flip
				}
				b.Wait(me, 0) // participant 2 arrives for g+1
				woke <- me
				if me != 2 {
					<-hold
					b.Wait(me, 0) // and the others, once let
				}
			})
			awaitParks(t, parks+3)
			b.wake(nd) // release(g), second half
			for i := 0; i < 2; i++ {
				select {
				case me := <-woke:
					if me == 2 {
						t.Fatal("the generation g+1 waiter returned on generation g's wake")
					}
				case <-time.After(10 * time.Second):
					t.Fatal("a generation-g waiter never woke")
				}
			}
			select {
			case me := <-woke:
				t.Fatalf("participant %d returned before its release", me)
			case <-time.After(20 * time.Millisecond):
			}
			close(hold) // generation g+1 completes
			if me := <-woke; me != 2 {
				t.Fatalf("participant %d woke, want 2", me)
			}
			wait()
		})
	}
}

// awaitParks returns once the process-wide count of blocked gate waits
// reaches parks: a waiter that has parked, or yielded with its loop then
// parking, can leave only through a wake.
func awaitParks(t *testing.T, parks int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); transport.GateParks() < parks; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Errorf("fewer than %d blocked waits", parks)
			return
		}
	}
}

// TestBarrierParkAllocFree: a parked wait allocates nothing, on the flat
// node, up a radix-16 tree and on the node-grouped shape. Every waiter that
// misses the flip parks on its own gate. The channel under a gate takes a
// sudog per sleeper from the runtime's caches, allocating only when the
// sleeper's P and the central cache are both empty; so garbage collection,
// which drops the central cache, is off, and a 1024-rank warm-up leaves
// more sudogs cached than four Ps can hoard (128 each). The runtime still
// starts the odd thread to run woken goroutines (a new M is five
// allocations), so each shape gets three windows of 1000 generations and
// one must read zero; an allocating park moves every window.
func TestBarrierParkAllocFree(t *testing.T) {
	const n, warm, gens, windows = 48, 200, 1000, 3
	withParallelism(t, 4)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runBarrier(t, NewBarrierRadix(1024, 1024), 1024, 4)
	shapes := map[string]*Barrier{
		"flat":    NewBarrierRadix(n, n),
		"radix16": NewBarrierRadix(n, 16),
		"topo":    NewBarrierTopo(n, func(r int) int { return r / 6 }),
	}
	for name, b := range shapes {
		t.Run(name, func(t *testing.T) {
			size := b.Size()
			done := make(chan struct{}, size) // a finished waiter must not park on it
			for me := 1; me < size; me++ {
				go func() {
					for i := 0; i < warm+windows*gens; i++ {
						b.Wait(me, 0)
					}
					done <- struct{}{}
				}()
			}
			for i := 0; i < warm; i++ {
				b.Wait(0, 0)
			}
			var mallocs [windows]uint64
			_, parks0 := BarrierStats()
			for w := range mallocs {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < gens; i++ {
					b.Wait(0, 0)
				}
				runtime.ReadMemStats(&after)
				mallocs[w] = after.Mallocs - before.Mallocs
			}
			_, parks1 := BarrierStats()
			for me := 1; me < size; me++ {
				<-done
			}
			if parks1 == parks0 {
				t.Fatalf("no waiter parked in %d generations", windows*gens)
			}
			if min(mallocs[0], mallocs[1], mallocs[2]) != 0 {
				t.Errorf("allocations per window of %d generations %v with %d parked waits, want a window of 0",
					gens, mallocs, parks1-parks0)
			}
		})
	}
}

// TestBarrierLoopWaitersYield: participants on run loops, one loop for all
// of them and fewer loops than participants, go through many generations
// of every shape, and every fold is exact.
func TestBarrierLoopWaitersYield(t *testing.T) {
	const n, gens = 37, 200
	for name, b := range stepShapes(t, n) {
		for _, loops := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/loops%d", name, loops), func(t *testing.T) {
				tasks := make([]transport.Task, n)
				b.Bind(func(i int) *transport.Task { return &tasks[i] })
				bad := make([]int, n)
				transport.Run(tasks, loops, func(me int) {
					for g := 0; g < gens; g++ {
						if got := b.Wait(me, model.Time(g*n+me)); got != model.Time(g*n+n-1) {
							bad[me]++
						}
					}
				})
				for me, k := range bad {
					if k != 0 {
						t.Fatalf("participant %d: %d wrong folds", me, k)
					}
				}
			})
		}
	}
}

// TestBarrierParksCountBlockedWaiters: BarrierStats counts every blocked
// wait a release woke, with the participants on one run loop and on two,
// where a release's wakes turn from one loop to the other. On one node,
// with the last participant sleeping before each arrival, every other
// participant has blocked when the generation completes: n-1 parks a
// generation.
func TestBarrierParksCountBlockedWaiters(t *testing.T) {
	const n, gens = 24, 20
	for _, loops := range []int{1, 2} {
		t.Run(fmt.Sprintf("loops%d", loops), func(t *testing.T) {
			b := NewBarrierRadix(n, n)
			tasks := make([]transport.Task, n)
			b.Bind(func(i int) *transport.Task { return &tasks[i] })
			_, parks0 := BarrierStats()
			transport.Run(tasks, loops, func(me int) {
				for g := 0; g < gens; g++ {
					if me == n-1 {
						time.Sleep(time.Millisecond)
					}
					b.Wait(me, 0)
				}
			})
			if _, parks := BarrierStats(); parks-parks0 != gens*(n-1) {
				t.Errorf("%d parks in %d generations, want %d", parks-parks0, gens, gens*(n-1))
			}
		})
	}
}
