package simnet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"commintent/internal/model"
	"commintent/internal/transport"
)

// stepShapes is every tree arrangement WaitStep has to serve: the flat
// node, radix trees two to many levels deep, and a node-grouped first level.
func stepShapes(t *testing.T, n int) map[string]*Barrier {
	t.Helper()
	shapes := map[string]*Barrier{
		"flat": NewBarrierRadix(n, n),
		"topo": NewBarrierTopo(n, func(r int) int { return r / 5 }),
	}
	for _, r := range []int{2, 4, 16} {
		shapes[fmt.Sprintf("radix%d", r)] = NewBarrierRadix(n, r)
	}
	if shapes["flat"].depth != 1 || !shapes["topo"].Hierarchical() || shapes["radix2"].depth < 5 {
		t.Fatal("shapes are not what the test means to cover")
	}
	return shapes
}

// TestBarrierStepOncePerGeneration: on every shape, each generation's step
// runs exactly once, after every participant's pre-arrival stores and
// before any participant returns, and what it stores is what every
// participant reads back. The participants are goroutines that arrive at
// once (spin0) or after a pseudo-random 0-63 scheduler yields each
// (spin64), so some arrive while a release is under way, or tasks sharing
// two run loops (loop). All the shared state is plain memory, so under
// -race the happens-before edges the protocol claims are checked, not
// assumed.
func TestBarrierStepOncePerGeneration(t *testing.T) {
	const n, gens = 37, 200
	for _, variant := range []string{"spin64", "spin0", "loop"} {
		for name, b := range stepShapes(t, n) {
			t.Run(fmt.Sprintf("%s/%s", name, variant), func(t *testing.T) {
				var (
					pub  [n]int // pub[i]: participant i's store before arriving
					ran  int    // steps run so far
					out  int    // the last step's result
					bad  atomic.Int32
					step = func() {
						sum := 0
						for i := range pub {
							sum += pub[i]
						}
						ran++
						out = sum
					}
				)
				body := func(me int) {
					for g := 0; g < gens; g++ {
						if variant == "spin64" {
							for y := (g*n + me*7) % 64; y > 0; y-- {
								runtime.Gosched()
							}
						}
						pub[me] = g*n + me
						got := b.WaitStep(me, model.Time(g*n+me), step)
						want := g*n*n + n*(n-1)/2
						if ran != g+1 || out != want || got != model.Time(g*n+n-1) {
							bad.Add(1)
						}
					}
				}
				if variant == "loop" {
					tasks := make([]transport.Task, n)
					b.Bind(func(i int) *transport.Task { return &tasks[i] })
					transport.Run(tasks, 2, body)
				} else {
					var wg sync.WaitGroup
					for me := 0; me < n; me++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							body(me)
						}()
					}
					wg.Wait()
				}
				if bad.Load() != 0 {
					t.Errorf("%d participant-generations saw a missing, repeated or stale step", bad.Load())
				}
			})
		}
	}
}

// TestBarrierStepBeforeParkedWaitersWake drives the blocked case step by
// step on one node: two participants wait on their gates when the third
// arrives, and its step must run while both are still waiting. Waiters that
// park and waiters that yield to a run loop alike.
func TestBarrierStepBeforeParkedWaitersWake(t *testing.T) {
	for _, mode := range waiterModes {
		t.Run(mode.name, func(t *testing.T) {
			b := NewBarrierRadix(3, 3)
			var returned atomic.Int32
			var stepSaw int32 = -1
			done := make(chan int, 2)
			parks := transport.GateParks()
			wait := mode.run(b, func(me int) {
				if me == 2 {
					awaitParks(t, parks+2)
					b.WaitStep(2, 0, func() { stepSaw = returned.Load() })
					return
				}
				b.WaitStep(me, 0, nil)
				returned.Add(1)
				done <- int(stepSaw)
			})
			for i := 0; i < 2; i++ {
				if saw := <-done; saw != 0 {
					t.Errorf("a woken waiter read stepSaw = %d, want 0: the step ran late or its store was not published", saw)
				}
			}
			wait()
		})
	}
}

// TestBarrierWaitAllocs: neither Wait nor WaitStep allocates, as a waiter
// or as the winner, on the flat node or up a tree.
func TestBarrierWaitAllocs(t *testing.T) {
	const n, runs = 9, 200
	step := func() {}
	for name, b := range map[string]*Barrier{"flat": NewBarrierRadix(n, n), "tree": NewBarrierRadix(n, 2)} {
		var wg sync.WaitGroup
		for me := 1; me < n; me++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2*(runs+1); i++ {
					b.WaitStep(me, 0, step)
				}
			}()
		}
		// AllocsPerRun counts the whole process's mallocs and pins one P;
		// waiters yield or park by the rule the barrier was built under.
		got := testing.AllocsPerRun(runs, func() {
			b.Wait(0, 0)
			b.WaitStep(0, 0, step)
		})
		wg.Wait()
		if got != 0 {
			t.Errorf("%s: %.2f allocations per Wait+WaitStep over %d participants, want 0", name, got, n)
		}
	}
}
