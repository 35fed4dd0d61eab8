package simnet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"commintent/internal/model"
)

// stepShapes is every tree arrangement WaitStep has to serve: the flat
// node, radix trees two to many levels deep, and a node-grouped first level.
func stepShapes(t *testing.T, n int) map[string]*Barrier {
	t.Helper()
	withParallelism(t, 4) // NewBarrierTopo degrades to flat at one P
	shapes := map[string]*Barrier{
		"flat": NewBarrierRadix(n, n),
		"topo": NewBarrierTopo(n, func(r int) int { return r / 5 }),
	}
	for _, r := range []int{2, 4, 16} {
		shapes[fmt.Sprintf("radix%d", r)] = NewBarrierRadix(n, r)
	}
	if shapes["flat"].flat == nil || !shapes["topo"].Hierarchical() || shapes["radix2"].depth < 5 {
		t.Fatal("shapes are not what the test means to cover")
	}
	return shapes
}

// TestBarrierStepOncePerGeneration: on every shape, with waiters that spin
// and waiters that park, each generation's step runs exactly once, after
// every participant's pre-arrival stores and before any participant
// returns, and what it stores is what every participant reads back. All the
// shared state is plain memory, so under -race the happens-before edges the
// protocol claims are checked, not assumed.
func TestBarrierStepOncePerGeneration(t *testing.T) {
	const n, gens = 37, 200
	for _, spin := range []int{barrierSpin, 0} {
		for name, b := range stepShapes(t, n) {
			t.Run(fmt.Sprintf("%s/spin%d", name, spin), func(t *testing.T) {
				b.spin = spin
				var (
					pub  [n]int // pub[i]: participant i's store before arriving
					ran  int    // steps run so far
					out  int    // the last step's result
					bad  atomic.Int32
					wg   sync.WaitGroup
					step = func() {
						sum := 0
						for i := range pub {
							sum += pub[i]
						}
						ran++
						out = sum
					}
				)
				for me := 0; me < n; me++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for g := 0; g < gens; g++ {
							pub[me] = g*n + me
							got := b.WaitStep(me, model.Time(g*n+me), step)
							want := g*n*n + n*(n-1)/2
							if ran != g+1 || out != want || got != model.Time(g*n+n-1) {
								bad.Add(1)
							}
						}
					}()
				}
				wg.Wait()
				if bad.Load() != 0 {
					t.Errorf("%d participant-generations saw a missing, repeated or stale step", bad.Load())
				}
			})
		}
	}
}

// TestBarrierStepBeforeParkedWaitersWake drives the parked case step by step
// on one node: two participants are parked on the node's gate when the
// third arrives, and its step must run while both are still parked.
func TestBarrierStepBeforeParkedWaitersWake(t *testing.T) {
	b := NewBarrierRadix(3, 3)
	b.spin = 0
	var returned atomic.Int32
	var stepSaw int32 = -1
	done := make(chan int, 2)
	_, parks0 := BarrierStats()
	for me := 0; me < 2; me++ {
		go func() {
			b.WaitStep(me, 0, nil)
			returned.Add(1)
			done <- int(stepSaw)
		}()
	}
	awaitParked(t, parks0+2)
	for deadline := time.Now().Add(10 * time.Second); b.flat.word.Load() != 2; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the two waiters never both arrived")
		}
	}
	b.WaitStep(2, 0, func() { stepSaw = returned.Load() })
	for i := 0; i < 2; i++ {
		if saw := <-done; saw != 0 {
			t.Errorf("a woken waiter read stepSaw = %d, want 0: the step ran late or its store was not published", saw)
		}
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
