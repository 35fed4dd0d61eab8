package simnet

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"commintent/internal/model"
)

// withParallelism sets GOMAXPROCS to p for the test and restores the old
// setting on cleanup, so waiters that park do so across p Ps.
func withParallelism(t *testing.T, p int) {
	t.Helper()
	old := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestBarrierWaitRule: the barrier's shape does not depend on the host's
// parallelism. At one P, two and four alike, a barrier is a radix-16 tree
// (node-grouped where placement says) with packed leaf slots and upper
// slots a cache line apart, and sixteen participants or fewer fit one node.
func TestBarrierWaitRule(t *testing.T) {
	const n = 64
	nodeOf := func(r int) int { return r / 8 }
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			withParallelism(t, p)
			for name, b := range map[string]*Barrier{
				"plain": NewBarrier(n),
				"topo":  NewBarrierTopo(n, nodeOf),
				"small": NewBarrier(16),
			} {
				depth := 2
				if name == "small" {
					depth = 1
				}
				nd := b.leaves[0]
				if b.depth != depth || nd.stride != 1 || (nd.parent != nil && nd.parent.stride != 8) ||
					b.Hierarchical() != (name == "topo") || len(nd.who) != nd.nchild {
					t.Errorf("%s: depth %d, leaf stride %d, hierarchical %v; want depth %d, leaf stride 1, upper stride 8",
						name, b.depth, nd.stride, b.Hierarchical(), depth)
				}
				runBarrier(t, b, b.Size(), 4)
			}
		})
	}
}

// runBarrier drives n goroutines through iters generations of b and checks
// that every generation's max-fold is exact on every rank: rank r enters
// generation g with virtual time g*n + r, so the fold must produce g*n+n-1.
func runBarrier(t *testing.T, b *Barrier, n, iters int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]int, n) // generation of first wrong fold, -1 if none
	wg.Add(n)
	for me := 0; me < n; me++ {
		go func(me int) {
			defer wg.Done()
			errs[me] = -1
			for g := 0; g < iters; g++ {
				got := b.Wait(me, model.Time(g*n+me))
				if got != model.Time(g*n+n-1) && errs[me] == -1 {
					errs[me] = g
				}
			}
		}(me)
	}
	wg.Wait()
	for me, g := range errs {
		if g != -1 {
			t.Fatalf("rank %d: wrong max at generation %d", me, g)
		}
	}
}

// TestBarrierTopoEquivalence: the node-grouped barrier is purely an
// arrangement of the combining tree — its max-fold result matches the flat
// barrier's on every generation, including with ragged node sizes.
func TestBarrierTopoEquivalence(t *testing.T) {
	withParallelism(t, 4)
	const n, per = 273, 16 // ragged: 17 nodes of 16 plus one of 1
	b := NewBarrierTopo(n, func(r int) int { return r / per })
	if !b.Hierarchical() {
		t.Fatal("expected hierarchical shape at GOMAXPROCS=4")
	}
	runBarrier(t, b, n, 8)
}

// TestBarrierTopoDegenerate: shapes where hierarchy adds nothing — nil
// nodeOf, a single node, one rank per node — fall back to NewBarrier's
// rank-order shape and still fold correctly.
func TestBarrierTopoDegenerate(t *testing.T) {
	withParallelism(t, 4)
	cases := []struct {
		name   string
		nodeOf func(int) int
	}{
		{"nil", nil},
		{"one-node", func(int) int { return 0 }},
		{"rank-per-node", func(r int) int { return r }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const n = 37
			b := NewBarrierTopo(n, tc.nodeOf)
			if b.Hierarchical() {
				t.Fatal("degenerate shape must degrade to the rank-order barrier")
			}
			runBarrier(t, b, n, 4)
		})
	}
}

// TestBarrierTopoWrapAround: non-contiguous node membership (ranks wrap
// around a 2-node machine) still groups correctly and folds exactly.
func TestBarrierTopoWrapAround(t *testing.T) {
	withParallelism(t, 4)
	const n = 25
	topo := model.Torus3D{X: 2, Y: 1, Z: 1, RanksPerNode: 3} // capacity 6
	b := NewBarrierTopo(n, topo.NodeOf)
	if !b.Hierarchical() {
		t.Fatal("expected hierarchical shape")
	}
	runBarrier(t, b, n, 6)
}

// TestBarrierTopoStress16k is the bounded large-scale stress gate run under
// the race detector by `make verify`: 16384 ranks grouped 32-per-node (512
// node-local phases feeding the leader tree) for a fixed number of
// generations. It exists to let the race detector see the full check-in /
// fold / release protocol at committed scale; the iteration count is kept
// small so the gate stays well under a minute even instrumented.
func TestBarrierTopoStress16k(t *testing.T) {
	withParallelism(t, 4)
	const n, per, iters = 16384, 32, 3
	b := NewBarrierTopo(n, func(r int) int { return r / per })
	if !b.Hierarchical() {
		t.Fatal("expected hierarchical shape")
	}
	runBarrier(t, b, n, iters)
}
