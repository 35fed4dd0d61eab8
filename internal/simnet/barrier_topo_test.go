package simnet

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"commintent/internal/model"
	"commintent/internal/transport"
)

// withParallelism sets GOMAXPROCS to p for the test, so a barrier built in
// it takes the wait rule for p Ps, and restores the old setting on cleanup.
// The barrier's shape decision is deliberately scheduler-aware, so its
// tests must pin the scheduler.
func withParallelism(t *testing.T, p int) {
	t.Helper()
	old := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestBarrierWaitRule: the rule read at construction. The shared spin rule
// (transport.WaitSpin) yields 64 times at one P and parks at once above it,
// and the barrier follows it. One P: a single node with dense slots whose
// waiters yield before parking, whatever the placement. More than one P: a
// radix-16 tree (node-grouped where placement says) with slots a cache line
// apart, whose waiters park at once.
func TestBarrierWaitRule(t *testing.T) {
	const n = 64
	nodeOf := func(r int) int { return r / 8 }
	for p, wantSpin := range map[int]int{1: 64, 2: 0, 4: 0} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			withParallelism(t, p)
			if got := transport.WaitSpin(); got != wantSpin {
				t.Fatalf("transport.WaitSpin() = %d at %d P(s), want %d", got, p, wantSpin)
			}
			wantStride, wantDepth := 8, 2
			if p == 1 {
				wantStride, wantDepth = 1, 1
			}
			for name, b := range map[string]*Barrier{
				"plain": NewBarrier(n),
				"topo":  NewBarrierTopo(n, nodeOf),
				"small": NewBarrier(16),
			} {
				depth := wantDepth
				if name == "small" {
					depth = 1 // sixteen participants fit one node of radix 16
				}
				nd := b.leaves[0]
				if b.depth != depth || (b.flat != nil) != (depth == 1) || nd.stride != wantStride ||
					b.spin != wantSpin || b.Hierarchical() != (name == "topo" && p > 1) {
					t.Errorf("%s: depth %d flat %v stride %d spin %d hierarchical %v; want depth %d stride %d spin %d",
						name, b.depth, b.flat != nil, nd.stride, b.spin, b.Hierarchical(), depth, wantStride, wantSpin)
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
