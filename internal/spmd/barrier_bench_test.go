package spmd_test

import (
	"fmt"
	"runtime"
	"testing"

	"commintent/internal/model"
	"commintent/internal/simnet"
	"commintent/internal/spmd"
)

// BenchmarkWorldBarrier: a world whose ranks do nothing but loop the world
// barrier, at 16 and 256 ranks on one P and two. One op is one barrier
// generation, so ns/op is what a generation costs the host's scheduler, and
// parks/gen is how many of its waits blocked (simnet.BarrierStats).
func BenchmarkWorldBarrier(b *testing.B) {
	for _, n := range []int{16, 256} {
		for _, p := range []int{1, 2} {
			b.Run(fmt.Sprintf("n%d/p%d", n, p), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
				w, err := spmd.NewWorld(n, model.Uniform(1))
				if err != nil {
					b.Fatal(err)
				}
				bar := w.Fabric().WorldBarrier()
				gens0, parks0 := simnet.BarrierStats()
				b.ResetTimer()
				err = w.Run(func(rk *spmd.Rank) error {
					for i := 0; i < b.N; i++ {
						bar.Wait(rk.ID, 0)
					}
					return nil
				})
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				gens, parks := simnet.BarrierStats()
				if gens-gens0 != int64(b.N) {
					b.Fatalf("%d generations completed, want %d", gens-gens0, b.N)
				}
				b.ReportMetric(float64(parks-parks0)/float64(b.N), "parks/gen")
			})
		}
	}
}
