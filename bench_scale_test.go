// Scale benchmarks: the wall-clock cost of the simulator's control plane
// and collectives as the rank count grows. Like the data-plane benchmarks
// these measure the *simulator itself* (real ns/op, allocs/op with
// -benchmem), not virtual time: one op is one whole-world operation
// (barrier, allreduce, gather, halo exchange) across every rank. They are
// the regression guard for the contention-free matching/barrier work and
// the one-wave collectives; `make bench-scale` snapshots
// them into BENCH_scale.json against the committed pre-redesign baseline.
package commintent

import (
	"fmt"
	"testing"

	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/spmd"
)

// scaleRanks are the world sizes the scale suite sweeps. 1024 is the
// headline "goroutine ranks" figure; 64 and 256 show the trend.
var scaleRanks = []int{64, 256, 1024}

// benchWorld runs body once per rank over a fresh n-rank world and times
// b.N whole-world iterations. World construction happens before the timer
// reset, so ns/op reflects steady state, not goroutine spawn cost.
func benchWorld(b *testing.B, n int, body func(c *mpi.Comm, i int) error) {
	b.Helper()
	b.ReportAllocs()
	err := spmd.Run(n, model.GeminiLike(), func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		c.Barrier() // align start-up so b.N iterations measure steady state
		if rk.ID == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if err := body(c, i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScaleBarrier measures one world barrier per op. The loop calls
// Barrier directly (no per-op closure) so the number is the barrier alone.
func BenchmarkScaleBarrier(b *testing.B) {
	for _, n := range scaleRanks {
		b.Run(fmt.Sprintf("r%d", n), func(b *testing.B) {
			b.ReportAllocs()
			err := spmd.Run(n, model.GeminiLike(), func(rk *spmd.Rank) error {
				c := mpi.World(rk)
				c.Barrier()
				if rk.ID == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					c.Barrier()
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkScaleAllreduce measures a 16-element float64 allreduce per op —
// the latency-bound collective shape (small payload, wide world).
func BenchmarkScaleAllreduce(b *testing.B) {
	for _, n := range scaleRanks {
		b.Run(fmt.Sprintf("r%d", n), func(b *testing.B) {
			benchWorld(b, n, func(c *mpi.Comm, _ int) error {
				in := make([]float64, 16)
				out := make([]float64, 16)
				in[0] = 1
				return c.Allreduce(in, out, 16, mpi.Float64, mpi.OpSum)
			})
		})
	}
}

// BenchmarkScaleAllreduceLarge measures a 4096-element (32 KiB) allreduce
// per op — the bandwidth-bound shape where ring/segmented algorithms pay.
func BenchmarkScaleAllreduceLarge(b *testing.B) {
	for _, n := range scaleRanks {
		b.Run(fmt.Sprintf("r%d", n), func(b *testing.B) {
			benchWorld(b, n, func(c *mpi.Comm, _ int) error {
				in := make([]float64, 4096)
				out := make([]float64, 4096)
				return c.Allreduce(in, out, 4096, mpi.Float64, mpi.OpSum)
			})
		})
	}
}

// BenchmarkScaleGather measures an 8-element gather to rank 0 per op; the
// linear algorithm serialises the root, a tree algorithm does not.
func BenchmarkScaleGather(b *testing.B) {
	for _, n := range scaleRanks {
		b.Run(fmt.Sprintf("r%d", n), func(b *testing.B) {
			benchWorld(b, n, func(c *mpi.Comm, _ int) error {
				in := []int64{int64(c.Rank()), 2, 3, 4, 5, 6, 7, 8}
				var out []int64
				if c.Rank() == 0 {
					out = make([]int64, 8*c.Size())
				}
				return c.Gather(in, 8, mpi.Int64, out, 0)
			})
		})
	}
}

// BenchmarkScaleHalo measures one bidirectional nearest-neighbour exchange
// (256 B each way) on a ring per op — the p2p control-plane hot path.
func BenchmarkScaleHalo(b *testing.B) {
	for _, n := range scaleRanks {
		b.Run(fmt.Sprintf("r%d", n), func(b *testing.B) {
			benchWorld(b, n, func(c *mpi.Comm, i int) error {
				buf := make([]float64, 32)
				right := (c.Rank() + 1) % c.Size()
				left := (c.Rank() + c.Size() - 1) % c.Size()
				if _, err := c.Sendrecv(buf, 32, mpi.Float64, right, 0,
					buf, 32, mpi.Float64, left, 0); err != nil {
					return err
				}
				_, err := c.Sendrecv(buf, 32, mpi.Float64, left, 1,
					buf, 32, mpi.Float64, right, 1)
				return err
			})
		})
	}
}

// scaleRanksBig extends the sweep to the committed-speedup sizes of the
// topology-aware redesign. These run only under the benchmarks that stay
// tractable at 64k goroutine ranks (barrier and the small allreduce);
// payload-heavy shapes would measure the allocator, not the fabric.
var scaleRanksBig = []int{4096, 16384, 65536}

// BenchmarkScaleBarrierBig measures one world barrier per op at the
// committed large-scale sizes.
func BenchmarkScaleBarrierBig(b *testing.B) {
	for _, n := range scaleRanksBig {
		b.Run(fmt.Sprintf("r%d", n), func(b *testing.B) {
			b.ReportAllocs()
			err := spmd.Run(n, model.GeminiLike(), func(rk *spmd.Rank) error {
				c := mpi.World(rk)
				c.Barrier()
				if rk.ID == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					c.Barrier()
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkScaleAllreduceBig measures the 16-element allreduce at the
// committed large-scale sizes.
func BenchmarkScaleAllreduceBig(b *testing.B) {
	for _, n := range scaleRanksBig {
		b.Run(fmt.Sprintf("r%d", n), func(b *testing.B) {
			benchWorld(b, n, func(c *mpi.Comm, _ int) error {
				in := make([]float64, 16)
				out := make([]float64, 16)
				in[0] = 1
				return c.Allreduce(in, out, 16, mpi.Float64, mpi.OpSum)
			})
		})
	}
}
