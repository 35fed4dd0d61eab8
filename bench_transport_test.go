// Transport benchmarks: the same workload on the cooperative virtual-time
// fabric (simnet) and on the parallel shared-memory transport (shm), each
// at several GOMAXPROCS settings. Unlike the figure benchmarks these are
// pure wall-clock numbers — ns/op is the metric, there is no vtime-us/op —
// because the question they answer is about the simulator as a machine:
// how fast does a run complete once ranks may genuinely execute in
// parallel? `make bench-transport` snapshots them into BENCH_transport.json
// and bench-transport-check gates regressions against the committed report.
//
// GOMAXPROCS is swept with explicit p1/p4/p8 sub-benchmarks that set and
// restore the value around the world, not with -cpu: benchjson folds the
// `-N` suffix that -cpu appends into one benchmark name, which would
// collapse the sweep into a single entry.
package commintent

import (
	"fmt"
	"runtime"
	"testing"

	"commintent/internal/core"
	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/spmd"
	"commintent/internal/transport"
	"commintent/internal/wllsms"
)

// transportProcs is the GOMAXPROCS sweep. p1 is the apples-to-apples floor
// (simnet is cooperative and cannot use more than one P); p4 and p8 are
// where the shm transport's rank parallelism pays.
var transportProcs = []int{1, 4, 8}

// benchBothTransports runs body once per transport kind per GOMAXPROCS
// setting, as sub-benchmarks named like simnet/p4. The transport is forced
// through the environment override so the two variants stay distinct even
// when the caller has COMMINTENT_TRANSPORT exported.
func benchBothTransports(b *testing.B, body func(b *testing.B)) {
	for _, kind := range []string{"simnet", "shm"} {
		kind := kind
		b.Run(kind, func(b *testing.B) {
			for _, procs := range transportProcs {
				procs := procs
				b.Run(fmt.Sprintf("p%d", procs), func(b *testing.B) {
					b.Setenv(transport.EnvVar, kind)
					prev := runtime.GOMAXPROCS(procs)
					defer runtime.GOMAXPROCS(prev)
					b.ReportAllocs()
					body(b)
				})
			}
		})
	}
}

// BenchmarkTransportPingpong4K measures one 4 KiB ping-pong (0->1 then
// 1->0, rendezvous-sized payload) per op over a 2-rank world. This is the
// latency shape: almost no compute, every op is one matched exchange, so
// the number is dominated by the per-message control-plane cost — replay
// protocol plus channel handoff on simnet, mailbox push/drain on shm.
func BenchmarkTransportPingpong4K(b *testing.B) {
	benchBothTransports(b, func(b *testing.B) {
		const elems = 512 // 4 KiB of float64
		err := spmd.Run(2, model.GeminiLike(), func(rk *spmd.Rank) error {
			c := mpi.World(rk)
			buf := make([]float64, elems)
			c.Barrier()
			if rk.ID == 0 {
				b.ResetTimer()
			}
			peer := 1 - rk.ID
			for i := 0; i < b.N; i++ {
				if rk.ID == 0 {
					if err := c.Send(buf, elems, mpi.Float64, peer, 0); err != nil {
						return err
					}
					if _, err := c.Recv(buf, elems, mpi.Float64, peer, 1); err != nil {
						return err
					}
				} else {
					if _, err := c.Recv(buf, elems, mpi.Float64, peer, 0); err != nil {
						return err
					}
					if err := c.Send(buf, elems, mpi.Float64, peer, 1); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkTransportAllreduce256 measures a 16-element float64 allreduce
// over 256 ranks per op — the wide-world collective shape: one barrier wave
// whose last arriver runs the O(n) owner step (canonical replay on simnet,
// none on the wall clock; then the direct move), on both transports.
func BenchmarkTransportAllreduce256(b *testing.B) {
	benchBothTransports(b, func(b *testing.B) {
		const n = 256
		err := spmd.Run(n, model.GeminiLike(), func(rk *spmd.Rank) error {
			c := mpi.World(rk)
			in := make([]float64, 16)
			out := make([]float64, 16)
			in[0] = 1
			c.Barrier()
			if rk.ID == 0 {
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				if err := c.Allreduce(in, out, 16, mpi.Float64, mpi.OpSum); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkTransportFig4 measures one full Figure 4 directive workload
// (atom distribution, spin staging, SetEvec over 33 ranks) per op — the
// end-to-end application shape, mixing pack/unpack compute with two-sided
// traffic. This is the headline ">=2x at GOMAXPROCS>=4" evidence in the
// committed BENCH_transport.json.
func BenchmarkTransportFig4(b *testing.B) {
	benchBothTransports(b, func(b *testing.B) {
		p := benchParams()
		for i := 0; i < b.N; i++ {
			measureApp(b, p, func(app *wllsms.App) (model.Time, error) {
				if _, err := app.DistributeAtoms(wllsms.VariantOriginal, core.TargetDefault); err != nil {
					return 0, err
				}
				if err := stageZeroSpins(app); err != nil {
					return 0, err
				}
				return app.SetEvec(wllsms.VariantDirective, core.TargetMPI2Side)
			})
		}
	})
}
