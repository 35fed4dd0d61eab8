// Data-plane benchmarks: unlike the virtual-time figure benchmarks, these
// measure the *simulator's own* wall-clock cost of moving bytes — pack and
// unpack, payload allocation, and message matching. They report real ns/op
// and allocs/op (run with -benchmem) and are the regression guard for the
// zero-copy fast path, the payload pools and the indexed matcher.
// `make bench` snapshots them into BENCH_dataplane.json.
package commintent

import (
	"testing"

	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/simnet"
	"commintent/internal/spmd"
	"commintent/internal/transport"
	"commintent/internal/typemap"
)

// dataPlaneElems is 4KiB of float64, the transfer size the acceptance
// numbers are quoted for.
const dataPlaneElems = 512

// BenchmarkDataPlanePingPong4KiB round-trips a 4KiB []float64 between two
// ranks through the full MPI path (encode, inject, match, copy-out, decode).
// One op is two transfers; queue depth stays at one so the measurement is
// pack+pool+match cost, not queue-scan pathology.
func BenchmarkDataPlanePingPong4KiB(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(2 * dataPlaneElems * 8)
	err := spmd.Run(2, model.GeminiLike(), func(rk *spmd.Rank) error {
		comm := mpi.World(rk)
		buf := make([]float64, dataPlaneElems)
		comm.Barrier()
		peer := 1 - rk.ID
		for i := 0; i < b.N; i++ {
			if rk.ID == 0 {
				if err := comm.Send(buf, dataPlaneElems, mpi.Float64, peer, 0); err != nil {
					return err
				}
				if _, err := comm.Recv(buf, dataPlaneElems, mpi.Float64, peer, 1); err != nil {
					return err
				}
			} else {
				if _, err := comm.Recv(buf, dataPlaneElems, mpi.Float64, peer, 0); err != nil {
					return err
				}
				if err := comm.Send(buf, dataPlaneElems, mpi.Float64, peer, 1); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// sendCopy is the copying send the fabric benchmarks want over the
// ownership-transfer Send: an eager message carrying a pooled copy of data.
func sendCopy(ep *simnet.Endpoint, dst, tag int, data []byte) {
	b := transport.GetBuf(len(data))
	copy(b, data)
	ep.Send(dst, tag, b, 0, false)
}

// BenchmarkDataPlaneSimnetStream4KiB measures the raw fabric path: post a
// receive, inject a 4KiB payload, complete. No MPI costs, so payload
// allocation and matching dominate.
func BenchmarkDataPlaneSimnetStream4KiB(b *testing.B) {
	f := simnet.NewFabric(2)
	src, dst := f.Endpoint(0), f.Endpoint(1)
	payload := make([]byte, dataPlaneElems*8)
	buf := make([]byte, dataPlaneElems*8)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := dst.PostRecv(0, 0, buf, 0)
		sendCopy(src, 1, 0, payload)
		r.Wait()
	}
}

// BenchmarkDataPlaneEncodeSlice4KiB measures packing a 4KiB []float64 into
// a wire buffer.
func BenchmarkDataPlaneEncodeSlice4KiB(b *testing.B) {
	src := make([]float64, dataPlaneElems)
	for i := range src {
		src[i] = float64(i) * 0.5
	}
	dst := make([]byte, dataPlaneElems*8)
	b.ReportAllocs()
	b.SetBytes(int64(len(dst)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := typemap.EncodeSlice(dst, src, dataPlaneElems); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataPlaneDecodeSlice4KiB measures unpacking a 4KiB wire buffer
// into a []float64.
func BenchmarkDataPlaneDecodeSlice4KiB(b *testing.B) {
	src := make([]float64, dataPlaneElems)
	wire := make([]byte, dataPlaneElems*8)
	if _, err := typemap.EncodeSlice(wire, src, dataPlaneElems); err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, dataPlaneElems)
	b.ReportAllocs()
	b.SetBytes(int64(len(wire)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := typemap.DecodeSlice(wire, dst, dataPlaneElems); err != nil {
			b.Fatal(err)
		}
	}
}

// benchParticle is a padding-free composite (32 bytes native and on the
// wire), eligible for the struct memmove fast path.
type benchParticle struct {
	X, Y, Z float64
	ID      uint64
}

// BenchmarkDataPlaneEncodeStruct4KiB measures packing 128 padding-free
// structs (4KiB) through the derived-datatype path.
func BenchmarkDataPlaneEncodeStruct4KiB(b *testing.B) {
	l, err := typemap.LayoutOf(benchParticle{})
	if err != nil {
		b.Fatal(err)
	}
	src := make([]benchParticle, 128)
	for i := range src {
		src[i] = benchParticle{X: float64(i), Y: 2, Z: 3, ID: uint64(i)}
	}
	dst := make([]byte, 128*l.WireSize)
	b.ReportAllocs()
	b.SetBytes(int64(len(dst)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Encode(dst, src, len(src)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataPlaneDecodeStruct4KiB is the unpack direction of the above.
func BenchmarkDataPlaneDecodeStruct4KiB(b *testing.B) {
	l, err := typemap.LayoutOf(benchParticle{})
	if err != nil {
		b.Fatal(err)
	}
	src := make([]benchParticle, 128)
	wire := make([]byte, 128*l.WireSize)
	if _, err := l.Encode(wire, src, len(src)); err != nil {
		b.Fatal(err)
	}
	dst := make([]benchParticle, 128)
	b.ReportAllocs()
	b.SetBytes(int64(len(wire)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Decode(wire, dst, len(dst)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataPlaneMatchDeepQueue drains a 512-deep unexpected queue in
// reverse tag order — the worst case for a linear matcher (O(depth^2)
// comparisons per op) and the best case for the indexed one (O(depth)).
func BenchmarkDataPlaneMatchDeepQueue(b *testing.B) {
	const depth = 512
	f := simnet.NewFabric(2)
	src, dst := f.Endpoint(0), f.Endpoint(1)
	payload := make([]byte, 8)
	buf := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < depth; t++ {
			sendCopy(src, 1, t, payload)
		}
		for t := depth - 1; t >= 0; t-- {
			r := dst.PostRecv(0, t, buf, 0)
			r.Wait()
		}
	}
}

// BenchmarkDataPlanePostedDeepQueue is the mirror image: 512 posted
// receives with distinct tags, delivered in reverse posting order.
func BenchmarkDataPlanePostedDeepQueue(b *testing.B) {
	const depth = 512
	f := simnet.NewFabric(2)
	src, dst := f.Endpoint(0), f.Endpoint(1)
	payload := make([]byte, 8)
	bufs := make([][]byte, depth)
	for i := range bufs {
		bufs[i] = make([]byte, 8)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqs := make([]*transport.Recv, depth)
		for t := 0; t < depth; t++ {
			reqs[t] = dst.PostRecv(0, t, bufs[t], 0)
		}
		for t := depth - 1; t >= 0; t-- {
			sendCopy(src, 1, t, payload)
			reqs[t].Wait()
		}
	}
}
