package main

import (
	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/spmd"
)

// allreduceCount is the vector length in float64 elements.
const allreduceCount = 16

// allreduceWorkload is the wide small-payload collective, called at the mpi
// layer: the directive layers are not on its path, so a change to them must
// predict no change here.
func allreduceWorkload(name, transportName string, procs int) *workload {
	w := &workload{
		name: name, ranks: 256, transport: transportName, procs: procs,
		batch: 200, batches: 50,
		top:     "mpi",
		ladder:  []string{"barrier", "port", "mpi_barrier", "mpi"},
		prepare: noPrepare,
	}
	if procs > 1 {
		w.batches = 16 // the two-P collective is ~3x slower per op
	}
	w.setup = func(rk *spmd.Rank, _ *shared, in *inputs, _ func() model.Time, _ func(string) bool) (*program, error) {
		n, me := rk.N, rk.ID
		comm := mpi.World(rk)
		send := make([]float64, allreduceCount)
		recv := make([]float64, allreduceCount)
		copy(send, in.payload)
		const last = allreduceCount - 1

		p := &program{close: func() error { return nil }}
		add := func(name string, op func(seq int) error) {
			p.rungs = append(p.rungs, plainRung(name, op))
		}
		p.rungs = append(p.rungs, barrierRung(rk))
		add("port", portExchange(rk, in, (me+n-1)%n, (me+1)%n))
		add("mpi_barrier", func(int) error {
			comm.Barrier()
			return nil
		})
		add("mpi", func(seq int) error {
			send[0] = float64(seq + 1)
			if err := comm.Allreduce(send, recv, allreduceCount, mpi.Float64, mpi.OpSum); err != nil {
				return err
			}
			// Every addend is a small integer, so the sums are exact.
			if recv[0] != float64(n*(seq+1)) || recv[last] != float64(n)*send[last] {
				return errMismatch
			}
			return nil
		})
		return p, nil
	}
	w.derive = func(l ladderStats, m metrics) {
		m["simnet.barrier_us_per_op"] = l["barrier"].us
		m["transport.us_per_op"] = l["port"].us
		m["transport.allocs_per_op"] = l["port"].allocs
		m["mpi.us_per_op"] = l["mpi"].us
		m["mpi.allocs_per_op"] = l["mpi"].allocs
		m["mpi.vtime_us_per_op"] = l["mpi"].vus
		m["mpi.added_us_per_op"] = l["mpi"].us - l["barrier"].us
		m["mpi.coll_added_us_per_op"] = l["mpi"].us - l["mpi_barrier"].us
	}
	return w
}
