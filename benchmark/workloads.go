package main

import (
	"fmt"

	"commintent/internal/model"
	"commintent/internal/plan"
	"commintent/internal/pragma"
	"commintent/internal/spmd"
)

// workload is one named, fixed-size communication program and the set of
// layer boundaries it can be entered at. Sizes are fields so the smoke test
// can shrink them; the committed values are the benchmark.
type workload struct {
	name      string
	ranks     int
	transport string // model.Profile.Transport: "simnet" or "shm"
	procs     int    // GOMAXPROCS; part of the workload
	batch     int    // K: ops between two world barriers
	batches   int    // batches per end-to-end trial (fixed: allocation volume per op depends on run length)

	top    string   // the rung the end-to-end metrics are measured at
	ladder []string // every rung, bottom first
	// selfTimed workloads report their own measured virtual span per op
	// (Fig. 4's App.Measure) instead of the world clock delta.
	selfTimed bool
	halo      bool // the payload is a halo edge: time its pack and unpack too

	// prepare runs once per world on the launching goroutine, before the
	// ranks start: what a real program does once per process image.
	prepare func(t *trial) (*shared, error)
	// setup builds one rank's program. sync is the harness barrier; want
	// reports whether the trial will run a rung, so that per-rung state (a
	// window, a directive environment) is set up only where it is used.
	setup func(rk *spmd.Rank, sh *shared, in *inputs, sync func() model.Time, want func(string) bool) (*program, error)
	// derive turns rung measurements into the named per-layer metrics.
	derive func(l ladderStats, m metrics)
}

// shared is what every rank of one world reads but none writes.
type shared struct {
	block *pragma.Block
	plan  *plan.Plan
	times map[string]float64 // rank 0 adds the set-up phases it times, µs
}

func noPrepare(t *trial) (*shared, error) { return &shared{times: t.times}, nil }

// scaled returns the workload at smoke-test size.
func (w workload) scaled(ranks, batch, batches int) *workload {
	w.ranks, w.batch, w.batches = ranks, batch, batches
	return &w
}

// inputs is everything the program under test is given, all of it a
// function of the seed.
type inputs struct {
	seed    uint64
	salt    int64     // base of the (rank, iteration) stamps
	payload []float64 // haloCount exactly representable values
}

func newInputs(seed int64) *inputs {
	in := &inputs{seed: uint64(seed)}
	in.salt = int64(mix(in.seed) >> 24) // < 2^40, leaves room for seq<<10
	in.payload = make([]float64, haloCount)
	for i := range in.payload {
		in.payload[i] = float64(mix(in.seed+uint64(i)+1) % 1000)
	}
	return in
}

// mix is splitmix64's finaliser: a cheap, well-spread hash for generating
// inputs that every rank can recompute without sharing state.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stamp names (rank, op) in one float64, exactly: ranks < 1024, and the
// sum stays far below 2^53.
func (in *inputs) stamp(rank, seq int) float64 {
	return float64(in.salt + int64(seq)<<10 + int64(rank))
}

// spin is the proposed spin component j of LSMS instance g at op seq.
func (in *inputs) spin(seq, g, j int) float64 {
	h := mix(in.seed ^ uint64(seq)<<32 ^ uint64(g)<<20 ^ uint64(j))
	return float64(int64(h>>11))/(1<<52) - 1 // [-1, 1)
}

var workloads = []*workload{
	haloWorkload("halo1s_r256", "TARGET_COMM_MPI_1SIDE", "simnet", 1),
	haloWorkload("halo2s_r256_shm_p2", "TARGET_COMM_MPI_2SIDE", "shm", 2),
	allreduceWorkload("allreduce_r256", "simnet", 1),
	allreduceWorkload("allreduce_r256_shm_p2", "shm", 2),
	fig4Workload(),
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
