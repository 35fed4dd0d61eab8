package pragma_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"commintent/internal/core"
	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/pragma"
	"commintent/internal/shmem"
	"commintent/internal/spmd"
	"commintent/internal/telemetry"
)

// The replay blocks: one text per target, parsed once and shared by every
// rank of every world below. Roles follow rank parity against `phase`
// unless `all` is set; the buffers are named with an offset, so a step can
// change what src and dst denote, where in them the transfer starts, how
// much moves and who takes part, all without touching the text.
var replayBlocks = func() (blocks []*pragma.Block) {
	for _, target := range []string{"TARGET_COMM_MPI_2SIDE", "TARGET_COMM_MPI_1SIDE", "TARGET_COMM_SHMEM"} {
		blocks = append(blocks,
			pragma.MustParseBlock(`#pragma comm_parameters target(`+target+`)
				sendwhen(all || rank%2==phase) receivewhen(all || rank%2!=phase)
				sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs)
			{
			  #pragma comm_p2p sbuf(&src[off]) rbuf(&dst[off]) count(n)
			}`),
			// No region: the standalone Spec.Exec path.
			pragma.MustParseBlock(`#pragma comm_p2p target(`+target+`) sbuf(&src[off]) rbuf(&dst[off]) count(n)
				sendwhen(all || rank%2==phase) receivewhen(all || rank%2!=phase)
				sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs)`),
			// Two directives bound as one block: n and src are read by the
			// first only, m and aux by the second only. The second names
			// its own peers, so it also runs standalone (sharedSpec).
			pragma.MustParseBlock(`#pragma comm_parameters target(`+target+`)
				sendwhen(all || rank%2==phase) receivewhen(all || rank%2!=phase)
				sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs)
			{
			  #pragma comm_p2p sbuf(&src[off]) rbuf(&dst[off]) count(n)
			  #pragma comm_p2p sender((rank+1)%nprocs) receiver((rank-1+nprocs)%nprocs) sbuf(aux) rbuf(auxdst) count(m)
			}`))
	}
	return blocks
}()

// sharedSpec is the second directive of a two-directive replay block: a
// spec a block and a standalone Spec.Exec both execute.
func sharedSpec(b *pragma.Block) *pragma.Spec {
	if len(b.P2P) == 2 {
		return b.P2P[1]
	}
	return nil
}

// replayOutcome is what one rank has to show for a replay sequence.
type replayOutcome struct {
	Landed    uint64 // hash of every destination buffer after every step
	V         model.Time
	Decisions []core.Decision
	Plans     int64 // blocks executed as their region's recorded plan
}

// replaySequence runs a seeded sequence of block executions on an n-rank
// world and returns each rank's outcome. Every step redraws the block (so
// the target switches between regions), the loop variables, the role
// pattern, and which slices the names src and dst are bound to — other
// slices, other lengths, other offsets into them. With drop set, what each
// directive was lowered to is forgotten before every execution.
func replaySequence(t *testing.T, prof *model.Profile, n, steps int, seed int64, drop bool) []replayOutcome {
	t.Helper()
	out := make([]replayOutcome, n)
	w, err := spmd.NewWorld(n, prof)
	if err != nil {
		t.Fatal(err)
	}
	tele := telemetry.NewMetrics()
	w.SetTelemetry(tele)
	err = w.Run(func(rk *spmd.Rank) error {
		comm := mpi.World(rk)
		shm := shmem.New(rk)
		cenv, err := core.NewEnv(comm, shm)
		if err != nil {
			return err
		}
		defer cenv.Close()
		srcs := [][]float64{make([]float64, 16), make([]float64, 16), make([]float64, 10)}
		dsts := []*shmem.Slice[float64]{shmem.MustAlloc[float64](shm, 16), shmem.MustAlloc[float64](shm, 12)}
		auxs := [][]float64{make([]float64, 8), make([]float64, 6)}
		auxdst := shmem.MustAlloc[float64](shm, 8)
		aux, m := auxs[0], 1
		var (
			block                *pragma.Block
			src                  []float64
			dst                  *shmem.Slice[float64]
			off, cnt, phase, all int
		)
		penv := pragma.Env{
			Vars: map[string]int{"rank": rk.ID, "nprocs": n},
			Bufs: map[string]any{},
		}
		value := func(rank, step, i int) float64 { return float64(rank*1_000_000 + step*100 + i) }
		landed := fnv.New64a()
		// A wrong delivery is reported at the end: a rank that left early
		// would leave the others waiting at the next barrier.
		var wrong error
		rng := rand.New(rand.NewSource(seed)) // the same draws on every rank
		for step := 0; step < steps; step++ {
			// One step in two runs the block of the step before with what
			// its first directive reads unchanged, so that a block whose
			// second directive's inputs alone have changed is met often.
			if step == 0 || rng.Intn(2) == 0 {
				block = replayBlocks[rng.Intn(len(replayBlocks))]
				src, dst = srcs[rng.Intn(len(srcs))], dsts[rng.Intn(len(dsts))]
				off, cnt, phase, all = 2*rng.Intn(3), 1+rng.Intn(4), rng.Intn(2), rng.Intn(4)/3
				if rng.Intn(3) == 0 {
					// Same name, same base, another length: a different buffer.
					src = src[:len(src)-1]
				}
			}
			// The second directive's inputs change on their own: one step
			// in three rebinds aux, and one in three draws another m.
			if rng.Intn(3) == 0 {
				aux = auxs[rng.Intn(len(auxs))]
			}
			if rng.Intn(3) == 0 {
				m = 1 + rng.Intn(4)
			}
			standalone := sharedSpec(block) != nil && rng.Intn(2) == 0
			penv.Bufs["src"], penv.Bufs["dst"], penv.Bufs["aux"], penv.Bufs["auxdst"] = src, dst, aux, auxdst
			penv.Vars["off"], penv.Vars["n"], penv.Vars["phase"], penv.Vars["all"], penv.Vars["m"] = off, cnt, phase, all, m
			for i := range src {
				src[i] = value(rk.ID, step, i)
			}
			for i := range aux {
				aux[i] = value(rk.ID, step, i) + 0.5
			}
			if drop {
				pragma.DropBound(cenv, block)
			}
			if err := block.Exec(cenv, penv); err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
			// Consumption sync: the SHMEM target completes a region at the
			// sender, and the next step reuses the destinations.
			comm.Barrier()
			if all == 1 || rk.ID%2 != phase {
				got := dst.Local(shm)[off : off+cnt]
				for i, v := range got {
					if want := value((rk.ID-1+n)%n, step, off+i); v != want && wrong == nil {
						wrong = fmt.Errorf("step %d: dst[%d] = %v, want %v", step, off+i, v, want)
					}
				}
			}
			if standalone {
				// The shared spec on its own: every rank sends aux to the
				// left, on the default target.
				if err := sharedSpec(block).Exec(cenv, penv); err != nil {
					return fmt.Errorf("step %d: standalone: %w", step, err)
				}
				comm.Barrier()
				for i, v := range auxdst.Local(shm)[:m] {
					if want := value((rk.ID+1)%n, step, i) + 0.5; v != want && wrong == nil {
						wrong = fmt.Errorf("step %d: auxdst[%d] = %v, want %v", step, i, v, want)
					}
				}
				comm.Barrier()
			}
			for _, d := range append(dsts, auxdst) {
				for _, v := range d.Local(shm) {
					var b [8]byte
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
					landed.Write(b[:])
				}
			}
			comm.Barrier()
		}
		out[rk.ID] = replayOutcome{Landed: landed.Sum64(), V: rk.Now(), Decisions: cenv.Decisions(),
			Plans: tele.Registry().CounterValue("core_region_plan_replays_total", telemetry.Rank(rk.ID))}
		return wrong
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBoundReplayMatchesFreshLowering: executing directives through their
// bound form must be indistinguishable from lowering them afresh every
// time — the same bytes landed, the same lowering decisions, and on the
// modelled fabric the same virtual time to the bit — however the variables,
// the buffers behind the names, the roles and the target change between
// executions, and whether or not a block runs as its region's plan. make
// verify runs this under -race at GOMAXPROCS=4, where the ranks really do
// share the parsed blocks concurrently.
func TestBoundReplayMatchesFreshLowering(t *testing.T) {
	shm := *model.GeminiLike()
	shm.Transport = "shm"
	for _, tc := range []struct {
		name    string
		prof    *model.Profile
		virtual bool
	}{
		{"simnet", model.GeminiLike(), true},
		{"shm", &shm, false}, // wall clock: no modelled time to compare
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				bound := replaySequence(t, tc.prof, 4, 120, seed, false)
				fresh := replaySequence(t, tc.prof, 4, 120, seed, true)
				var plans int64
				for _, b := range bound {
					plans += b.Plans
				}
				if plans == 0 {
					t.Errorf("seed %d: no block ran as its region's plan", seed)
				}
				for rank := range bound {
					b, f := bound[rank], fresh[rank]
					if !tc.virtual {
						b.V, f.V = 0, 0
					}
					if b.Landed != f.Landed || b.V != f.V {
						t.Errorf("seed %d rank %d: bound landed %x at %v, fresh %x at %v", seed, rank, b.Landed, b.V, f.Landed, f.V)
					}
					if !reflect.DeepEqual(b.Decisions, f.Decisions) {
						t.Errorf("seed %d rank %d: decisions differ\nbound: %v\nfresh: %v", seed, rank, b.Decisions, f.Decisions)
					}
				}
			}
		})
	}
}

// raceEnabled is set by race_test.go. The detector's own bookkeeping
// allocates, so the allocation guard only means something without it.
var raceEnabled bool

// TestHaloTextSteadyStateAllocs: the ring halo written as directive text
// allocates nothing per execution once bound, on every target, executed as
// text (Block.Exec) and compiled to a plan (CompileBlock, Plan.Execute).
func TestHaloTextSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n, warm, ops, count = 4, 4200, 200, 8 // warm fills the capped decision log
	// One P, as in testing.AllocsPerRun: a waiter that spins out and parks
	// in the simnet barrier allocates there, which is not what is measured.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, target := range []string{"TARGET_COMM_MPI_1SIDE", "TARGET_COMM_SHMEM", "TARGET_COMM_MPI_2SIDE"} {
		block := pragma.MustParseBlock(`#pragma comm_parameters target(` + target + `) max_comm_iter(2)
		{
		  #pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) sbuf(edgeR) rbuf(haloL) count(8)
		  #pragma comm_p2p sender((rank+1)%nprocs) receiver((rank-1+nprocs)%nprocs) sbuf(edgeL) rbuf(haloR) count(8)
		}`)
		pl, err := pragma.CompileBlock(block, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, compiled := range []bool{false, true} {
			name := target
			if compiled {
				name += " (plan)"
			}
			haloTextAllocs(t, name, n, warm, ops, count, func(cenv *core.Env, penv pragma.Env) func() error {
				if !compiled {
					return func() error { return block.Exec(cenv, penv) }
				}
				binding := pragma.BindingFromBufs(penv.Bufs)
				return func() error { return pl.Execute(cenv, binding) }
			}, target == "TARGET_COMM_SHMEM")
		}
	}
}

// haloTextAllocs runs the ring halo's execute (built per rank from its
// environments) and fails unless a rank allocates nothing per execution
// in the steady state.
func haloTextAllocs(t *testing.T, name string, n, warm, ops, count int, build func(*core.Env, pragma.Env) func() error, shmemTarget bool) {
	t.Helper()
	// Heap allocations per rank per execution: rank 0 reads the
	// counters while the others sit between two barriers.
	var before, after runtime.MemStats
	err := spmd.Run(n, model.GeminiLike(), func(rk *spmd.Rank) error {
		comm := mpi.World(rk)
		shm := shmem.New(rk)
		cenv, err := core.NewEnv(comm, shm)
		if err != nil {
			return err
		}
		defer cenv.Close()
		penv := pragma.Env{
			Vars: map[string]int{"rank": rk.ID, "nprocs": n},
			Bufs: map[string]any{
				"edgeL": make([]float64, count), "edgeR": make([]float64, count),
				"haloL": shmem.MustAlloc[float64](shm, count), "haloR": shmem.MustAlloc[float64](shm, count),
			},
		}
		read := func(m *runtime.MemStats) {
			comm.Barrier()
			if rk.ID == 0 {
				runtime.ReadMemStats(m)
			}
			comm.Barrier()
		}
		exec := build(cenv, penv)
		for i := 0; i < warm+ops; i++ {
			if i == warm {
				read(&before)
			}
			if err := exec(); err != nil {
				return err
			}
			if shmemTarget {
				shm.BarrierAll() // the halos are reused: consumption sync
			}
		}
		read(&after)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := float64(after.Mallocs-before.Mallocs) / float64(n*ops)
	t.Logf("%s: %.3f allocations per rank per execution", name, got)
	if got >= 0.05 {
		t.Errorf("%s: %.2f allocations per rank per execution, want 0", name, got)
	}
}
