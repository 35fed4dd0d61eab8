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
				sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs)`))
	}
	return blocks
}()

// replayOutcome is what one rank has to show for a replay sequence.
type replayOutcome struct {
	Landed    uint64 // hash of every destination buffer after every step
	V         model.Time
	Decisions []core.Decision
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
	err := spmd.Run(n, prof, func(rk *spmd.Rank) error {
		comm := mpi.World(rk)
		shm := shmem.New(rk)
		cenv, err := core.NewEnv(comm, shm)
		if err != nil {
			return err
		}
		defer cenv.Close()
		srcs := [][]float64{make([]float64, 16), make([]float64, 16), make([]float64, 10)}
		dsts := []*shmem.Slice[float64]{shmem.MustAlloc[float64](shm, 16), shmem.MustAlloc[float64](shm, 12)}
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
			block := replayBlocks[rng.Intn(len(replayBlocks))]
			src, dst := srcs[rng.Intn(len(srcs))], dsts[rng.Intn(len(dsts))]
			off, cnt, phase, all := 2*rng.Intn(3), 1+rng.Intn(4), rng.Intn(2), rng.Intn(4)/3
			if rng.Intn(3) == 0 {
				// Same name, same base, another length: a different buffer.
				src = src[:len(src)-1]
			}
			penv.Bufs["src"], penv.Bufs["dst"] = src, dst
			penv.Vars["off"], penv.Vars["n"], penv.Vars["phase"], penv.Vars["all"] = off, cnt, phase, all
			for i := range src {
				src[i] = value(rk.ID, step, i)
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
			for _, d := range dsts {
				for _, v := range d.Local(shm) {
					var b [8]byte
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
					landed.Write(b[:])
				}
			}
			comm.Barrier()
		}
		out[rk.ID] = replayOutcome{Landed: landed.Sum64(), V: rk.Now(), Decisions: cenv.Decisions()}
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
// executions. make verify runs this under -race at GOMAXPROCS=4, where the
// ranks really do share the parsed blocks concurrently.
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
// allocates nothing per execution once bound on the one-sided targets, and
// on the two-sided target no more than the requests a hand-written
// Irecv x2, Isend x2, Waitall allocates too.
func TestHaloTextSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n, warm, ops, count = 4, 4200, 200, 8 // warm fills the capped decision log
	// One P, as in testing.AllocsPerRun: a waiter that spins out and parks
	// in the simnet barrier allocates there, which is not what is measured.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// measure reports heap allocations per rank per op; rank 0 reads the
	// counters while the others sit between two barriers.
	measure := func(setup func(*spmd.Rank, *core.Env, [4]any) func() error) float64 {
		var before, after runtime.MemStats
		err := spmd.Run(n, model.GeminiLike(), func(rk *spmd.Rank) error {
			comm := mpi.World(rk)
			shm := shmem.New(rk)
			cenv, err := core.NewEnv(comm, shm)
			if err != nil {
				return err
			}
			defer cenv.Close()
			op := setup(rk, cenv, [4]any{
				make([]float64, count), make([]float64, count),
				shmem.MustAlloc[float64](shm, count), shmem.MustAlloc[float64](shm, count),
			})
			read := func(m *runtime.MemStats) {
				comm.Barrier()
				if rk.ID == 0 {
					runtime.ReadMemStats(m)
				}
				comm.Barrier()
			}
			for i := 0; i < warm+ops; i++ {
				if i == warm {
					read(&before)
				}
				if err := op(); err != nil {
					return err
				}
			}
			read(&after)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(after.Mallocs-before.Mallocs) / float64(n*ops)
	}
	text := func(target string) float64 {
		block := pragma.MustParseBlock(`#pragma comm_parameters target(` + target + `) max_comm_iter(2)
		{
		  #pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) sbuf(edgeR) rbuf(haloL) count(8)
		  #pragma comm_p2p sender((rank+1)%nprocs) receiver((rank-1+nprocs)%nprocs) sbuf(edgeL) rbuf(haloR) count(8)
		}`)
		return measure(func(rk *spmd.Rank, cenv *core.Env, b [4]any) func() error {
			penv := pragma.Env{
				Vars: map[string]int{"rank": rk.ID, "nprocs": n},
				Bufs: map[string]any{"edgeL": b[0], "edgeR": b[1], "haloL": b[2], "haloR": b[3]},
			}
			return func() error {
				if err := block.Exec(cenv, penv); err != nil {
					return err
				}
				if target == "TARGET_COMM_SHMEM" {
					cenv.Shmem().BarrierAll() // the halos are reused: consumption sync
				}
				return nil
			}
		})
	}
	for _, target := range []string{"TARGET_COMM_MPI_1SIDE", "TARGET_COMM_SHMEM"} {
		got := text(target)
		t.Logf("%s: %.3f allocations per rank per execution", target, got)
		if got >= 0.05 {
			t.Errorf("%s: %.2f allocations per rank per execution, want 0", target, got)
		}
	}

	handwritten := measure(func(rk *spmd.Rank, cenv *core.Env, b [4]any) func() error {
		c, shm := cenv.Comm(), cenv.Shmem()
		var hl, hr any = b[2].(*shmem.Slice[float64]).Local(shm), b[3].(*shmem.Slice[float64]).Local(shm)
		left, right := (rk.ID+n-1)%n, (rk.ID+1)%n
		reqs := make([]*mpi.Request, 4)
		return func() (err error) {
			if reqs[0], err = c.Irecv(hl, count, mpi.Float64, left, 1); err != nil {
				return err
			}
			if reqs[1], err = c.Irecv(hr, count, mpi.Float64, right, 2); err != nil {
				return err
			}
			if reqs[2], err = c.Isend(b[1], count, mpi.Float64, right, 1); err != nil {
				return err
			}
			if reqs[3], err = c.Isend(b[0], count, mpi.Float64, left, 2); err != nil {
				return err
			}
			_, err = c.Waitall(reqs)
			return err
		}
	})
	got := text("TARGET_COMM_MPI_2SIDE")
	t.Logf("two-sided: %.3f allocations per rank per execution, hand-written exchange %.3f", got, handwritten)
	if got > handwritten+0.05 {
		t.Errorf("two-sided: %.2f allocations per rank per execution, hand-written exchange %.2f", got, handwritten)
	}
}
