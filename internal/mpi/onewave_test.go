package mpi_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"commintent/internal/coll"
	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/spmd"
	"commintent/internal/transport"
	"commintent/internal/typemap"
)

// TestCollectiveMismatch: ranks that do not all make the same collective
// call get one error, the same on every rank, naming the first rank that
// disagrees with rank 0 and the field it disagrees on — instead of rank 0's
// operation running over everyone's buffers. The communicator stays usable.
func TestCollectiveMismatch(t *testing.T) {
	const n, odd = 5, 3
	buf := func() ([]float64, []float64) { return make([]float64, 2*n), make([]float64, 2*n) }
	cases := []struct {
		field string
		call  func(c *mpi.Comm, odd bool) error
	}{
		{"operation", func(c *mpi.Comm, odd bool) error {
			s, r := buf()
			if odd {
				return c.Bcast(s, 2, mpi.Float64, 0)
			}
			return c.Allreduce(s, r, 2, mpi.Float64, mpi.OpSum)
		}},
		{"root", func(c *mpi.Comm, odd bool) error {
			s, _ := buf()
			root := 0
			if odd {
				root = 1
			}
			return c.Bcast(s, 2, mpi.Float64, root)
		}},
		{"count", func(c *mpi.Comm, odd bool) error {
			s, r := buf()
			count := 2
			if odd {
				count = 1
			}
			return c.Allgather(s, count, mpi.Float64, r)
		}},
		{"datatype", func(c *mpi.Comm, odd bool) error {
			if odd {
				return c.Allreduce(make([]int64, 2), make([]int64, 2), 2, mpi.Int64, mpi.OpSum)
			}
			s, r := buf()
			return c.Allreduce(s, r, 2, mpi.Float64, mpi.OpSum)
		}},
		{"op", func(c *mpi.Comm, odd bool) error {
			s, r := buf()
			op := mpi.OpSum
			if odd {
				op = mpi.OpMax
			}
			return c.Allreduce(s, r, 2, mpi.Float64, op)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			errs := make([]error, n)
			run(t, n, func(rk *spmd.Rank) error {
				c := mpi.World(rk)
				errs[rk.ID] = tc.call(c, rk.ID == odd)
				// Same call everywhere: the communicator still works.
				got := []int64{0}
				if err := c.Allreduce([]int64{1}, got, 1, mpi.Int64, mpi.OpSum); err != nil {
					return err
				}
				if got[0] != n {
					t.Errorf("rank %d: allreduce after the mismatch = %d, want %d", rk.ID, got[0], n)
				}
				return nil
			})
			want := fmt.Sprintf("rank %d disagrees with rank 0 on %s", odd, tc.field)
			for r, err := range errs {
				if !errors.Is(err, mpi.ErrCollectiveMismatch) || !strings.Contains(err.Error(), want) {
					t.Errorf("rank %d: err = %v, want ErrCollectiveMismatch saying %q", r, err, want)
				}
			}
		})
	}
}

// number is the element types the collectives reduce.
type number interface{ int32 | int64 | float64 }

// collCase is one rank's buffers for the mixed-collective script over one
// communicator and element type. Element k of rank r's contribution to call
// i is val(r, i, k): small integers, exact in every type and every
// reduction order.
type collCase[T number] struct {
	c          *mpi.Comm
	dt         *mpi.Datatype
	send, recv []T // Size()*maxCount elements each, reused by every call
}

const maxCount = 9

func val(r, i, k int) int { return (31*r + 7*i + k) % 97 }

func newCollCase[T number](c *mpi.Comm, dt *mpi.Datatype) *collCase[T] {
	return &collCase[T]{c: c, dt: dt, send: make([]T, c.Size()*maxCount), recv: make([]T, c.Size()*maxCount)}
}

// call makes call i of the script — kind, root, count and reduction
// operator all rotate with i — and checks every element that landed.
func (k *collCase[T]) call(i int) error {
	c, n, me := k.c, k.c.Size(), k.c.Rank()
	kind, root, count := coll.Kind(i%int(coll.NKinds)), i%n, 1+(5*i+3)%maxCount
	op := []mpi.Op{mpi.OpSum, mpi.OpMax, mpi.OpMin}[i%3]
	for j := range k.send {
		k.send[j] = T(val(me, i, j))
		k.recv[j] = -1
	}
	want := func(j int) int { return -1 } // what recv[j] must hold afterwards
	var err error
	switch kind {
	case coll.Bcast:
		buf := k.recv
		if me == root {
			buf = k.send
		}
		err = c.Bcast(buf, count, k.dt, root)
		if me != root {
			want = func(j int) int { return val(root, i, j) }
		}
	case coll.Reduce, coll.Allreduce:
		if kind == coll.Reduce {
			err = c.Reduce(k.send, k.recv, count, k.dt, op, root)
		} else {
			err = c.Allreduce(k.send, k.recv, count, k.dt, op)
		}
		if kind == coll.Allreduce || me == root {
			want = func(j int) int {
				acc := val(0, i, j)
				for r := 1; r < n; r++ {
					switch v := val(r, i, j); {
					case op == mpi.OpSum:
						acc += v
					case op == mpi.OpMax && v > acc, op == mpi.OpMin && v < acc:
						acc = v
					}
				}
				return acc
			}
		}
	case coll.Gather, coll.Allgather:
		if kind == coll.Gather {
			err = c.Gather(k.send, count, k.dt, k.recv, root)
		} else {
			err = c.Allgather(k.send, count, k.dt, k.recv)
		}
		if kind == coll.Allgather || me == root {
			count *= n
			want = func(j int) int { return val(j/(count/n), i, j%(count/n)) }
		}
	case coll.Scatter:
		err = c.Scatter(k.send, count, k.dt, k.recv, root)
		want = func(j int) int { return val(root, i, me*count+j) }
	case coll.Alltoall:
		err = c.Alltoall(k.send, count, k.dt, k.recv)
		per := count
		count *= n
		want = func(j int) int { return val(j/per, i, me*per+j%per) }
	}
	if err != nil {
		return fmt.Errorf("call %d (%s): %w", i, kind, err)
	}
	for j, got := range k.recv {
		w := -1 // past count, and where this rank receives nothing: untouched
		if j < count {
			w = want(j)
		}
		if got != T(w) {
			return fmt.Errorf("call %d (%s root %d count %d %s) on rank %d: recv[%d] = %v, want %d", i, kind, root, count, op, me, j, got, w)
		}
	}
	return nil
}

// collScript returns this rank's mixed-collective script over the world and
// a half-world sub-communicator and all three element types: call i picks
// the kind by i%7, the type by (i/7)%3 and the communicator by (i/21)%2.
func collScript(rk *spmd.Rank) (func(i int) error, error) {
	world := mpi.World(rk)
	half, err := world.Split(rk.ID%2, rk.ID)
	if err != nil {
		return nil, err
	}
	var cases []interface{ call(int) error }
	for _, c := range []*mpi.Comm{world, half} {
		cases = append(cases, newCollCase[float64](c, mpi.Float64), newCollCase[int64](c, mpi.Int64), newCollCase[int32](c, mpi.Int32))
	}
	return func(i int) error { return cases[(i/7)%len(cases)].call(i) }, nil
}

// TestCollectiveStress runs the mixed script back to back — no barrier, no
// pause between calls, buffers reused, every landed element checked — long
// enough under the static selection and under every forced algorithm for a
// rank to lap its neighbours: an entry, exit slot, shared outcome or buffer
// view reused before its last reader is done shows as a wrong element or,
// under -race (make verify runs this at GOMAXPROCS=4), as a report. The
// profile is a torus with several ranks per node, so the hierarchical
// movers and the node-grouped barrier shape are in play too.
func TestCollectiveStress(t *testing.T) {
	const n = 8
	prof := model.GeminiLike().WithTorus(2, 2, 1, 2, 300, 200)
	for _, kind := range []string{"simnet", "shm"} {
		for _, algo := range append([]coll.Algo{coll.NAlgos}, collAlgos[1:]...) {
			name, calls := "static", 10080
			if algo != coll.NAlgos {
				name, calls = algo.String(), 1050
			}
			t.Run(kind+"/"+name, func(t *testing.T) {
				t.Setenv(transport.EnvVar, kind)
				if algo != coll.NAlgos {
					defer coll.Force(algo)()
				}
				err := spmd.Run(n, prof, func(rk *spmd.Rank) error {
					call, err := collScript(rk)
					for i := 0; err == nil && i < calls; i++ {
						err = call(i)
					}
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCollectiveSteadyStateAllocs: under the direct algorithm a collective
// on primitive slices allocates nothing, on any rank, for any of the seven
// kinds and three element types — the buffers are published as views of the
// caller's memory, not boxed. One P, as in testing.AllocsPerRun: a waiter
// that spins out and parks in the barrier allocates there, which is not
// what is being measured.
func TestCollectiveSteadyStateAllocs(t *testing.T) {
	if mpi.RaceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if !typemap.FastPathAvailable() {
		t.Skip("no zero-copy wire views in this build (purego or big-endian): buffers are staged")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer coll.Force(coll.Direct)()
	const n, warm, rounds = 4, 3, 40
	var before, after runtime.MemStats
	run(t, n, func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		cases := []interface{ call(int) error }{
			newCollCase[float64](c, mpi.Float64), newCollCase[int64](c, mpi.Int64), newCollCase[int32](c, mpi.Int32),
		}
		read := func(m *runtime.MemStats) {
			c.Barrier()
			if rk.ID == 0 {
				runtime.ReadMemStats(m)
			}
			c.Barrier()
		}
		for round := 0; round < warm+rounds; round++ {
			if round == warm {
				read(&before)
			}
			for i := 0; i < 21; i++ { // every kind on every type
				if err := cases[i/7].call(21*round + i); err != nil {
					return err
				}
			}
		}
		read(&after)
		return nil
	})
	got := float64(after.Mallocs-before.Mallocs) / float64(n*21*rounds)
	t.Logf("%.3f allocations per rank per collective", got)
	if got >= 0.0005 {
		t.Errorf("%.3f allocations per rank per collective, want 0.000", got)
	}
}
