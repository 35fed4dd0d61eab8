package mpi_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/spmd"
)

// runCollScript runs every collective once over an n-rank world on the flat
// Gemini profile and returns the captured outputs.
func runCollScript(t *testing.T, n int) *collRun {
	t.Helper()
	return runCollScriptProf(t, n, model.GeminiLike())
}

// TestCollectiveAlgorithms pins the collectives' two halves against
// independent references. The data half is the owner step's direct copy:
// the script's results must match independently computed references, and
// every rank's clock after every operation must be bit-identical when the
// barrier parks instead of spinning (one P), so that a different goroutine
// is the last arriver that runs the owner step. The virtual-time half is
// the canonical schedule replay.go charges — binomial tree, linear
// gather/scatter, pairwise alltoall: each collective must leave every rank
// at exactly the clock the same schedule leaves it at when executed as
// point-to-point messages. The cost model, not the data movement, owns
// virtual time.
func TestCollectiveAlgorithms(t *testing.T) {
	for _, n := range []int{5, 8} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			base := runCollScript(t, n)
			checkCollReference(t, n, base)
			t.Run("direct", func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				got := runCollScript(t, n)
				checkCollReference(t, n, got)
				if !reflect.DeepEqual(got.clocks, base.clocks) {
					t.Errorf("virtual clocks at one P differ from the baseline: %v, want %v", got.clocks, base.clocks)
				}
			})
			for _, s := range canonicalSchedules {
				t.Run(s.name, func(t *testing.T) {
					coll, collData := scheduleClocks(t, n, s.ops, false)
					p2p, p2pData := scheduleClocks(t, n, s.ops, true)
					if !reflect.DeepEqual(coll, p2p) {
						t.Errorf("collective clocks %v, want the point-to-point %s schedule's %v", coll, s.name, p2p)
					}
					for r := range p2pData {
						for i, want := range p2pData[r] {
							if want != nil && !reflect.DeepEqual(collData[r][i], want) {
								t.Errorf("rank %d call %d: collective left %v, the %s schedule %v", r, i, collData[r][i], s.name, want)
							}
						}
					}
				})
			}
		})
	}
}

// schedOp is one collective call of a canonical-schedule script, with the
// same call written out as the point-to-point messages of its schedule.
// Both forms must leave the same data behind.
type schedOp struct {
	coll func(c *mpi.Comm) ([]float64, error)
	p2p  func(rk *spmd.Rank, c *mpi.Comm, tag int) ([]float64, error)
}

// schedCount keeps every message eager (the replay charges no rendezvous
// handshake) while leaving several elements per rank.
const schedCount = 6

// schedIn is rank me's integer-valued contribution, so any summation order
// produces identical bits.
func schedIn(me, n int) []float64 {
	in := make([]float64, n*schedCount)
	for i := range in {
		in[i] = float64(100*me + i)
	}
	return in
}

// canonicalSchedules groups the collectives by the schedule replay.go
// charges them: Allreduce is reduce+bcast and Allgather gather+bcast.
var canonicalSchedules = []struct {
	name string
	ops  []schedOp
}{
	{"binomial", []schedOp{
		{
			func(c *mpi.Comm) ([]float64, error) {
				b := rootBuf(c, 2%c.Size())
				return b, c.Bcast(b, schedCount, mpi.Float64, 2%c.Size())
			},
			func(rk *spmd.Rank, c *mpi.Comm, tag int) ([]float64, error) {
				b := rootBuf(c, 2%c.Size())
				return b, p2pBcast(c, b, 2%c.Size(), tag)
			},
		},
		{
			func(c *mpi.Comm) ([]float64, error) {
				out := make([]float64, schedCount)
				return out, c.Reduce(schedIn(c.Rank(), 1), out, schedCount, mpi.Float64, mpi.OpSum, 1%c.Size())
			},
			func(rk *spmd.Rank, c *mpi.Comm, tag int) ([]float64, error) {
				return p2pReduce(rk, c, schedIn(c.Rank(), 1), 1%c.Size(), tag)
			},
		},
		{
			func(c *mpi.Comm) ([]float64, error) {
				out := make([]float64, schedCount)
				return out, c.Allreduce(schedIn(c.Rank(), 1), out, schedCount, mpi.Float64, mpi.OpSum)
			},
			func(rk *spmd.Rank, c *mpi.Comm, tag int) ([]float64, error) {
				out, err := p2pReduce(rk, c, schedIn(c.Rank(), 1), 0, tag)
				if err != nil {
					return nil, err
				}
				if c.Rank() != 0 {
					out = make([]float64, schedCount)
				}
				return out, p2pBcast(c, out, 0, tag+1)
			},
		},
	}},
	{"linear", []schedOp{
		{
			func(c *mpi.Comm) ([]float64, error) {
				out := make([]float64, c.Size()*schedCount)
				return out, c.Gather(schedIn(c.Rank(), 1), schedCount, mpi.Float64, out, 1%c.Size())
			},
			func(rk *spmd.Rank, c *mpi.Comm, tag int) ([]float64, error) {
				return p2pGather(c, schedIn(c.Rank(), 1), 1%c.Size(), tag)
			},
		},
		{
			func(c *mpi.Comm) ([]float64, error) {
				out := make([]float64, schedCount)
				return out, c.Scatter(schedIn(c.Rank(), c.Size()), schedCount, mpi.Float64, out, c.Size()-1)
			},
			func(rk *spmd.Rank, c *mpi.Comm, tag int) ([]float64, error) {
				return p2pScatter(c, schedIn(c.Rank(), c.Size()), c.Size()-1, tag)
			},
		},
		{
			func(c *mpi.Comm) ([]float64, error) {
				out := make([]float64, c.Size()*schedCount)
				return out, c.Allgather(schedIn(c.Rank(), 1), schedCount, mpi.Float64, out)
			},
			func(rk *spmd.Rank, c *mpi.Comm, tag int) ([]float64, error) {
				out, err := p2pGather(c, schedIn(c.Rank(), 1), 0, tag)
				if err != nil {
					return nil, err
				}
				if c.Rank() != 0 {
					out = make([]float64, c.Size()*schedCount)
				}
				return out, p2pBcast(c, out, 0, tag+1)
			},
		},
	}},
	{"pairwise", []schedOp{
		{
			func(c *mpi.Comm) ([]float64, error) {
				out := make([]float64, c.Size()*schedCount)
				return out, c.Alltoall(schedIn(c.Rank(), c.Size()), schedCount, mpi.Float64, out)
			},
			func(rk *spmd.Rank, c *mpi.Comm, tag int) ([]float64, error) {
				return p2pAlltoall(c, schedIn(c.Rank(), c.Size()), tag)
			},
		},
	}},
}

// scheduleClocks runs ops over an n-rank world, each call after a
// rank-dependent skew (so arrivals race posts both ways and the unexpected
// penalty is charged somewhere), through the collectives or through their
// point-to-point schedules. It returns every rank's clock after every call
// and what every call left in its output (nil where a point-to-point form
// leaves nothing defined, as on a Reduce or Gather non-root). The profile
// charges no per-request bookkeeping, which the replay — modelled on the
// internal send/receive path — does not have.
func scheduleClocks(t *testing.T, n int, ops []schedOp, p2p bool) ([][]int64, [][][]float64) {
	t.Helper()
	prof := model.GeminiLike()
	prof.MPIRequestPerItem = 0
	clocks := make([][]int64, n)
	data := make([][][]float64, n)
	err := spmd.Run(n, prof, func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		for i, op := range ops {
			rk.Compute(model.Time((rk.ID*7+i*3)%5) * 700)
			var out []float64
			var err error
			if p2p {
				out, err = op.p2p(rk, c, 2*i)
			} else {
				out, err = op.coll(c)
			}
			if err != nil {
				return err
			}
			clocks[rk.ID] = append(clocks[rk.ID], int64(rk.Now()))
			data[rk.ID] = append(data[rk.ID], out)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return clocks, data
}

// rootBuf is a broadcast buffer: values on root, zeros elsewhere.
func rootBuf(c *mpi.Comm, root int) []float64 {
	b := make([]float64, schedCount)
	if c.Rank() == root {
		for i := range b {
			b[i] = float64(10*i + 1)
		}
	}
	return b
}

// p2pBcast is the binomial-tree broadcast: relative rank rel receives from
// rel minus its highest set bit, then sends to rel+bit for every bit above
// that one, in ascending order.
func p2pBcast(c *mpi.Comm, buf []float64, root, tag int) error {
	n := c.Size()
	rel := (c.Rank() - root + n) % n
	start := 1
	if rel != 0 {
		top := 1
		for top<<1 <= rel {
			top <<= 1
		}
		if _, err := c.Recv(buf, len(buf), mpi.Float64, (rel-top+root)%n, tag); err != nil {
			return err
		}
		start = top << 1
	}
	for bit := start; rel+bit < n; bit <<= 1 {
		if err := c.Send(buf, len(buf), mpi.Float64, (rel+bit+root)%n, tag); err != nil {
			return err
		}
	}
	return nil
}

// p2pReduce is the ascending-bit binomial sum to root: at round bit, a rank
// whose lowest set bit is bit sends its partial down and is done; a
// surviving rank with a partner receives and pays the combine arithmetic.
// Only root's result is returned.
func p2pReduce(rk *spmd.Rank, c *mpi.Comm, in []float64, root, tag int) ([]float64, error) {
	n := c.Size()
	rel := (c.Rank() - root + n) % n
	acc := append([]float64(nil), in...)
	tmp := make([]float64, len(in))
	for bit := 1; bit < n; bit <<= 1 {
		if rel&bit != 0 {
			return nil, c.Send(acc, len(acc), mpi.Float64, (rel-bit+root)%n, tag)
		}
		if rel+bit < n {
			if _, err := c.Recv(tmp, len(tmp), mpi.Float64, (rel+bit+root)%n, tag); err != nil {
				return nil, err
			}
			for i := range acc {
				acc[i] += tmp[i]
			}
			rk.Compute(model.Time(len(acc)) * rk.World().Profile().MPIReduceCompute)
		}
	}
	return acc, nil
}

// p2pGather is the linear gather: every non-root sends, root receives in
// comm-rank order and copies its own segment locally. Only root's result is
// returned.
func p2pGather(c *mpi.Comm, in []float64, root, tag int) ([]float64, error) {
	if c.Rank() != root {
		return nil, c.Send(in, len(in), mpi.Float64, root, tag)
	}
	out := make([]float64, c.Size()*len(in))
	for r := 0; r < c.Size(); r++ {
		seg := out[r*len(in) : (r+1)*len(in)]
		if r == root {
			copy(seg, in)
			continue
		}
		if _, err := c.Recv(seg, len(seg), mpi.Float64, r, tag); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// p2pScatter is the linear scatter: root sends segments in comm-rank order
// and copies its own locally; every other rank receives.
func p2pScatter(c *mpi.Comm, in []float64, root, tag int) ([]float64, error) {
	out := make([]float64, schedCount)
	if c.Rank() != root {
		_, err := c.Recv(out, schedCount, mpi.Float64, root, tag)
		return out, err
	}
	for r := 0; r < c.Size(); r++ {
		seg := in[r*schedCount : (r+1)*schedCount]
		if r == root {
			copy(out, seg)
			continue
		}
		if err := c.Send(seg, schedCount, mpi.Float64, r, tag); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// p2pAlltoall is the rank-ordered pairwise exchange: send to me+1, me+2, …
// then receive from me-1, me-2, …; the own segment is a local copy.
func p2pAlltoall(c *mpi.Comm, in []float64, tag int) ([]float64, error) {
	n, me := c.Size(), c.Rank()
	out := make([]float64, n*schedCount)
	copy(out[me*schedCount:(me+1)*schedCount], in[me*schedCount:])
	for step := 1; step < n; step++ {
		dst := (me + step) % n
		if err := c.Send(in[dst*schedCount:(dst+1)*schedCount], schedCount, mpi.Float64, dst, tag); err != nil {
			return nil, err
		}
	}
	for step := 1; step < n; step++ {
		src := (me - step + n) % n
		if _, err := c.Recv(out[src*schedCount:(src+1)*schedCount], schedCount, mpi.Float64, src, tag); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestVTPinAlgoInvariant replays the whole golden-pinned scenario matrix
// at one P and at four: the committed virtual-time figures must be
// reproduced bit-for-bit whatever the host's parallelism. It once chose the
// collective algorithm; now it only decides whether a barrier waiter spins
// or parks and which goroutine runs the owner step, and neither may reach
// virtual time.
func TestVTPinAlgoInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario matrix per parallelism")
	}
	base := runVTPinScenarios(t)
	for _, procs := range []int{1, 4} {
		got := func() map[string][][]int64 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			return runVTPinScenarios(t)
		}()
		if !reflect.DeepEqual(got, base) {
			t.Errorf("vtpin scenarios diverge at GOMAXPROCS=%d", procs)
		}
	}
}
