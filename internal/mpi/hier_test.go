package mpi_test

import (
	"fmt"
	"reflect"
	"testing"

	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/spmd"
)

// hierProfiles places communicators on every placement shape: the flat
// crossbar, regular multi-rank nodes, wrap-around (more ranks than the
// machine holds, so node membership is non-contiguous in comm rank), a
// degenerate single-node torus, and a dragonfly. Placement shapes the
// communicator's barrier tree and the modelled hop cost; it must never
// shape the data.
func hierProfiles() map[string]*model.Profile {
	return map[string]*model.Profile{
		"flat": model.GeminiLike(),
		// 2x2x2 torus, 4 ranks/node: 13 ranks use 4 nodes, the last one short.
		"torus": model.GeminiLike().WithTorus(2, 2, 2, 4, 300, 200),
		// 2-node machine, 3 ranks/node, capacity 6: 13 ranks wrap more than
		// twice, so each node's member list is non-contiguous.
		"torus-wrap": model.GeminiLike().WithTorus(2, 1, 1, 3, 300, 200),
		// Degenerate 1-node torus: every rank co-located.
		"torus-1node": model.GeminiLike().WithTorus(1, 1, 1, 4, 300, 200),
		"dragonfly": model.GeminiLike().WithDragonfly(
			model.Dragonfly{Groups: 2, RoutersPerGroup: 2, NodesPerRouter: 1, RanksPerNode: 2, GlobalHopWeight: 3},
			350, 220),
	}
}

// TestHierarchicalCollectives runs the collective script on every placement
// shape, at power-of-two and non-power-of-two comm sizes, and checks every
// result against independently computed references for all three numeric
// datatypes.
func TestHierarchicalCollectives(t *testing.T) {
	for name, prof := range hierProfiles() {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{5, 8, 13, 16} {
				t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
					checkCollReference(t, n, runCollScriptProf(t, n, prof))
				})
			}
		})
	}
}

// TestHierEngages pins that a hierarchical placement actually reaches the
// collectives rather than being silently treated as flat, and that it
// reaches them only through the replay's per-hop latency: on a torus with
// two ranks per node and a per-hop latency large enough to show through
// the alltoall's receive posts, every collective finishes later in virtual
// time than on the flat network, and with the per-hop latency zeroed it
// finishes at exactly the flat time — the node-grouped barrier the
// placement also shapes never leaks into virtual time.
func TestHierEngages(t *testing.T) {
	cases := []struct {
		name string
		run  func(c *mpi.Comm, n int) error
	}{
		{"allreduce", func(c *mpi.Comm, n int) error {
			out := make([]float64, 1)
			if err := c.Allreduce([]float64{1}, out, 1, mpi.Float64, mpi.OpSum); err != nil {
				return err
			}
			if out[0] != float64(n) {
				return fmt.Errorf("rank %d: allreduce = %v, want %d", c.Rank(), out[0], n)
			}
			return nil
		}},
		{"bcast", func(c *mpi.Comm, n int) error {
			b := []float64{0, 0}
			if c.Rank() == 0 {
				b = []float64{3, 4}
			}
			if err := c.Bcast(b, 2, mpi.Float64, 0); err != nil {
				return err
			}
			if b[0] != 3 || b[1] != 4 {
				return fmt.Errorf("rank %d: bcast = %v, want [3 4]", c.Rank(), b)
			}
			return nil
		}},
		{"alltoall", func(c *mpi.Comm, n int) error {
			in, out := make([]float64, n), make([]float64, n)
			for i := range in {
				in[i] = float64(100*c.Rank() + i)
			}
			if err := c.Alltoall(in, 1, mpi.Float64, out); err != nil {
				return err
			}
			for src, v := range out {
				if v != float64(100*src+c.Rank()) {
					return fmt.Errorf("rank %d: alltoall[%d] = %v", c.Rank(), src, v)
				}
			}
			return nil
		}},
	}
	const n = 8
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			makespan := func(prof *model.Profile) model.Time {
				w, err := spmd.NewWorld(n, prof)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Run(func(rk *spmd.Rank) error {
					return tc.run(mpi.World(rk), n)
				}); err != nil {
					t.Fatal(err)
				}
				return w.MaxVirtualTime()
			}
			flat := makespan(model.GeminiLike())
			zeroHop := makespan(model.GeminiLike().WithTorus(2, 2, 1, 2, 0, 0))
			torus := makespan(model.GeminiLike().WithTorus(2, 2, 1, 2, 20000, 200))
			if zeroHop != flat {
				t.Errorf("torus with zero per-hop latency: %d, want the flat %d", zeroHop, flat)
			}
			if torus <= flat {
				t.Errorf("torus placement: %d, want later than the flat %d", torus, flat)
			}
		})
	}
}

// collRun captures everything observable from one execution of the
// collective script: the data every collective produced and the virtual
// clock after every operation, rank-major.
type collRun struct {
	clocks [][]int64
	bcast  [][]float64
	reduce []float64   // root only
	allred [][]float64 // max op
	gather []int64     // root only
	scat   [][]float64
	allg   [][]int32
	a2a    [][]float64
	large  [][]float64 // 10k-element allreduce
}

// runCollScriptProf runs every collective once over an n-rank world on the
// given profile and returns the captured outputs. Values are integer-valued
// floats where it matters, so any reduction order produces identical bits.
func runCollScriptProf(t *testing.T, n int, prof *model.Profile) *collRun {
	t.Helper()
	const largeN = 10000
	out := &collRun{
		clocks: make([][]int64, n),
		bcast:  make([][]float64, n),
		allred: make([][]float64, n),
		scat:   make([][]float64, n),
		allg:   make([][]int32, n),
		a2a:    make([][]float64, n),
		large:  make([][]float64, n),
	}
	err := spmd.Run(n, prof, func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		me := c.Rank()
		var clocks []int64
		tick := func() { clocks = append(clocks, int64(rk.Now())) }

		b := make([]float64, 5)
		if me == 2%n {
			for i := range b {
				b[i] = float64(10*i + 1)
			}
		}
		if err := c.Bcast(b, 5, mpi.Float64, 2%n); err != nil {
			return err
		}
		tick()

		rs := []float64{float64(me), float64(2 * me), 7}
		rr := make([]float64, 3)
		if err := c.Reduce(rs, rr, 3, mpi.Float64, mpi.OpSum, 1%n); err != nil {
			return err
		}
		tick()

		as := []float64{float64(me), float64(-me), 3.5, float64(me % 3)}
		ar := make([]float64, 4)
		if err := c.Allreduce(as, ar, 4, mpi.Float64, mpi.OpMax); err != nil {
			return err
		}
		tick()

		gs := []int64{int64(me), int64(100 + me)}
		var gr []int64
		if me == 0 {
			gr = make([]int64, 2*n)
		}
		if err := c.Gather(gs, 2, mpi.Int64, gr, 0); err != nil {
			return err
		}
		tick()

		var ss []float64
		if me == n-1 {
			ss = make([]float64, 2*n)
			for i := range ss {
				ss[i] = float64(3 * i)
			}
		}
		sr := make([]float64, 2)
		if err := c.Scatter(ss, 2, mpi.Float64, sr, n-1); err != nil {
			return err
		}
		tick()

		ags := []int32{int32(me), int32(me * me), int32(5 - me)}
		agr := make([]int32, 3*n)
		if err := c.Allgather(ags, 3, mpi.Int32, agr); err != nil {
			return err
		}
		tick()

		ats := make([]float64, 2*n)
		for i := range ats {
			ats[i] = float64(1000*me + i)
		}
		atr := make([]float64, 2*n)
		if err := c.Alltoall(ats, 2, mpi.Float64, atr); err != nil {
			return err
		}
		tick()

		ls := make([]float64, largeN)
		for i := range ls {
			ls[i] = float64((me + i) % 17)
		}
		lr := make([]float64, largeN)
		if err := c.Allreduce(ls, lr, largeN, mpi.Float64, mpi.OpSum); err != nil {
			return err
		}
		tick()

		out.clocks[me] = clocks
		out.bcast[me] = b
		if me == 1%n {
			out.reduce = rr
		}
		out.allred[me] = ar
		if me == 0 {
			out.gather = gr
		}
		out.scat[me] = sr
		out.allg[me] = agr
		out.a2a[me] = atr
		out.large[me] = lr
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkCollReference verifies a run against independently computed results.
func checkCollReference(t *testing.T, n int, got *collRun) {
	t.Helper()
	wantB := []float64{1, 11, 21, 31, 41}
	wantR := make([]float64, 3)
	for r := 0; r < n; r++ {
		wantR[0] += float64(r)
		wantR[1] += float64(2 * r)
		wantR[2] += 7
	}
	wantAR := []float64{float64(n - 1), 0, 3.5, float64(min(n-1, 2))}
	wantG := make([]int64, 2*n)
	wantAG := make([]int32, 3*n)
	for r := 0; r < n; r++ {
		wantG[2*r], wantG[2*r+1] = int64(r), int64(100+r)
		wantAG[3*r], wantAG[3*r+1], wantAG[3*r+2] = int32(r), int32(r*r), int32(5-r)
	}
	for me := 0; me < n; me++ {
		if !reflect.DeepEqual(got.bcast[me], wantB) {
			t.Errorf("rank %d bcast = %v, want %v", me, got.bcast[me], wantB)
		}
		if !reflect.DeepEqual(got.allred[me], wantAR) {
			t.Errorf("rank %d allreduce = %v, want %v", me, got.allred[me], wantAR)
		}
		wantS := []float64{float64(3 * 2 * me), float64(3 * (2*me + 1))}
		if !reflect.DeepEqual(got.scat[me], wantS) {
			t.Errorf("rank %d scatter = %v, want %v", me, got.scat[me], wantS)
		}
		if !reflect.DeepEqual(got.allg[me], wantAG) {
			t.Errorf("rank %d allgather = %v, want %v", me, got.allg[me], wantAG)
		}
		wantA2A := make([]float64, 2*n)
		for src := 0; src < n; src++ {
			wantA2A[2*src] = float64(1000*src + 2*me)
			wantA2A[2*src+1] = float64(1000*src + 2*me + 1)
		}
		if !reflect.DeepEqual(got.a2a[me], wantA2A) {
			t.Errorf("rank %d alltoall = %v, want %v", me, got.a2a[me], wantA2A)
		}
		for i, v := range got.large[me] {
			var want float64
			for r := 0; r < n; r++ {
				want += float64((r + i) % 17)
			}
			if v != want {
				t.Fatalf("rank %d large allreduce[%d] = %v, want %v", me, i, v, want)
			}
		}
	}
	if !reflect.DeepEqual(got.reduce, wantR) {
		t.Errorf("reduce = %v, want %v", got.reduce, wantR)
	}
}

type hierStruct struct {
	ID  int32
	Pos [2]float64
}

// TestHierBcastDerived pins the derived-datatype path of Bcast on a
// wrapped-torus placement: a staged (encoded, moved, decoded) struct payload
// lands on every rank, the root included.
func TestHierBcastDerived(t *testing.T) {
	prof := model.GeminiLike().WithTorus(2, 1, 1, 3, 300, 200)
	const n = 7
	got := make([][]hierStruct, n)
	err := spmd.Run(n, prof, func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		dt, err := c.TypeCreateStruct(hierStruct{})
		if err != nil {
			return err
		}
		ps := make([]hierStruct, 3)
		if c.Rank() == 1 {
			for i := range ps {
				ps[i] = hierStruct{ID: int32(10 + i), Pos: [2]float64{float64(i), float64(2 * i)}}
			}
		}
		if err := c.Bcast(ps, 3, dt, 1); err != nil {
			return err
		}
		got[c.Rank()] = ps
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []hierStruct{{ID: 10}, {ID: 11, Pos: [2]float64{1, 2}}, {ID: 12, Pos: [2]float64{2, 4}}}
	for me := 0; me < n; me++ {
		if !reflect.DeepEqual(got[me], want) {
			t.Errorf("rank %d derived bcast = %v, want %v", me, got[me], want)
		}
	}
}
