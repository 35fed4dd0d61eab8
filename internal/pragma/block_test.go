package pragma_test

import (
	"strings"
	"testing"

	"commintent/internal/core"
	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/pragma"
	"commintent/internal/shmem"
	"commintent/internal/spmd"
)

// listing5 is the paper's Listing 5 pasted verbatim (line numbers and C
// braces removed; the clause text is untouched).
const listing5 = `
#pragma comm_parameters sendwhen(rank==from_rank)
    receivewhen(rank==to_rank)
    sender(from_rank) receiver(to_rank)
{
  #pragma comm_p2p sbuf(scalaratomdata)
      rbuf(scalaratomdata) count(1)
  { }

  #pragma comm_p2p vsbuf(vr,rhotot)
      rbuf(vr,rhotot) count(size1)
  { }

  #pragma comm_p2p sbuf(ec,nc,lc,kc)
      rbuf(ec,nc,lc,kc) count(size2)
  { }
}
`

func TestParseBlockListing5(t *testing.T) {
	b, err := pragma.ParseBlock(listing5)
	if err != nil {
		t.Fatal(err)
	}
	if b.Params == nil || len(b.P2P) != 3 {
		t.Fatalf("block: params=%v p2p=%d", b.Params != nil, len(b.P2P))
	}
	if len(b.P2P[1].SBuf) != 2 || len(b.P2P[2].SBuf) != 4 {
		t.Errorf("buffer lists: %v / %v", b.P2P[1].SBuf, b.P2P[2].SBuf)
	}
}

func TestParseBlockErrors(t *testing.T) {
	bad := []string{
		"",
		"no directives here",
		"#pragma comm_parameters sender(a) receiver(b)", // no p2p
		`#pragma comm_p2p sbuf(a) rbuf(a)
		 #pragma comm_parameters sender(x) receiver(y)
		 #pragma comm_p2p sbuf(b) rbuf(b)`, // params after p2p
	}
	for _, src := range bad {
		if _, err := pragma.ParseBlock(src); err == nil {
			t.Errorf("block %q parsed", src)
		}
	}
}

// TestListing5BlockExecutes runs the paper's Listing 5 text end to end:
// the scalar composite moves via a derived datatype, the matrix pairs via
// buffer lists, all under one consolidated synchronisation.
func TestListing5BlockExecutes(t *testing.T) {
	type scalarAtomData struct {
		LocalID int32
		Xstart  float64
		Evec    [3]float64
	}
	const size1, size2 = 12, 8
	block := pragma.MustParseBlock(listing5)

	if err := spmd.Run(2, model.Uniform(10), func(rk *spmd.Rank) error {
		shm := shmem.New(rk)
		cenv, err := core.NewEnv(mpi.World(rk), shm)
		if err != nil {
			return err
		}
		defer cenv.Close()

		scal := &scalarAtomData{}
		vr := make([]float64, size1)
		rhotot := make([]float64, size1)
		ec := make([]float64, size2)
		nc := make([]int32, size2)
		lc := make([]int32, size2)
		kc := make([]int32, size2)
		if rk.ID == 0 {
			scal.LocalID = 5
			scal.Xstart = -11.13
			scal.Evec = [3]float64{0, 0, 1}
			for i := range vr {
				vr[i] = float64(i)
				rhotot[i] = float64(2 * i)
			}
			for i := range ec {
				ec[i] = float64(3 * i)
				nc[i], lc[i], kc[i] = int32(i), int32(i+1), int32(i+2)
			}
		}

		env := pragma.Env{
			Vars: map[string]int{
				"rank": rk.ID, "from_rank": 0, "to_rank": 1,
				"size1": size1, "size2": size2,
			},
			Bufs: map[string]any{
				"scalaratomdata": scal,
				"vr":             vr, "rhotot": rhotot,
				"ec": ec, "nc": nc, "lc": lc, "kc": kc,
			},
		}
		if err := block.Exec(cenv, env); err != nil {
			return err
		}
		if rk.ID == 1 {
			if scal.LocalID != 5 || scal.Xstart != -11.13 || scal.Evec[2] != 1 {
				t.Errorf("scalars: %+v", scal)
			}
			if vr[7] != 7 || rhotot[7] != 14 || ec[5] != 15 || nc[5] != 5 || lc[5] != 6 || kc[5] != 7 {
				t.Errorf("matrices corrupt: vr[7]=%v rho[7]=%v ec[5]=%v", vr[7], rhotot[7], ec[5])
			}
			// One consolidated waitall over all 7 receives, plus the
			// derived datatype created once.
			syncs, dtypes := 0, 0
			for _, d := range cenv.Decisions() {
				if d.Kind == "sync" && strings.Contains(d.Detail, "MPI_Waitall over 7") {
					syncs++
				}
				if d.Kind == "datatype" {
					dtypes++
				}
			}
			if syncs != 1 || dtypes != 1 {
				t.Errorf("syncs=%d dtypes=%d decisions=%v", syncs, dtypes, cenv.Decisions())
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCompileBlockPipeline runs the full pipeline: paper text -> parsed
// block -> statically compiled plan -> repeated execution with bindings.
func TestCompileBlockPipeline(t *testing.T) {
	src := `
	#pragma comm_parameters sender(from) receiver(to)
	    sendwhen(rank==from) receivewhen(rank==to)
	    place_sync(END_PARAM_REGION)
	#pragma comm_p2p sbuf(a) rbuf(a) count(4)
	#pragma comm_p2p sbuf(b) rbuf(b) count(2)
	`
	block, err := pragma.ParseBlock(src)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := pragma.CompileBlock(block, map[string]int{"from": 0, "to": 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Slots()) != 2 {
		t.Fatalf("slots = %v", pl.Slots())
	}
	dump := pl.String()
	if !strings.Contains(dump, "p2p-0") || !strings.Contains(dump, "region-end consolidated sync") {
		t.Errorf("plan dump:\n%s", dump)
	}
	if err := spmd.Run(2, model.Uniform(10), func(rk *spmd.Rank) error {
		shm := shmem.New(rk)
		cenv, err := core.NewEnv(mpi.World(rk), shm)
		if err != nil {
			return err
		}
		defer cenv.Close()
		a := make([]float64, 4)
		b := make([]int32, 2)
		for iter := 0; iter < 3; iter++ {
			if rk.ID == 0 {
				for i := range a {
					a[i] = float64(iter*10 + i)
				}
				b[0], b[1] = int32(iter), int32(-iter)
			}
			if err := pl.Execute(cenv, pragma.BindingFromBufs(map[string]any{"a": a, "b": b})); err != nil {
				return err
			}
			if rk.ID == 1 {
				if a[3] != float64(iter*10+3) || b[1] != int32(-iter) {
					t.Errorf("iter %d: a=%v b=%v", iter, a, b)
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCompileBlockRejectsOffsets: per-instance offsets need the dynamic
// path.
func TestCompileBlockRejectsOffsets(t *testing.T) {
	block, err := pragma.ParseBlock(`
	#pragma comm_parameters sender(0) receiver(1)
	#pragma comm_p2p sbuf(&a[p]) rbuf(&a[p])`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pragma.CompileBlock(block, nil); err == nil {
		t.Error("offset buffers compiled statically")
	}
}

// TestCompileBlockFreezesVars: vars are compile-time constants. Writing the
// caller's map after CompileBlock must not move the plan's roles, or a
// binding made before the write and one made after it would disagree on who
// sends.
func TestCompileBlockFreezesVars(t *testing.T) {
	block, err := pragma.ParseBlock(`
	#pragma comm_parameters sender(from) receiver(to) sendwhen(rank==from) receivewhen(rank==to)
	#pragma comm_p2p sbuf(a) rbuf(a) count(1)`)
	if err != nil {
		t.Fatal(err)
	}
	vars := map[string]int{"from": 0, "to": 1}
	pl, err := pragma.CompileBlock(block, vars)
	if err != nil {
		t.Fatal(err)
	}
	vars["from"], vars["to"] = 1, 0
	if err := spmd.Run(2, model.Uniform(10), func(rk *spmd.Rank) error {
		cenv, err := core.NewEnv(mpi.World(rk), nil)
		if err != nil {
			return err
		}
		defer cenv.Close()
		a := []float64{float64(10 + rk.ID)}
		if err := pl.Execute(cenv, pragma.BindingFromBufs(map[string]any{"a": a})); err != nil {
			return err
		}
		if a[0] != 10 {
			t.Errorf("rank %d holds %v after the exchange, want rank 0's 10", rk.ID, a[0])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
