package commintent

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
	"time"

	"commintent/internal/core"
	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/simnet"
	"commintent/internal/spmd"
)

// The chaos gate (`make chaos`): a directive-expressed halo exchange swept
// across rank counts and injected drop rates, asserting the hang-proofing
// contract — every iteration completes with correct data or returns a typed
// error, never deadlocks — and pinning the determinism guarantee: same seed,
// same program → bit-identical per-rank virtual times, captured as an FNV
// hash per configuration in the golden. Regenerate only with a deliberate
// cost-model or fault-model change:
//
//	go test -run TestChaosHaloSweep . -update-chaos
var updateChaos = flag.Bool("update-chaos", false, "rewrite testdata/chaos_golden.json from the current implementation")

const chaosGoldenPath = "testdata/chaos_golden.json"

const (
	chaosSeed     = 0xC0FFEE
	chaosIters    = 3
	chaosInterior = 4 // interior cells per rank; field has 2 halo cells more
)

// chaosHalo runs a bidirectional nearest-neighbour halo exchange over a
// dropping fabric, validating the received halos every iteration, and
// returns the per-rank final virtual times.
func chaosHalo(t *testing.T, n int, drop float64, seed uint64) []int64 {
	t.Helper()
	w, err := spmd.NewWorld(n, model.GeminiLike())
	if err != nil {
		t.Fatal(err)
	}
	cfg := simnet.FaultConfig{Seed: seed, Drop: drop}
	cfg.TagSpan, cfg.UserSpan = mpi.P2PFaultScope()
	w.Fabric().SetFaults(cfg)
	edge := func(rank, it int) float64 { return float64(rank*1000 + it) }
	err = w.Run(func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		// The watchdog must only catch genuinely-never-sent traffic; under
		// -race with hundreds of goroutines, give legitimate waits headroom.
		c.SetWatchdog(5 * time.Second)
		e, err := core.NewEnv(c, nil)
		if err != nil {
			return err
		}
		defer e.Close()
		me := rk.ID
		field := make([]float64, chaosInterior+2) // [0]=left halo, [1..interior]=cells, [interior+1]=right halo
		haloL := field[:1]
		haloR := field[chaosInterior+1:]
		for it := 0; it < chaosIters; it++ {
			field[1] = edge(me, it)
			field[chaosInterior] = edge(me, it)
			err := e.Parameters(func(r *core.Region) error {
				// My left edge to the left neighbour's right halo.
				if err := r.P2P(
					core.Sender(me+1), core.Receiver(me-1),
					core.SendWhen(me > 0), core.ReceiveWhen(me < n-1),
					core.SBuf(field[1:2]), core.RBuf(haloR), core.Count(1),
				); err != nil {
					return err
				}
				// My right edge to the right neighbour's left halo.
				return r.P2P(
					core.Sender(me-1), core.Receiver(me+1),
					core.SendWhen(me < n-1), core.ReceiveWhen(me > 0),
					core.SBuf(field[chaosInterior:chaosInterior+1]), core.RBuf(haloL), core.Count(1),
				)
			},
				core.WithTarget(core.TargetMPI2Side),
				core.PlaceSync(core.EndParamRegion),
			)
			if err != nil {
				return fmt.Errorf("iter %d: %w", it, err)
			}
			if me < n-1 && haloR[0] != edge(me+1, it) {
				return fmt.Errorf("iter %d: right halo = %v, want %v", it, haloR[0], edge(me+1, it))
			}
			if me > 0 && haloL[0] != edge(me-1, it) {
				return fmt.Errorf("iter %d: left halo = %v, want %v", it, haloL[0], edge(me-1, it))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("n=%d drop=%g: %v", n, drop, err)
	}
	times := make([]int64, n)
	for r := 0; r < n; r++ {
		times[r] = int64(w.Fabric().Endpoint(r).Clock().Now())
	}
	return times
}

type chaosPin struct {
	Hash string `json:"fnv64_of_rank_times"`
	MaxV int64  `json:"max_virtual_ns"`
}

func pinOf(times []int64) chaosPin {
	h := fnv.New64a()
	var b [8]byte
	var maxV int64
	for _, v := range times {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
		if v > maxV {
			maxV = v
		}
	}
	return chaosPin{Hash: fmt.Sprintf("%016x", h.Sum64()), MaxV: maxV}
}

// TestChaosHaloSweep is the main chaos gate: 64 and 256 ranks at 0%, 1% and
// 5% injected drop. Completion and data correctness are asserted inside
// chaosHalo; the per-rank virtual times of every configuration are pinned
// against the golden, which is what makes the determinism guarantee a
// regression-testable property rather than a comment.
func TestChaosHaloSweep(t *testing.T) {
	got := map[string]chaosPin{}
	for _, n := range []int{64, 256} {
		for _, drop := range []float64{0, 0.01, 0.05} {
			name := fmt.Sprintf("n%d_drop%g", n, drop)
			got[name] = pinOf(chaosHalo(t, n, drop, chaosSeed))
		}
	}
	if *updateChaos {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(chaosGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(chaosGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", chaosGoldenPath)
		return
	}
	data, err := os.ReadFile(chaosGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update-chaos on the reference implementation): %v", err)
	}
	want := map[string]chaosPin{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d configs, run produced %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("golden config %s not produced", name)
			continue
		}
		if g != w {
			t.Errorf("%s: pin %+v, golden %+v", name, g, w)
		}
	}
}

// TestChaosSameSeedBitIdentical re-runs one faulty configuration and demands
// the full per-rank time vector match element for element; a different seed
// must produce a different fault pattern.
func TestChaosSameSeedBitIdentical(t *testing.T) {
	a := chaosHalo(t, 64, 0.05, chaosSeed)
	b := chaosHalo(t, 64, 0.05, chaosSeed)
	for r := range a {
		if a[r] != b[r] {
			t.Fatalf("rank %d: %d != %d across same-seed runs", r, a[r], b[r])
		}
	}
	c := chaosHalo(t, 64, 0.05, chaosSeed+1)
	same := true
	for r := range a {
		if a[r] != c[r] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seed produced bit-identical times (injector not keyed on seed?)")
	}
}

// chaosHierAllreduce interleaves a retried ring p2p exchange with an
// allreduce on a wrapped-torus placement (64 ranks on a 32-rank-capacity
// torus, so node membership is non-contiguous and the communicator's
// barrier is the node-grouped tree) under injected drops. The p2p traffic is
// fault-eligible and retried; the collective sends no message, and this run
// proves the two coexist: every iteration's halo and allreduce results are
// exact, and the per-rank virtual times it returns are same-seed
// deterministic.
func chaosHierAllreduce(t *testing.T, n int, drop float64, seed uint64) []int64 {
	t.Helper()
	w, err := spmd.NewWorld(n, model.GeminiLike().WithTorus(2, 2, 2, 4, 300, 200))
	if err != nil {
		t.Fatal(err)
	}
	cfg := simnet.FaultConfig{Seed: seed, Drop: drop}
	cfg.TagSpan, cfg.UserSpan = mpi.P2PFaultScope()
	w.Fabric().SetFaults(cfg)
	edge := func(rank, it int) float64 { return float64(rank*1000 + it) }
	err = w.Run(func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		c.SetWatchdog(5 * time.Second)
		e, err := core.NewEnv(c, nil)
		if err != nil {
			return err
		}
		defer e.Close()
		me := rk.ID
		src, dst := make([]float64, 1), make([]float64, 1)
		in, out := make([]float64, 2), make([]float64, 2)
		for it := 0; it < chaosIters; it++ {
			src[0] = edge(me, it)
			if err := e.P2P(
				core.Sender((me+1)%n), core.Receiver((me+n-1)%n),
				core.SBuf(src), core.RBuf(dst), core.Count(1),
				core.WithTarget(core.TargetMPI2Side),
			); err != nil {
				return fmt.Errorf("iter %d p2p: %w", it, err)
			}
			if want := edge((me+1)%n, it); dst[0] != want {
				return fmt.Errorf("iter %d: ring recv = %v, want %v", it, dst[0], want)
			}
			in[0], in[1] = float64(me%5), 1
			if err := c.Allreduce(in, out, 2, mpi.Float64, mpi.OpSum); err != nil {
				return fmt.Errorf("iter %d allreduce: %w", it, err)
			}
			var wantSum float64
			for r := 0; r < n; r++ {
				wantSum += float64(r % 5)
			}
			if out[0] != wantSum || out[1] != float64(n) {
				return fmt.Errorf("iter %d: allreduce = %v, want [%v %v]", it, out, wantSum, float64(n))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("n=%d drop=%g: %v", n, drop, err)
	}
	times := make([]int64, n)
	for r := 0; r < n; r++ {
		times[r] = int64(w.Fabric().Endpoint(r).Clock().Now())
	}
	return times
}

// TestChaosHierAllreduce is the hierarchical-placement chaos gate: the
// faulty run completes with exact data (asserted inside chaosHierAllreduce)
// and two same-seed runs produce bit-identical per-rank virtual times.
func TestChaosHierAllreduce(t *testing.T) {
	a := chaosHierAllreduce(t, 64, 0.05, chaosSeed)
	b := chaosHierAllreduce(t, 64, 0.05, chaosSeed)
	for r := range a {
		if a[r] != b[r] {
			t.Fatalf("rank %d: %d != %d across same-seed runs", r, a[r], b[r])
		}
	}
}

// TestChaosTotalLossTyped: at 100% drop the retry budget runs out and the
// directive returns a typed ErrMessageLost on both sides — the "fails well"
// half of the contract.
func TestChaosTotalLossTyped(t *testing.T) {
	const n = 2
	w, err := spmd.NewWorld(n, model.Uniform(100))
	if err != nil {
		t.Fatal(err)
	}
	cfg := simnet.FaultConfig{Seed: 9, Drop: 1}
	cfg.TagSpan, cfg.UserSpan = mpi.P2PFaultScope()
	w.Fabric().SetFaults(cfg)
	errs := make([]error, n)
	if err := w.Run(func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		c.SetWatchdog(2 * time.Second)
		e, err := core.NewEnv(c, nil)
		if err != nil {
			return err
		}
		defer e.Close()
		src, dst := []float64{1}, []float64{-1}
		errs[rk.ID] = e.P2P(
			core.Sender(1-rk.ID), core.Receiver(1-rk.ID),
			core.SBuf(src), core.RBuf(dst),
			core.WithTarget(core.TargetMPI2Side),
		)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for r, err := range errs {
		if !errors.Is(err, mpi.ErrMessageLost) {
			t.Errorf("rank %d: err = %v, want wrapped ErrMessageLost", r, err)
		}
	}
}
