package core_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"commintent/internal/core"
	"commintent/internal/model"
	"commintent/internal/mpi"
	rt "commintent/internal/runtime"
	"commintent/internal/simnet"
	"commintent/internal/spmd"
	"commintent/internal/telemetry"
)

// ringExchange runs nxfer small transfers around a ring inside one region
// and validates every delivered element. The transfers are independent (no
// buffer reuse), so with coalescing on they should fold into batches.
func ringExchange(t *testing.T, rk *spmd.Rank, e *core.Env, n, nxfer, iter int) error {
	t.Helper()
	prev := (rk.ID - 1 + n) % n
	next := (rk.ID + 1) % n
	srcs := make([][]float64, nxfer)
	dsts := make([][]float64, nxfer)
	for i := range srcs {
		srcs[i] = []float64{float64(rk.ID*10000 + iter*100 + i), 0.5}
		dsts[i] = make([]float64, 2)
	}
	err := e.Parameters(func(r *core.Region) error {
		for i := 0; i < nxfer; i++ {
			if err := r.P2P(
				core.Sender(prev), core.Receiver(next),
				core.SBuf(srcs[i]), core.RBuf(dsts[i]),
				core.WithTarget(core.TargetMPI2Side),
			); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i := range dsts {
		if want := float64(prev*10000 + iter*100 + i); dsts[i][0] != want || dsts[i][1] != 0.5 {
			t.Errorf("rank %d iter %d xfer %d: got %v, want [%v 0.5]", rk.ID, iter, i, dsts[i], want)
		}
	}
	return nil
}

// TestCoalesceEquivalence: the same directive program delivers identical
// data with coalescing on, and the telemetry proves batching actually
// happened (messages saved, batch sizes > 1).
func TestCoalesceEquivalence(t *testing.T) {
	defer rt.Override(rt.Config{Coalesce: true})()
	const n, nxfer, iters = 4, 6, 3
	w, err := spmd.NewWorld(n, model.GeminiLike())
	if err != nil {
		t.Fatal(err)
	}
	tele := telemetry.New(n, 0)
	w.SetTelemetry(tele)
	if err := w.Run(func(rk *spmd.Rank) error {
		e, err := core.NewEnv(mpi.World(rk), nil)
		if err != nil {
			return err
		}
		defer e.Close()
		for iter := 0; iter < iters; iter++ {
			if err := ringExchange(t, rk, e, n, nxfer, iter); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	reg := tele.Registry()
	var batches, parts, saved int64
	for r := 0; r < n; r++ {
		batches += reg.CounterValue("runtime_coalesce_batches_total", telemetry.Rank(r))
		parts += reg.CounterValue("runtime_coalesce_parts_total", telemetry.Rank(r))
		saved += reg.CounterValue("runtime_coalesce_msgs_saved_total", telemetry.Rank(r))
	}
	if wantParts := int64(n * nxfer * iters); parts != wantParts {
		t.Errorf("coalesced parts = %d, want %d (all transfers eligible)", parts, wantParts)
	}
	if batches == 0 || saved != parts-batches {
		t.Errorf("batches=%d saved=%d parts=%d: inconsistent accounting", batches, saved, parts)
	}
	if saved == 0 {
		t.Error("coalescing saved no messages")
	}
}

// TestCoalesceSavesVirtualTime: the managed runtime makes the same program
// finish in strictly less virtual time than the static lowering — the
// mechanism behind the Fig. 4 speedup.
func TestCoalesceSavesVirtualTime(t *testing.T) {
	elapse := func(cfg rt.Config) model.Time {
		defer rt.Override(cfg)()
		w, err := spmd.NewWorld(4, model.GeminiLike())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(func(rk *spmd.Rank) error {
			e, err := core.NewEnv(mpi.World(rk), nil)
			if err != nil {
				return err
			}
			defer e.Close()
			for iter := 0; iter < 4; iter++ {
				if err := ringExchange(t, rk, e, 4, 8, iter); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return w.MaxVirtualTime()
	}
	off, on := elapse(rt.Config{}), elapse(rt.Config{Coalesce: true})
	if on >= off {
		t.Errorf("coalescing on: %d ns >= off: %d ns", on, off)
	}
}

// TestCoalesceDeterministicTrace: same program, same profile → every
// rank's decision log is the same sequence across runs, coalesce decisions
// and all; the replay contract. With coalescing off the log holds none.
func TestCoalesceDeterministicTrace(t *testing.T) {
	logs := func(cfg rt.Config) [][]core.Decision {
		defer rt.Override(cfg)()
		const n = 4
		out := make([][]core.Decision, n)
		if err := spmd.Run(n, model.GeminiLike(), func(rk *spmd.Rank) error {
			e, err := core.NewEnv(mpi.World(rk), nil)
			if err != nil {
				return err
			}
			for iter := 0; iter < 3; iter++ {
				if err := ringExchange(t, rk, e, n, 5, iter); err != nil {
					return err
				}
			}
			err = e.Close()
			out[rk.ID] = e.Decisions()
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	on := rt.Config{Coalesce: true}
	a, b := logs(on), logs(on)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed decision logs differ:\n%v\n%v", a, b)
	}
	for rank, ds := range a {
		if countKind(ds, "coalesce") == 0 {
			t.Errorf("rank %d recorded no coalesce decision with coalescing on: %v", rank, ds)
		}
	}
	for rank, ds := range logs(rt.Config{}) {
		if n := countKind(ds, "coalesce") + countKind(ds, "autosync"); n != 0 {
			t.Errorf("rank %d recorded %d managed-runtime decision(s) with the runtime off", rank, n)
		}
	}
}

// countKind counts the decisions of one kind.
func countKind(ds []core.Decision, kind string) int {
	n := 0
	for _, d := range ds {
		if d.Kind == kind {
			n++
		}
	}
	return n
}

// TestCoalesceDependentFlush: a directive whose source was the previous
// directive's destination depends on it; the pinned ranges must force the
// pending batch to complete before the dependent transfer is expressed.
func TestCoalesceDependentFlush(t *testing.T) {
	defer rt.Override(rt.Config{Coalesce: true})()
	const n = 2
	if err := spmd.Run(n, model.GeminiLike(), func(rk *spmd.Rank) error {
		e, err := core.NewEnv(mpi.World(rk), nil)
		if err != nil {
			return err
		}
		defer e.Close()
		peer := 1 - rk.ID
		a := []float64{float64(100 + rk.ID)}
		b := make([]float64, 1)
		c := make([]float64, 1)
		if err := e.Parameters(func(r *core.Region) error {
			// Transfer 1: a -> peer's b.
			if err := r.P2P(
				core.Sender(peer), core.Receiver(peer),
				core.SBuf(a), core.RBuf(b),
				core.WithTarget(core.TargetMPI2Side),
			); err != nil {
				return err
			}
			// Transfer 2 sends b onward: it depends on transfer 1's arrival.
			return r.P2P(
				core.Sender(peer), core.Receiver(peer),
				core.SBuf(b), core.RBuf(c),
				core.WithTarget(core.TargetMPI2Side),
			)
		}); err != nil {
			return err
		}
		// b holds the peer's a; c holds the value b had after transfer 1 on
		// the peer — which is this rank's own a value, round-tripped.
		if want := float64(100 + peer); b[0] != want {
			return fmt.Errorf("rank %d: b = %v, want %v", rk.ID, b[0], want)
		}
		if want := float64(100 + rk.ID); c[0] != want {
			return fmt.Errorf("rank %d: c = %v, want %v (dependent transfer saw stale data)", rk.ID, c[0], want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCoalesceMixedSizes: transfers above the part-size cap take the plain
// per-message path while small ones batch, in the same region, and both
// complete correctly in one flush.
func TestCoalesceMixedSizes(t *testing.T) {
	defer rt.Override(rt.Config{Coalesce: true})()
	const n = 2
	big := rt.MaxCoalescePartBytes/8 + 8 // float64 count above the cap
	if err := spmd.Run(n, model.GeminiLike(), func(rk *spmd.Rank) error {
		e, err := core.NewEnv(mpi.World(rk), nil)
		if err != nil {
			return err
		}
		defer e.Close()
		peer := 1 - rk.ID
		smallS := []float64{float64(rk.ID) + 0.25}
		smallD := make([]float64, 1)
		bigS := make([]float64, big)
		for i := range bigS {
			bigS[i] = float64(rk.ID*1000 + i)
		}
		bigD := make([]float64, big)
		if err := e.Parameters(func(r *core.Region) error {
			if err := r.P2P(
				core.Sender(peer), core.Receiver(peer),
				core.SBuf(smallS), core.RBuf(smallD),
				core.WithTarget(core.TargetMPI2Side),
			); err != nil {
				return err
			}
			return r.P2P(
				core.Sender(peer), core.Receiver(peer),
				core.SBuf(bigS), core.RBuf(bigD),
				core.WithTarget(core.TargetMPI2Side),
			)
		}); err != nil {
			return err
		}
		if smallD[0] != float64(peer)+0.25 {
			return fmt.Errorf("rank %d: small transfer got %v", rk.ID, smallD[0])
		}
		for i := range bigD {
			if bigD[i] != float64(peer*1000+i) {
				return fmt.Errorf("rank %d: big transfer wrong at %d: %v", rk.ID, i, bigD[i])
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestAutoSyncDefers: with automatic sync placement on, a region with no
// place_sync clause defers its completion like an explicit
// END_ADJ_PARAM_REGIONS, the environment reports the deferral, and
// FlushDeferred delivers the data.
func TestAutoSyncDefers(t *testing.T) {
	defer rt.Override(rt.Config{AutoSync: true})()
	const n = 2
	autosyncs := make([]int, n)
	if err := spmd.Run(n, model.GeminiLike(), func(rk *spmd.Rank) error {
		e, err := core.NewEnv(mpi.World(rk), nil)
		if err != nil {
			return err
		}
		defer e.Close()
		defer func() { autosyncs[rk.ID] = countKind(e.Decisions(), "autosync") }()
		peer := 1 - rk.ID
		src := []float64{float64(rk.ID + 7)}
		dst := make([]float64, 1)
		if err := e.Parameters(func(r *core.Region) error {
			return r.P2P(
				core.Sender(peer), core.Receiver(peer),
				core.SBuf(src), core.RBuf(dst),
				core.WithTarget(core.TargetMPI2Side),
			)
		}); err != nil {
			return err
		}
		if !e.HasDeferred() {
			return fmt.Errorf("rank %d: auto-sync did not defer the region's completion", rk.ID)
		}
		if err := e.FlushDeferred(); err != nil {
			return err
		}
		if want := float64(peer + 7); dst[0] != want {
			return fmt.Errorf("rank %d: got %v, want %v", rk.ID, dst[0], want)
		}
		// An explicit place_sync still wins over auto-sync.
		if err := e.Parameters(func(r *core.Region) error {
			return r.P2P(
				core.Sender(peer), core.Receiver(peer),
				core.SBuf(src), core.RBuf(dst),
				core.WithTarget(core.TargetMPI2Side),
			)
		}, core.PlaceSync(core.EndParamRegion)); err != nil {
			return err
		}
		if e.HasDeferred() {
			return fmt.Errorf("rank %d: explicit END_PARAM_REGION was deferred", rk.ID)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for rank, k := range autosyncs {
		if k != 1 {
			t.Errorf("rank %d recorded %d autosync decision(s), want 1 (the explicit place_sync region is not one)", rank, k)
		}
	}
}

// TestManagedRuntimeClause: the per-region managed_runtime clause overrides
// the process-wide setting in both directions, and is rejected on comm_p2p.
func TestManagedRuntimeClause(t *testing.T) {
	defer rt.Override(rt.Config{})() // process-wide OFF
	const n = 2
	w, err := spmd.NewWorld(n, model.GeminiLike())
	if err != nil {
		t.Fatal(err)
	}
	tele := telemetry.New(n, 0)
	w.SetTelemetry(tele)
	if err := w.Run(func(rk *spmd.Rank) error {
		e, err := core.NewEnv(mpi.World(rk), nil)
		if err != nil {
			return err
		}
		defer e.Close()
		peer := 1 - rk.ID
		src := []float64{float64(rk.ID)}
		dst := make([]float64, 1)
		// Region opts IN while the process is off.
		if err := e.Parameters(func(r *core.Region) error {
			return r.P2P(
				core.Sender(peer), core.Receiver(peer),
				core.SBuf(src), core.RBuf(dst),
				core.WithTarget(core.TargetMPI2Side),
			)
		}, core.ManagedRuntime(rt.Config{Coalesce: true})); err != nil {
			return err
		}
		if dst[0] != float64(peer) {
			return fmt.Errorf("rank %d: got %v", rk.ID, dst[0])
		}
		// managed_runtime is a comm_parameters-only clause.
		err = e.P2P(
			core.Sender(peer), core.Receiver(peer),
			core.SBuf(src), core.RBuf(dst),
			core.WithTarget(core.TargetMPI2Side),
			core.ManagedRuntime(rt.Config{}),
		)
		if err == nil {
			return fmt.Errorf("managed_runtime accepted on comm_p2p")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var batches int64
	for r := 0; r < n; r++ {
		batches += tele.Registry().CounterValue("runtime_coalesce_batches_total", telemetry.Rank(r))
	}
	if batches == 0 {
		t.Error("region-scoped managed_runtime clause produced no batches")
	}
}

// TestCoalesceChaos: a fabric dropping user messages loses whole batches,
// which retry as one idempotent unit — data lands intact, retries are
// observed, nothing gives up, and same-seed runs agree on virtual time.
func TestCoalesceChaos(t *testing.T) {
	for _, drop := range []float64{0.01, 0.05} {
		t.Run(fmt.Sprintf("drop=%v", drop), func(t *testing.T) {
			times := make([]model.Time, 2)
			for attempt := range times {
				defer rt.Override(rt.Config{Coalesce: true})()
				const n, nxfer, iters = 4, 6, 16
				w, err := spmd.NewWorld(n, model.Uniform(100))
				if err != nil {
					t.Fatal(err)
				}
				cfg := simnet.FaultConfig{Seed: 99, Drop: drop}
				cfg.TagSpan, cfg.UserSpan = mpi.P2PFaultScope()
				w.Fabric().SetFaults(cfg)
				tele := telemetry.New(n, 0)
				w.SetTelemetry(tele)
				if err := w.Run(func(rk *spmd.Rank) error {
					c := mpi.World(rk)
					c.SetWatchdog(2 * time.Second)
					e, err := core.NewEnv(c, nil)
					if err != nil {
						return err
					}
					defer e.Close()
					for iter := 0; iter < iters; iter++ {
						if err := ringExchange(t, rk, e, n, nxfer, iter); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				reg := tele.Registry()
				var batches, retries, giveups int64
				for r := 0; r < n; r++ {
					batches += reg.CounterValue("runtime_coalesce_batches_total", telemetry.Rank(r))
					retries += reg.CounterValue("core_p2p_retries_total", telemetry.Rank(r))
					giveups += reg.CounterValue("core_p2p_giveups_total", telemetry.Rank(r))
				}
				if batches == 0 {
					t.Error("no batches under chaos")
				}
				if drop >= 0.05 && retries == 0 {
					t.Error("5% drop produced no batch retries (seed is fixed, so this is deterministic)")
				}
				if giveups != 0 {
					t.Errorf("giveups = %d, want 0", giveups)
				}
				times[attempt] = w.MaxVirtualTime()
			}
			if times[0] != times[1] {
				t.Errorf("same-seed chaos runs diverged: %d != %d", times[0], times[1])
			}
		})
	}
}
