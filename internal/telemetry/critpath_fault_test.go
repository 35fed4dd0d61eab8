package telemetry_test

import (
	"encoding/binary"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"commintent/internal/core"
	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/patterns"
	"commintent/internal/shmem"
	"commintent/internal/simnet"
	"commintent/internal/spmd"
	"commintent/internal/telemetry"
)

// faultyRun executes a ring exchange at the given drop rate and returns the
// raw event trace. The retry protocol absorbs the losses, so the run
// completes — but the trace now contains ghost deliveries, cancelled
// receives and re-sent rounds, exactly what the critical-path analyser must
// not trip over.
func faultyRun(t *testing.T, n int, seed uint64, drop float64, iters int) []simnet.Event {
	t.Helper()
	w, err := spmd.NewWorld(n, model.GeminiLike())
	if err != nil {
		t.Fatal(err)
	}
	if drop > 0 {
		cfg := simnet.FaultConfig{Seed: seed, Drop: drop}
		cfg.TagSpan, cfg.UserSpan = mpi.P2PFaultScope()
		w.Fabric().SetFaults(cfg)
	}
	rec := w.Fabric().EnableRecorder(0)
	err = w.Run(func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		c.SetWatchdog(10 * time.Second)
		shm := shmem.New(rk)
		env, err := core.NewEnv(c, shm)
		if err != nil {
			return err
		}
		defer env.Close()
		return patterns.Run("ring", rk, env, shm, core.TargetMPI2Side, 4, iters)
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Events()
}

// finishHash folds a report's makespan and per-rank finish times into one
// comparable word.
func finishHash(rep *telemetry.CritReport) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(rep.Makespan))
	h.Write(b[:])
	for _, v := range rep.PerRankFinish {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// checkStructure asserts the invariants a path through any trace — healthy
// or faulty — must satisfy: a connected chain whose edges are used once,
// whose events are counted once, and which ends at the makespan.
func checkStructure(t *testing.T, rep *telemetry.CritReport) {
	t.Helper()
	if len(rep.Chain) == 0 {
		t.Fatal("empty chain")
	}
	if rep.ChainEdges != len(rep.Chain)-1 {
		t.Errorf("ChainEdges = %d, want %d (segments-1)", rep.ChainEdges, len(rep.Chain)-1)
	}
	sum := 0
	seen := map[[2]int64]bool{}
	for i, s := range rep.Chain {
		if s.Events <= 0 {
			t.Errorf("segment %d traverses %d events", i, s.Events)
		}
		sum += s.Events
		if s.Start > s.End {
			t.Errorf("segment %d runs backward: %v > %v", i, s.Start, s.End)
		}
		if i == 0 {
			if s.FromRank != -1 {
				t.Errorf("first segment arrives from rank %d, want -1", s.FromRank)
			}
			continue
		}
		// Each message edge is a distinct (sender, send-time) pair: a
		// retried round or a ghost delivery being double-counted would
		// surface as a repeated edge.
		edge := [2]int64{int64(s.FromRank), int64(s.FromV)}
		if seen[edge] {
			t.Errorf("message edge %v used twice", edge)
		}
		seen[edge] = true
		if s.FromRank != rep.Chain[i-1].Rank {
			t.Errorf("segment %d arrives from rank %d but previous segment ran on rank %d",
				i, s.FromRank, rep.Chain[i-1].Rank)
		}
		if s.FromV > s.End {
			t.Errorf("segment %d: dependency arrives at %v after the segment ends at %v", i, s.FromV, s.End)
		}
	}
	if sum != rep.ChainEvents {
		t.Errorf("ChainEvents = %d, segments sum to %d", rep.ChainEvents, sum)
	}
	if rep.ChainEvents > rep.Events {
		t.Errorf("chain traverses %d events out of %d total", rep.ChainEvents, rep.Events)
	}
	if last := rep.Chain[len(rep.Chain)-1]; last.End != rep.Makespan {
		t.Errorf("chain ends at %v, makespan is %v", last.End, rep.Makespan)
	}
	var maxFinish model.Time
	for _, v := range rep.PerRankFinish {
		if v > maxFinish {
			maxFinish = v
		}
	}
	if maxFinish != rep.Makespan {
		t.Errorf("makespan %v != max per-rank finish %v", rep.Makespan, maxFinish)
	}
}

// TestCriticalPathOnFaultyRun: the analyser must stay sound on a trace full
// of retried comm_p2p rounds and ghost deliveries, and same-seed faulty
// runs must analyse bit-identically (the seeded-fault golden).
func TestCriticalPathOnFaultyRun(t *testing.T) {
	const n, iters = 8, 2
	const seed, drop = 3, 0.05

	healthy := telemetry.CriticalPath(faultyRun(t, n, 0, 0, iters), n)
	checkStructure(t, healthy)

	faulty := telemetry.CriticalPath(faultyRun(t, n, seed, drop, iters), n)
	checkStructure(t, faulty)

	// Recovery costs virtual time: the faulty makespan can only grow.
	if faulty.Makespan < healthy.Makespan {
		t.Errorf("faulty makespan %v below healthy %v", faulty.Makespan, healthy.Makespan)
	}

	// Same seed, same analysis — bit-identical makespan, per-rank finish
	// times, and chain shape.
	again := telemetry.CriticalPath(faultyRun(t, n, seed, drop, iters), n)
	if finishHash(faulty) != finishHash(again) {
		t.Fatalf("same-seed runs analyse differently: %x vs %x", finishHash(faulty), finishHash(again))
	}
	if faulty.ChainEdges != again.ChainEdges || faulty.ChainEvents != again.ChainEvents {
		t.Fatalf("same-seed chain diverged: %d/%d vs %d/%d edges/events",
			faulty.ChainEdges, faulty.ChainEvents, again.ChainEdges, again.ChainEvents)
	}
}

// TestCritPathRegionBreakdown: a labelled comm_parameters region attributes
// its traffic, and the report's per-region table reflects it.
func TestCritPathRegionBreakdown(t *testing.T) {
	const n = 2
	w, err := spmd.NewWorld(n, model.Uniform(100))
	if err != nil {
		t.Fatal(err)
	}
	tele := telemetry.New(n, 0)
	w.SetTelemetry(tele)
	rec := w.Fabric().EnableRecorder(0)
	err = w.Run(func(rk *spmd.Rank) error {
		shm := shmem.New(rk)
		env, err := core.NewEnv(mpi.World(rk), shm)
		if err != nil {
			return err
		}
		defer env.Close()
		src, dst := []float64{float64(rk.ID)}, []float64{-1}
		return env.Parameters(func(r *core.Region) error {
			return r.P2P(
				core.Sender(1-rk.ID), core.Receiver(1-rk.ID),
				core.SBuf(src), core.RBuf(dst),
				core.WithTarget(core.TargetMPI2Side),
			)
		}, core.Label("exchange"))
	})
	if err != nil {
		t.Fatal(err)
	}
	rid := w.Fabric().InternRegion("exchange")
	rep := telemetry.CriticalPath(rec.Events(), n)
	if len(rep.Regions) == 0 {
		t.Fatal("attributed trace produced no per-region breakdown")
	}
	var got *telemetry.RegionStat
	for i := range rep.Regions {
		if rep.Regions[i].Region == rid {
			got = &rep.Regions[i]
		}
	}
	if got == nil {
		t.Fatalf("region %d (exchange) missing from %+v", rid, rep.Regions)
	}
	if got.Events == 0 || got.Bytes == 0 {
		t.Errorf("exchange region stats empty: %+v", got)
	}
	out := rep.StringWithLabels(w.Fabric().RegionLabel)
	if !strings.Contains(out, "exchange") {
		t.Errorf("rendered report does not name the region:\n%s", out)
	}

	// The attribution also reaches the metric registry: the per-region
	// wait histogram and the region-duration histogram both carry the
	// label.
	var sb strings.Builder
	if err := tele.Registry().WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	prom := sb.String()
	for _, series := range []string{
		`mpi_wait_virtual_ns_by_region_count{rank="0",region="exchange"}`,
		`core_region_virtual_ns_count{rank="0",region="exchange"}`,
	} {
		if !strings.Contains(prom, series) {
			t.Errorf("exposition missing %s", series)
		}
	}
	// Spans under the region carry its id.
	found := false
	for r := 0; r < n && !found; r++ {
		for _, s := range tele.Tracer().RankSpans(r) {
			if s.Region == rid {
				found = true
				break
			}
		}
	}
	if !found {
		t.Error("no span attributed to the labelled region")
	}
}
