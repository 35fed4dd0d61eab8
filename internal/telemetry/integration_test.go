package telemetry_test

import (
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
	"commintent/internal/transport"
)

// runInstrumented executes a named pattern over n ranks with telemetry
// attached and returns the telemetry and the raw event trace.
func runInstrumented(t testing.TB, n int, pattern string, iters int) (*telemetry.Telemetry, []simnet.Event) {
	t.Helper()
	w, err := spmd.NewWorld(n, model.GeminiLike())
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
		return patterns.Run(pattern, rk, env, shm, core.TargetMPI2Side, 4, iters)
	})
	if err != nil {
		t.Fatal(err)
	}
	return tele, rec.Events()
}

func TestEndToEndMetricsAndSpans(t *testing.T) {
	const n = 4
	tele, events := runInstrumented(t, n, "halo", 2)
	reg := tele.Registry()

	// Every rank executed 2 regions with 2 directives each.
	for r := 0; r < n; r++ {
		if got := reg.CounterValue("core_directives_total", telemetry.Rank(r)); got != 4 {
			t.Errorf("rank %d directives = %d, want 4", r, got)
		}
		if got := reg.CounterValue("core_regions_total", telemetry.Rank(r)); got != 2 {
			t.Errorf("rank %d regions = %d, want 2", r, got)
		}
	}
	// Interior ranks send both ways each iteration.
	if got := reg.CounterValue("simnet_events_total", telemetry.L("kind", "send"), telemetry.Rank(1)); got != 4 {
		t.Errorf("rank 1 sends = %d, want 4", got)
	}
	// Edge ranks send one way each iteration.
	if got := reg.CounterValue("simnet_events_total", telemetry.L("kind", "send"), telemetry.Rank(0)); got != 2 {
		t.Errorf("rank 0 sends = %d, want 2", got)
	}

	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, series := range []string{
		"core_directives_total", "core_syncs_consolidated_total",
		"mpi_idle_virtual_ns_total", "mpi_wait_virtual_ns_bucket",
		"shmem_barrier_total", "simnet_bytes_total",
		"simnet_unexpected_queue_hwm",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("exposition missing %s", series)
		}
	}

	// Spans were recorded on every rank, nested sanely and monotone in
	// virtual time.
	tr := tele.Tracer()
	names := map[string]bool{}
	for r := 0; r < n; r++ {
		spans := tr.RankSpans(r)
		if len(spans) == 0 {
			t.Fatalf("rank %d recorded no spans", r)
		}
		for _, s := range spans {
			if s.End < s.Start {
				t.Fatalf("span %s on rank %d runs backward: %v -> %v", s.Name, r, s.Start, s.End)
			}
			names[s.Name] = true
		}
	}
	for _, want := range []string{"comm_parameters", "comm_p2p", "lower", "flush", "MPI_Isend", "MPI_Waitall"} {
		if !names[want] {
			t.Errorf("no %q span recorded (have %v)", want, names)
		}
	}

	// The critical-path report sums the same idle time the MPI layer
	// counted, and sees all ranks finish.
	rep := telemetry.CriticalPath(events, n)
	if rep.Makespan <= 0 || rep.ChainEvents == 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	for r := 0; r < n; r++ {
		if rep.PerRankFinish[r] <= 0 {
			t.Errorf("rank %d never finished", r)
		}
	}
	var repIdle, ctrIdle int64
	for r := 0; r < n; r++ {
		repIdle += int64(rep.PerRankIdle[r])
		ctrIdle += reg.CounterValue("mpi_idle_virtual_ns_total", telemetry.Rank(r)) +
			reg.CounterValue("shmem_idle_virtual_ns_total", telemetry.Rank(r))
	}
	if repIdle > ctrIdle {
		t.Errorf("report idle %d exceeds substrate-counted idle %d", repIdle, ctrIdle)
	}
}

// TestTracedShmStampsWall: on the wall clock mpi reads a stamp only when
// something reads it (mpi.Comm.stamp). With a tracer and the recorder
// attached, every send and receive completion carries a wall reading and
// the waits' blocked time reaches the idle counter.
func TestTracedShmStampsWall(t *testing.T) {
	const n = 4
	t.Setenv(transport.EnvVar, "shm")
	tele, events := runInstrumented(t, n, "halo", 2)
	seen := map[simnet.EventKind]int{}
	for _, ev := range events {
		if ev.Kind != simnet.EvSend && ev.Kind != simnet.EvRecvComplete {
			continue
		}
		seen[ev.Kind]++
		if ev.V <= 0 {
			t.Errorf("rank %d %v event stamped %d, want a wall reading", ev.Rank, ev.Kind, ev.V)
		}
	}
	if seen[simnet.EvSend] == 0 || seen[simnet.EvRecvComplete] == 0 {
		t.Fatalf("recorded %d sends and %d receive completions, want both", seen[simnet.EvSend], seen[simnet.EvRecvComplete])
	}
	var idle int64
	for r := 0; r < n; r++ {
		idle += tele.Registry().CounterValue("mpi_idle_virtual_ns_total", telemetry.Rank(r))
	}
	if idle <= 0 {
		t.Errorf("mpi_idle_virtual_ns_total = %d over %d ranks, want the waits' wall time", idle, n)
	}
}

func TestUninstrumentedWorldRunsWithNilTelemetry(t *testing.T) {
	w, err := spmd.NewWorld(2, model.Uniform(10))
	if err != nil {
		t.Fatal(err)
	}
	if w.Telemetry() != nil {
		t.Fatal("fresh world has telemetry")
	}
	err = w.Run(func(rk *spmd.Rank) error {
		shm := shmem.New(rk)
		env, err := core.NewEnv(mpi.World(rk), shm)
		if err != nil {
			return err
		}
		defer env.Close()
		return patterns.Run("ring", rk, env, shm, core.TargetMPI2Side, 4, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// ringDuration wall-clocks one ring run.
func ringDuration(tb testing.TB, n, iters int, instrumented bool) time.Duration {
	w, err := spmd.NewWorld(n, model.Uniform(10))
	if err != nil {
		tb.Fatal(err)
	}
	if instrumented {
		w.SetTelemetry(telemetry.New(n, 0))
	}
	start := time.Now()
	err = w.Run(func(rk *spmd.Rank) error {
		shm := shmem.New(rk)
		env, err := core.NewEnv(mpi.World(rk), shm)
		if err != nil {
			return err
		}
		defer env.Close()
		return patterns.Run("ring", rk, env, shm, core.TargetMPI2Side, 4, iters)
	})
	d := time.Since(start)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// BenchmarkTelemetryOverhead compares a fully instrumented ring run against
// the same run with telemetry disabled (nil handles everywhere).
func BenchmarkTelemetryOverhead(b *testing.B) {
	for _, mode := range []struct {
		name         string
		instrumented bool
	}{{"disabled", false}, {"enabled", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ringDuration(b, 4, 8, mode.instrumented)
			}
		})
	}
}

// Package-level sinks the compiler cannot prove nil, so the disabled-path
// measurement below exercises the real nil checks.
var (
	nilReg     *telemetry.Registry
	nilCounter = nilReg.Counter("x")
	nilHist    = nilReg.Histogram("y")
	nilTracer  *telemetry.Tracer
)

// TestDisabledTelemetryOverheadUnderFivePercent bounds the cost the nil
// instrumentation adds to one directive execution. A directive's disabled
// instrumentation is a handful of nil-receiver calls; the test measures a
// deliberately oversized bundle of them and requires it to stay under 5% of
// the measured per-directive execution time — a generous ceiling, since the
// real ratio is orders of magnitude smaller.
func TestDisabledTelemetryOverheadUnderFivePercent(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const n, iters = 4, 64
	// Per-directive wall time with telemetry disabled (each rank runs
	// iters directives).
	perDirective := ringDuration(t, n, iters, false) / time.Duration(iters)

	// An oversized disabled-path bundle: ~4x the nil calls a directive
	// actually makes.
	bundle := func() {
		for k := 0; k < 10; k++ {
			nilCounter.Inc()
			nilCounter.AddTime(3)
			nilHist.Observe(5)
			sp := nilTracer.Begin(0, "op", "c", 0)
			sp.End(1)
		}
	}
	const reps = 200000
	start := time.Now()
	for i := 0; i < reps; i++ {
		bundle()
	}
	perBundle := time.Since(start) / reps

	if perBundle*20 > perDirective {
		t.Errorf("disabled instrumentation bundle %v exceeds 5%% of directive time %v", perBundle, perDirective)
	}
}
