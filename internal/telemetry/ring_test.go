package telemetry_test

import (
	"reflect"
	"runtime"
	"testing"

	"commintent/internal/core"
	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/patterns"
	"commintent/internal/shmem"
	"commintent/internal/simnet"
	"commintent/internal/spmd"
	"commintent/internal/telemetry"
	"commintent/internal/trace"
	"commintent/internal/verify"
)

// analyses is everything the post-run readers of fabric events derive from
// one run.
type analyses struct {
	Events   []simnet.Event
	Total    []int64
	VTime    []model.Time
	Stats    trace.Stats
	Matrix   [][]int64
	Timeline string
	Match    trace.Matching
	Check    *verify.Report
	Crit     *telemetry.CritReport
}

// TestAnalysesDoNotSeeSpans: spans share the recorder's ring with the fabric
// events, and every reader of fabric events sees exactly what it sees on an
// untraced run, whichever of the tracer and EnableRecorder installed the
// recorder.
func TestAnalysesDoNotSeeSpans(t *testing.T) {
	const n = 4
	// run installs recorders before and after binding the telemetry.
	run := func(traced bool, before, after func(*simnet.Fabric)) analyses {
		w, err := spmd.NewWorld(n, model.GeminiLike())
		if err != nil {
			t.Fatal(err)
		}
		var tele *telemetry.Telemetry
		before(w.Fabric())
		if traced {
			tele = telemetry.New(n, 0)
			w.SetTelemetry(tele)
		}
		after(w.Fabric())
		if err := w.Run(func(rk *spmd.Rank) error {
			shm := shmem.New(rk)
			env, err := core.NewEnv(mpi.World(rk), shm)
			if err != nil {
				return err
			}
			defer env.Close()
			if err := patterns.Run("halo", rk, env, shm, core.TargetMPI2Side, 4, 2); err != nil {
				return err
			}
			return patterns.Run("ring", rk, env, shm, core.TargetMPI2Side, 8, 2)
		}); err != nil {
			t.Fatal(err)
		}
		rec := w.Fabric().Recorder()
		if traced && len(tele.Tracer().Spans()) == 0 {
			t.Fatal("traced run recorded no spans")
		}
		events := rec.Events()
		a := analyses{
			Events:   events,
			Stats:    trace.StatsOf(events),
			Matrix:   trace.CommMatrix(events, n),
			Timeline: trace.Timeline(events, 0),
			Match:    trace.Match(events),
			Check:    verify.Check(events, n, false),
			Crit:     telemetry.CriticalPath(events, n),
		}
		for r := 0; r < n; r++ {
			a.Total = append(a.Total, rec.Total(r))
			a.VTime = append(a.VTime, w.Fabric().Endpoint(r).Clock().Now())
		}
		return a
	}
	none := func(*simnet.Fabric) {}
	unbounded := func(f *simnet.Fabric) { f.EnableRecorder(0) }
	want := run(false, none, unbounded)
	if len(want.Events) == 0 {
		t.Fatal("untraced run recorded no events")
	}
	for _, c := range []struct {
		name          string
		before, after func(*simnet.Fabric)
	}{
		// The tracer's own recorder: DefaultSpanCap holds the whole run.
		{"traced", none, none},
		// As commstat and commtrace do.
		{"traced then recorder", none, unbounded},
		{"recorder then traced", unbounded, none},
	} {
		if got := run(true, c.before, c.after); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the fabric-event analyses differ from the untraced run's", c.name)
		}
	}
}

// TestSpanRingMemoryFollowsUse: a ring grows as it fills, so a large span
// capacity costs nothing until spans are recorded. An eagerly allocated ring
// of 1<<16 records at 256 ranks would be over a GiB.
func TestSpanRingMemoryFollowsUse(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w, err := spmd.NewWorld(256, model.GeminiLike())
	if err != nil {
		t.Fatal(err)
	}
	w.SetTelemetry(telemetry.New(256, 1<<16))
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown >= 16<<20 {
		t.Errorf("building a traced 256-rank world grew the heap by %d MiB, want < 16", grown>>20)
	}
	if rec := w.Fabric().Recorder(); rec == nil || rec.Cap() != 1<<16 {
		t.Errorf("the tracer's recorder keeps %d records per rank, want %d", rec.Cap(), 1<<16)
	}
	runtime.KeepAlive(w)
}
