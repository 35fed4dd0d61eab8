package telemetry_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"commintent/internal/core"
	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/patterns"
	"commintent/internal/shmem"
	"commintent/internal/spmd"
	"commintent/internal/telemetry"
)

var updateSpanGolden = flag.Bool("update-spans", false, "rewrite testdata/halo_chrome.json and testdata/halo_spans.json from the current implementation")

// TestTracedHaloGolden pins what a traced run exports: a 4-rank halo of 2
// iterations on the simulated fabric, its Chrome trace and every rank's
// retained spans, byte for byte. Virtual time makes both deterministic, so
// any change in span IDs, parents, names, categories, times, regions or
// retention order shows here.
func TestTracedHaloGolden(t *testing.T) {
	const n = 4
	w, err := spmd.NewWorld(n, model.GeminiLike())
	if err != nil {
		t.Fatal(err)
	}
	tele := telemetry.New(n, 0)
	w.SetTelemetry(tele)
	if err := w.Run(func(rk *spmd.Rank) error {
		shm := shmem.New(rk)
		env, err := core.NewEnv(mpi.World(rk), shm)
		if err != nil {
			return err
		}
		defer env.Close()
		return patterns.Run("halo", rk, env, shm, core.TargetMPI2Side, 4, 2)
	}); err != nil {
		t.Fatal(err)
	}
	var chrome bytes.Buffer
	if err := tele.Tracer().WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	perRank := make([][]telemetry.Span, n)
	for r := range perRank {
		perRank[r] = tele.Tracer().RankSpans(r)
	}
	spans, err := json.MarshalIndent(perRank, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	for path, got := range map[string][]byte{
		"testdata/halo_chrome.json": chrome.Bytes(),
		"testdata/halo_spans.json":  append(spans, '\n'),
	} {
		if *updateSpanGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (run with -update-spans on the reference implementation): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the golden (%d bytes, want %d)", path, len(got), len(want))
		}
	}
}
