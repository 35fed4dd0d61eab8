package wllsms_test

import (
	"testing"

	"commintent/internal/core"
	"commintent/internal/model"
	"commintent/internal/simnet"
	"commintent/internal/spmd"
	"commintent/internal/trace"
	"commintent/internal/wllsms"
)

// TestSetEvecTraceIsStar: within one LSMS instance the spin transfer is
// privileged-to-workers — the trace's communication matrix restricted to
// the group must classify as a star centred on the privileged rank.
func TestSetEvecTraceIsStar(t *testing.T) {
	p := wllsms.DefaultParams()
	p.Groups = 1
	p.GroupSize = 6
	p.NumAtoms = 6
	p.TRows = 20
	p.CoreRows = 4

	w, err := spmd.NewWorld(p.NProcs(), model.Uniform(10))
	if err != nil {
		t.Fatal(err)
	}
	rec := w.Fabric().EnableRecorder(0)
	// start[r] is how many events rank r had emitted when setEvec began:
	// each rank's events are recorded in its own program order, so the
	// phase is the tail from there.
	start := make([]int64, p.NProcs())
	err = w.Run(func(rk *spmd.Rank) error {
		app, err := wllsms.Setup(rk, p)
		if err != nil {
			return err
		}
		defer app.Close()
		if _, err := app.DistributeAtoms(wllsms.VariantOriginal, core.TargetDefault); err != nil {
			return err
		}
		var spins [][]float64
		if app.Role == wllsms.RoleWL {
			spins = [][]float64{make([]float64, 3*p.NumAtoms)}
		}
		if err := app.StageSpins(spins); err != nil {
			return err
		}
		start[rk.ID] = rec.Total(rk.ID)
		_, err = app.SetEvec(wllsms.VariantOriginal, core.TargetDefault)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var phase []simnet.Event
	for r := range start {
		phase = append(phase, rec.RankEvents(r)[start[r]:]...)
	}
	m := trace.CommMatrix(phase, p.NProcs())
	// Restrict to the LSMS group (world ranks 1..6 -> indices 0..5).
	sub := make([][]int64, p.GroupSize)
	for i := range sub {
		sub[i] = make([]int64, p.GroupSize)
		copy(sub[i], m[i+1][1:1+p.GroupSize])
	}
	if got := trace.DetectPattern(sub); got != trace.PatternStar {
		t.Errorf("within-group pattern = %v, want star\n%s", got, trace.FormatMatrix(sub))
	}
	// Every worker received exactly one 24-byte spin vector.
	for wkr := 1; wkr < p.GroupSize; wkr++ {
		if sub[0][wkr] != 24 {
			t.Errorf("privileged->worker %d bytes = %d, want 24", wkr, sub[0][wkr])
		}
	}
}

// TestDistributionByteVolume: the directive and original paths move the
// same application payload; the original adds only its pack headers (the
// t/tc length prefixes), the directive only its sync flags.
func TestDistributionByteVolume(t *testing.T) {
	p := wllsms.DefaultParams()
	p.Groups = 1
	p.GroupSize = 4
	p.NumAtoms = 4
	p.TRows = 25
	p.CoreRows = 5

	volume := func(v wllsms.Variant, tgt core.Target) int64 {
		w, err := spmd.NewWorld(p.NProcs(), model.Uniform(10))
		if err != nil {
			t.Fatal(err)
		}
		rec := w.Fabric().EnableRecorder(0)
		err = w.Run(func(rk *spmd.Rank) error {
			app, err := wllsms.Setup(rk, p)
			if err != nil {
				return err
			}
			defer app.Close()
			_, err = app.DistributeAtoms(v, tgt)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return trace.StatsOf(rec.Events()).DataBytes
	}

	orig := volume(wllsms.VariantOriginal, core.TargetDefault)
	dir := volume(wllsms.VariantDirective, core.TargetMPI2Side)
	shm := volume(wllsms.VariantDirective, core.TargetSHMEM)
	t.Logf("bytes: original=%d directive-mpi=%d directive-shmem=%d", orig, dir, shm)
	// Identical staging plus per-atom payloads; tolerate ~5% framing
	// difference (pack length headers vs notification flags).
	for name, v := range map[string]int64{"directive-mpi": dir, "directive-shmem": shm} {
		lo, hi := orig*95/100, orig*105/100
		if v < lo || v > hi {
			t.Errorf("%s moved %d bytes, outside [%d,%d] of original %d", name, v, lo, hi, orig)
		}
	}
}
