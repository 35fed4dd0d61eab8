package verify_test

import (
	"strings"
	"testing"

	"commintent/internal/core"
	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/shmem"
	"commintent/internal/simnet"
	"commintent/internal/spmd"
	"commintent/internal/verify"
	"commintent/internal/wllsms"
)

func TestCleanRunVerifies(t *testing.T) {
	const n = 6
	w, err := spmd.NewWorld(n, model.GeminiLike())
	if err != nil {
		t.Fatal(err)
	}
	rec := w.Fabric().EnableRecorder(0)
	err = w.Run(func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		shm := shmem.New(rk)
		env, err := core.NewEnv(c, shm)
		if err != nil {
			return err
		}
		defer env.Close()
		a := shmem.MustAlloc[float64](shm, 8)
		b := shmem.MustAlloc[float64](shm, 8)
		for i := 0; i < 4; i++ {
			if err := env.P2P(
				core.Sender((rk.ID-1+n)%n), core.Receiver((rk.ID+1)%n),
				core.SBuf(a), core.RBuf(b),
			); err != nil {
				return err
			}
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := verify.Check(rec.Events(), n, false)
	if !rep.OK() {
		t.Errorf("clean run violated invariants:\n%s", rep)
	}
	if rep.Sends != 4*n || rep.Receives != 4*n {
		t.Errorf("counts: %d sends %d receives", rep.Sends, rep.Receives)
	}
}

func TestFullAppTraceVerifies(t *testing.T) {
	p := wllsms.DefaultParams()
	p.Groups = 2
	p.GroupSize = 4
	p.NumAtoms = 4
	p.TRows = 30
	p.CoreRows = 4
	p.Steps = 2
	w, err := spmd.NewWorld(p.NProcs(), model.GeminiLike())
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
		if _, err := app.DistributeAtoms(wllsms.VariantDirective, core.TargetMPI2Side); err != nil {
			return err
		}
		_, err = app.Run(wllsms.VariantDirective, core.TargetMPI2Side)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := verify.Check(rec.Events(), p.NProcs(), false)
	if !rep.OK() {
		t.Errorf("full app trace violated invariants:\n%s", rep)
	}
	if rep.Sends == 0 || rep.Receives == 0 {
		t.Errorf("degenerate trace: %+v", rep)
	}
}

func TestDetectsCausalityViolation(t *testing.T) {
	evs := []simnet.Event{
		{Rank: 0, Kind: simnet.EvSend, Peer: 1, Bytes: 8, V: 100},
		{Rank: 1, Kind: simnet.EvRecvComplete, Peer: 0, Bytes: 8, V: 50},
	}
	rep := verify.Check(evs, 2, false)
	if rep.OK() {
		t.Fatal("causality violation missed")
	}
	if !strings.Contains(rep.String(), "causality") {
		t.Errorf("report: %s", rep)
	}
}

func TestDetectsUnmatchedSendAfterShutdown(t *testing.T) {
	evs := []simnet.Event{
		{Rank: 0, Kind: simnet.EvSend, Peer: 1, Bytes: 8, V: 10},
	}
	if rep := verify.Check(evs, 2, false); rep.OK() {
		t.Error("unreceived send missed")
	}
	// Mid-run, in-flight traffic is fine.
	if rep := verify.Check(evs, 2, true); !rep.OK() {
		t.Errorf("pending traffic flagged: %s", rep)
	}
}

func TestDetectsOverReceive(t *testing.T) {
	evs := []simnet.Event{
		{Rank: 0, Kind: simnet.EvSend, Peer: 1, Bytes: 8, V: 10},
		{Rank: 1, Kind: simnet.EvRecvComplete, Peer: 0, Bytes: 8, V: 20},
		{Rank: 1, Kind: simnet.EvRecvComplete, Peer: 0, Bytes: 8, V: 30},
	}
	rep := verify.Check(evs, 2, false)
	if rep.OK() || !strings.Contains(rep.String(), "completeness") {
		t.Errorf("over-receive missed: %s", rep)
	}
}

func TestDetectsByteInflation(t *testing.T) {
	evs := []simnet.Event{
		{Rank: 0, Kind: simnet.EvSend, Peer: 1, Bytes: 8, V: 10},
		{Rank: 1, Kind: simnet.EvRecvComplete, Peer: 0, Bytes: 16, V: 20},
	}
	rep := verify.Check(evs, 2, false)
	if rep.OK() || !strings.Contains(rep.String(), "conservation") {
		t.Errorf("byte inflation missed: %s", rep)
	}
}

func TestDetectsClockRegression(t *testing.T) {
	evs := []simnet.Event{
		{Rank: 0, Kind: simnet.EvBarrier, Peer: -1, V: 100},
		{Rank: 0, Kind: simnet.EvBarrier, Peer: -1, V: 40},
	}
	rep := verify.Check(evs, 1, true)
	if rep.OK() || !strings.Contains(rep.String(), "clock-monotonicity") {
		t.Errorf("clock regression missed: %s", rep)
	}
}

func TestDetectsRankRange(t *testing.T) {
	evs := []simnet.Event{
		{Rank: 5, Kind: simnet.EvSend, Peer: 0, Bytes: 1, V: 1},
	}
	rep := verify.Check(evs, 2, true)
	if rep.OK() || !strings.Contains(rep.String(), "rank-range") {
		t.Errorf("rank range missed: %s", rep)
	}
}

func TestTruncatedReceiveAllowed(t *testing.T) {
	evs := []simnet.Event{
		{Rank: 0, Kind: simnet.EvSend, Peer: 1, Bytes: 16, V: 10},
		{Rank: 1, Kind: simnet.EvRecvComplete, Peer: 0, Bytes: 8, V: 20},
	}
	if rep := verify.Check(evs, 2, false); !rep.OK() {
		t.Errorf("legal truncation flagged: %s", rep)
	}
}

func TestReportStringHealthy(t *testing.T) {
	rep := verify.Check(nil, 1, false)
	if !strings.Contains(rep.String(), "all invariants hold") {
		t.Errorf("report: %s", rep)
	}
}

// TestOutOfTagOrderReceivesVerify: a legal program whose receiver takes a
// pair's messages in a different order than they were sent, by tag, verifies
// clean. Rank 0 sends one double under tag 1 and then two under tag 2; rank 1
// receives tag 2 first. Matching per (src, dst) alone would pair the 16-byte
// receive with the 8-byte send and report a conservation violation.
func TestOutOfTagOrderReceivesVerify(t *testing.T) {
	evs := []simnet.Event{
		{Rank: 0, Kind: simnet.EvSend, Peer: 1, Tag: 1, Bytes: 8, V: 10},
		{Rank: 0, Kind: simnet.EvSend, Peer: 1, Tag: 2, Bytes: 16, V: 20},
		{Rank: 1, Kind: simnet.EvRecvComplete, Peer: 0, Tag: 2, Bytes: 16, V: 30},
		{Rank: 1, Kind: simnet.EvRecvComplete, Peer: 0, Tag: 1, Bytes: 8, V: 40},
	}
	if rep := verify.Check(evs, 2, false); !rep.OK() {
		t.Errorf("out-of-tag-order receives flagged:\n%s", rep)
	}

	// The same program run for real, checked on its recorded events.
	w, err := spmd.NewWorld(2, model.GeminiLike())
	if err != nil {
		t.Fatal(err)
	}
	rec := w.Fabric().EnableRecorder(0)
	if err := w.Run(func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		if rk.ID == 0 {
			if err := c.Send([]float64{1}, 1, mpi.Float64, 1, 1); err != nil {
				return err
			}
			return c.Send([]float64{2, 3}, 2, mpi.Float64, 1, 2)
		}
		two, one := make([]float64, 2), make([]float64, 1)
		if _, err := c.Recv(two, 2, mpi.Float64, 0, 2); err != nil {
			return err
		}
		_, err := c.Recv(one, 1, mpi.Float64, 0, 1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if rep := verify.Check(rec.Events(), 2, false); !rep.OK() || rep.Receives != 2 {
		t.Errorf("out-of-tag-order run:\n%s", rep)
	}
}
