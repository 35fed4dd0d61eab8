package commintent

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"commintent/internal/core"
	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/simnet"
	"commintent/internal/spmd"
	"commintent/internal/telemetry"
)

// TestPostmortemOnRetryGiveup is the forensics contract end to end: a chaos
// run whose retry budget runs out must leave a flight-recorder dump that
// names the failing op, its directive region, and the unmatched frontier —
// the typed error says *that* it failed, the dump says *what* was dying.
func TestPostmortemOnRetryGiveup(t *testing.T) {
	const n = 2
	w := runDoomedExchange(t, nil)
	pms := w.Fabric().Postmortems()
	if len(pms) == 0 {
		t.Fatal("retry give-up filed no post-mortem")
	}
	pm := pms[0]

	// The failing op is named, attributed and typed.
	if !strings.HasPrefix(pm.Fail.Op, "comm_p2p") {
		t.Errorf("failing op = %q, want a comm_p2p op", pm.Fail.Op)
	}
	if pm.Fail.Region == 0 {
		t.Error("failing op carries no region attribution")
	}
	if got := pm.Labels[pm.Fail.Region]; got != "doomed-exchange" {
		t.Errorf("region label = %q, want doomed-exchange", got)
	}
	if !strings.Contains(pm.Reason, "retry budget exhausted") &&
		!strings.Contains(pm.Reason, "peer declared dead") {
		t.Errorf("reason = %q, names no give-up cause", pm.Reason)
	}

	// Both sides of the dead transfer are dumped, with their recorded
	// event tails; the injector's verdicts are visible in them.
	if len(pm.Ranks) != n {
		t.Fatalf("dumped %d ranks, want %d", len(pm.Ranks), n)
	}
	sawFault := false
	for _, rd := range pm.Ranks {
		if rd.Recorded == 0 || len(rd.Events) == 0 {
			t.Errorf("rank %d dump is empty", rd.Rank)
		}
		for _, e := range rd.Events {
			if e.Kind == simnet.EvFault {
				sawFault = true
			}
		}
	}
	if !sawFault {
		t.Error("no injector verdict (EvFault) in any dumped event tail")
	}

	// The rendering names the directive, and the dump survives JSON.
	s := pm.String()
	for _, want := range []string{"doomed-exchange", "comm_p2p", "fault"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q", want)
		}
	}
	b, err := json.Marshal(pms)
	if err != nil {
		t.Fatal(err)
	}
	var back []*simnet.Postmortem
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back[0].Fail.Region != pm.Fail.Region {
		t.Error("JSON round-trip lost the region attribution")
	}
}

// runDoomedExchange runs a two-rank exchange under total message loss, with
// the flight recorder on and tele (which may be nil) bound, and returns the
// world once every rank has given up.
func runDoomedExchange(t *testing.T, tele *telemetry.Telemetry) *spmd.World {
	t.Helper()
	const n = 2
	w, err := spmd.NewWorld(n, model.Uniform(100))
	if err != nil {
		t.Fatal(err)
	}
	cfg := simnet.FaultConfig{Seed: 9, Drop: 1}
	cfg.TagSpan, cfg.UserSpan = mpi.P2PFaultScope()
	w.Fabric().SetFaults(cfg)
	w.Fabric().EnableRecorder(simnet.DefaultRecorderCap)
	if tele != nil {
		w.SetTelemetry(tele)
	}

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
		errs[rk.ID] = e.Parameters(func(r *core.Region) error {
			return r.P2P(
				core.Sender(1-rk.ID), core.Receiver(1-rk.ID),
				core.SBuf(src), core.RBuf(dst),
				core.WithTarget(core.TargetMPI2Side),
			)
		}, core.Label("doomed-exchange"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for r, err := range errs {
		if !errors.Is(err, mpi.ErrMessageLost) {
			t.Errorf("rank %d: err = %v, want wrapped ErrMessageLost", r, err)
		}
	}
	return w
}

// TestPostmortemTracedTailHoldsSpans: with a tracer writing into the flight
// recorder, the failing rank's dump also carries its last finished spans, so
// the rendering shows the MPI calls the directive lowered to before it died.
func TestPostmortemTracedTailHoldsSpans(t *testing.T) {
	w := runDoomedExchange(t, telemetry.New(2, 0))
	pms := w.Fabric().Postmortems()
	if len(pms) == 0 {
		t.Fatal("retry give-up filed no post-mortem")
	}
	pm := pms[0]
	var fail *simnet.RankDump
	for i := range pm.Ranks {
		if pm.Ranks[i].Rank == pm.Fail.Rank {
			fail = &pm.Ranks[i]
		}
	}
	if fail == nil {
		t.Fatalf("no dump for the failing rank %d", pm.Fail.Rank)
	}
	names := map[string]bool{}
	for _, s := range fail.Spans {
		names[s.Name] = true
	}
	s := pm.String()
	for _, want := range []string{"MPI_Isend", "MPI_Irecv"} {
		if !names[want] {
			t.Errorf("failing rank's dump holds no %s span (have %v)", want, names)
		}
		if !strings.Contains(s, want) {
			t.Errorf("rendering does not name the %s span", want)
		}
	}
	// The fabric events are the untraced dump's: spans do not displace them.
	if len(fail.Events) == 0 || fail.Recorded != int64(len(fail.Events)) {
		t.Errorf("failing rank's dump holds %d of %d recorded events", len(fail.Events), fail.Recorded)
	}
}

// TestNoPostmortemOnRecoveredRun: per-attempt faults the retry protocol
// absorbs are its normal diet — a run that completes must file nothing.
func TestNoPostmortemOnRecoveredRun(t *testing.T) {
	const n = 2
	w, err := spmd.NewWorld(n, model.Uniform(100))
	if err != nil {
		t.Fatal(err)
	}
	cfg := simnet.FaultConfig{Seed: 5, Drop: 0.3}
	cfg.TagSpan, cfg.UserSpan = mpi.P2PFaultScope()
	w.Fabric().SetFaults(cfg)
	w.Fabric().EnableRecorder(simnet.DefaultRecorderCap)

	if err := w.Run(func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		c.SetWatchdog(5 * time.Second)
		e, err := core.NewEnv(c, nil)
		if err != nil {
			return err
		}
		defer e.Close()
		src, dst := []float64{1}, []float64{-1}
		return e.P2P(
			core.Sender(1-rk.ID), core.Receiver(1-rk.ID),
			core.SBuf(src), core.RBuf(dst),
			core.WithTarget(core.TargetMPI2Side),
		)
	}); err != nil {
		t.Fatal(err)
	}
	if pms := w.Fabric().Postmortems(); len(pms) != 0 {
		t.Fatalf("recovered run filed %d post-mortem(s): %v", len(pms), pms[0].Reason)
	}
}
