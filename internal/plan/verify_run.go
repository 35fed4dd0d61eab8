package plan

// Counterexample replay: every finding the verifier emits carries a seeded
// simnet.Schedule; RunCounterexample executes the plan under it and checks
// that the defect actually manifests the way the schedule's Expect clause
// claims. This is the chaos-gate guarantee that no finding is theoretical.

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"commintent/internal/core"
	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/shmem"
	"commintent/internal/simnet"
	"commintent/internal/spmd"
	"commintent/internal/trace"
	"commintent/internal/transport"
	"commintent/internal/verify"
)

// RunCounterexample replays the schedule for pl on simnet and validates
// its Expect clause; aliases mirrors the slot aliasing the finding was
// verified under (the runner binds aliased slots to one shared buffer per
// rank). It returns nil when the defect reproduces, and an error
// describing the divergence otherwise.
func RunCounterexample(pl *Plan, cex *simnet.Schedule, aliases [][]Slot) error {
	if cex == nil {
		return errors.New("plan: nil counterexample schedule")
	}
	n := cex.Ranks
	if n <= 0 {
		return fmt.Errorf("plan: schedule %s has no ranks", cex.Name)
	}

	w, err := spmd.NewWorld(n, model.Uniform(100))
	if err != nil {
		return err
	}
	if cex.Faulty() {
		cfg := cex.FaultConfig()
		cfg.TagSpan, cfg.UserSpan = mpi.P2PFaultScope()
		w.Fabric().SetFaults(cfg)
	}
	rec := w.Fabric().EnableRecorder(0)

	// Bindings: one []float64 per alias class per rank, sized to the
	// largest explicit count (so an asserted count always fits the send
	// side and truncation is the receiver's doing, as at a real call site).
	rep := aliasRep(pl.slots, aliases)
	elems := 4
	for _, st := range pl.pattern.Steps {
		if st.Count > elems {
			elems = st.Count
		}
	}

	decisions := make([][]core.Decision, n)
	runErr := w.Run(func(rk *spmd.Rank) error {
		comm := mpi.World(rk)
		comm.SetDefaultTimeout(cex.Timeout())
		if cex.WatchdogMS > 0 {
			comm.SetWatchdog(time.Duration(cex.WatchdogMS) * time.Millisecond)
		}
		env, err := core.NewEnv(comm, shmem.New(rk))
		if err != nil {
			return err
		}
		defer env.Close()
		shared := map[Slot][]float64{}
		binding := Binding{}
		for _, s := range pl.slots {
			r := rep(s)
			buf, ok := shared[r]
			if !ok {
				buf = make([]float64, elems)
				for i := range buf {
					buf[i] = float64(rk.ID*elems + i)
				}
				shared[r] = buf
			}
			binding[s] = buf
		}
		execErr := pl.Execute(env, binding)
		decisions[rk.ID] = env.Decisions()
		return execErr
	})

	events := rec.Events()
	switch cex.Expect {
	case "deadline":
		if runErr == nil {
			return fmt.Errorf("plan: schedule %s: expected a deadline fault, run completed cleanly", cex.Name)
		}
		if !errors.Is(runErr, transport.ErrDeadline) {
			return fmt.Errorf("plan: schedule %s: expected a deadline fault, got: %v", cex.Name, runErr)
		}
	case "unreceived":
		if runErr != nil {
			return fmt.Errorf("plan: schedule %s: expected a clean run with unreceived sends, got: %v", cex.Name, runErr)
		}
		rep := verify.Check(events, n, false)
		for _, v := range rep.Violations {
			if v.Invariant == "completeness" && strings.Contains(v.Detail, "unreceived") {
				return nil
			}
		}
		return fmt.Errorf("plan: schedule %s: trace audit found no unreceived sends: %s", cex.Name, rep)
	case "truncation":
		if runErr != nil {
			return fmt.Errorf("plan: schedule %s: expected a truncated transfer, got error: %v", cex.Name, runErr)
		}
		if !traceHasTruncation(events) {
			return fmt.Errorf("plan: schedule %s: no receive completed short of its send", cex.Name)
		}
	case "clause-error":
		if runErr == nil || !strings.Contains(runErr.Error(), "clause evaluated to rank") {
			return fmt.Errorf("plan: schedule %s: expected a clause range error, got: %v", cex.Name, runErr)
		}
	case "alias-error":
		if !errors.Is(runErr, ErrAliasedBinding) {
			return fmt.Errorf("plan: schedule %s: expected ErrAliasedBinding, got: %v", cex.Name, runErr)
		}
	case "forced-sync":
		if runErr != nil {
			return fmt.Errorf("plan: schedule %s: expected a clean run with a forced sync, got: %v", cex.Name, runErr)
		}
		for _, ds := range decisions {
			for _, d := range ds {
				if strings.Contains(fmt.Sprint(d), "Region.Sync") {
					return nil
				}
			}
		}
		return fmt.Errorf("plan: schedule %s: no rank recorded the forced mid-region sync", cex.Name)
	default:
		return fmt.Errorf("plan: schedule %s: unknown expect clause %q", cex.Name, cex.Expect)
	}
	return nil
}

// traceHasTruncation reports whether any receive completed with fewer
// bytes than its FIFO-matched send carried — the wire-level signature of a
// count mismatch (the post-run verifier tolerates short receives by
// design, so the schedule gate checks it directly).
func traceHasTruncation(events []simnet.Event) bool {
	for _, p := range trace.Match(events).Pairs {
		if events[p.Recv].Bytes < events[p.Send].Bytes {
			return true
		}
	}
	return false
}
