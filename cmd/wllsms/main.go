// Command wllsms runs the WL-LSMS mini-app end to end on the simulated
// machine: atom distribution, Wang-Landau stepping with within-LIZ spin
// transfers, synthetic core-state computation and energy reduction.
//
// Usage:
//
//	wllsms [-groups 2] [-group-size 16] [-steps 8]
//	       [-variant original|waitall|directive] [-target mpi2side|shmem]
//	       [-gpu 1] [-trace]
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"commintent/internal/core"
	"commintent/internal/model"
	"commintent/internal/spmd"
	"commintent/internal/trace"
	"commintent/internal/verify"
	"commintent/internal/wllsms"
)

func main() {
	groups := flag.Int("groups", 2, "number of LSMS instances (M)")
	groupSize := flag.Int("group-size", 16, "processes per instance (N)")
	steps := flag.Int("steps", 8, "Wang-Landau steps")
	variant := flag.String("variant", "directive", "communication variant: original, waitall or directive")
	target := flag.String("target", "mpi2side", "directive target: mpi2side, mpi1side, shmem or auto")
	gpu := flag.Float64("gpu", 1, "compute speedup projection (10 = projected GPU port)")
	doTrace := flag.Bool("trace", false, "print communication statistics and matrix pattern")
	doVerify := flag.Bool("verify", false, "check trace invariants (causality, completeness, conservation) after the run")
	flag.Parse()

	p := wllsms.DefaultParams()
	p.Groups = *groups
	p.GroupSize = *groupSize
	p.NumAtoms = *groupSize
	p.Steps = *steps
	p.GPUSpeedup = *gpu

	v, tgt, err := parseVariant(*variant, *target)
	if err != nil {
		fatal(err)
	}

	w, err := spmd.NewWorld(p.NProcs(), model.GeminiLike())
	if err != nil {
		fatal(err)
	}
	if *doTrace || *doVerify {
		w.Fabric().EnableRecorder(0)
	}

	var mu sync.Mutex
	var master wllsms.RunStats
	var distT, stepT model.Time
	err = w.Run(func(rk *spmd.Rank) error {
		app, err := wllsms.Setup(rk, p)
		if err != nil {
			return err
		}
		defer app.Close()
		d, err := app.DistributeAtoms(v, tgt)
		if err != nil {
			return err
		}
		t0 := rk.Now()
		rs, err := app.Run(v, tgt)
		if err != nil {
			return err
		}
		if rk.ID == 0 {
			mu.Lock()
			master = rs
			distT = d
			stepT = rk.Now() - t0
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("WL-LSMS: %d processes (1 WL + %d x %d), %d atoms/instance, %d steps, variant=%s target=%s\n",
		p.NProcs(), p.Groups, p.GroupSize, p.NumAtoms, p.Steps, *variant, *target)
	fmt.Printf("  atom distribution:     %v (virtual)\n", distT)
	fmt.Printf("  WL stepping (master):  %v (virtual)\n", stepT)
	fmt.Printf("  accept/reject:         %d/%d, final ln(f) = %g\n", master.Accepted, master.Rejected, master.LnF)
	fmt.Printf("  last walker energy:    %.6f\n", master.LastEnergy)
	fmt.Printf("  max virtual time:      %v\n", w.MaxVirtualTime())

	events := w.Fabric().Recorder().Events()
	if *doVerify {
		fmt.Printf("\n%s\n", verify.Check(events, p.NProcs(), false))
	}
	if *doTrace {
		st := trace.StatsOf(events)
		fmt.Printf("\ntrace: %d messages, %d bytes of payload, %d synchronisation ops\n",
			st.Messages, st.DataBytes, st.Syncs)
		for k, n := range st.PerKind {
			fmt.Printf("  %-14s %d\n", k, n)
		}
	}
}

func parseVariant(variant, target string) (wllsms.Variant, core.Target, error) {
	var v wllsms.Variant
	switch variant {
	case "original":
		v = wllsms.VariantOriginal
	case "waitall":
		v = wllsms.VariantOriginalWaitall
	case "directive":
		v = wllsms.VariantDirective
	default:
		return 0, 0, fmt.Errorf("unknown variant %q", variant)
	}
	var t core.Target
	switch target {
	case "mpi2side":
		t = core.TargetMPI2Side
	case "mpi1side":
		t = core.TargetMPI1Side
	case "shmem":
		t = core.TargetSHMEM
	case "auto":
		t = core.TargetAuto
	default:
		return 0, 0, fmt.Errorf("unknown target %q", target)
	}
	return v, t, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wllsms:", err)
	os.Exit(1)
}
