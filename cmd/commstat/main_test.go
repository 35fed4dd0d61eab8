package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runMain invokes main() in-process with a fresh flag set and stdout
// redirected to a scratch file, returning the captured stdout.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	oldArgs, oldFlags, oldStdout := os.Args, flag.CommandLine, os.Stdout
	defer func() {
		os.Args, flag.CommandLine, os.Stdout = oldArgs, oldFlags, oldStdout
	}()
	flag.CommandLine = flag.NewFlagSet("commstat", flag.ExitOnError)
	os.Args = append([]string{"commstat"}, args...)
	outPath := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = f
	main()
	f.Close()
	b, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestCommstatReport(t *testing.T) {
	out := runMain(t, "-n", "4", "-pattern", "halo", "-iters", "2")
	for _, want := range []string{
		// Metrics exposition.
		"# TYPE core_directives_total counter",
		`core_directives_total{rank="0"} 4`,
		"core_datatype_cache_hits_total",
		"mpi_idle_virtual_ns_total",
		"simnet_unexpected_queue_hwm",
		// Derived summaries.
		"datatype cache:",
		// Critical-path report with per-rank idle and chain length.
		"critical path:",
		"message edge(s)",
		"per-rank idle (wait) time:",
		"rank   0: idle",
		"load imbalance (max/mean finish):",
		// Robustness summary: all-zero counters on a healthy fabric.
		"faults: 0 message(s) lost, 0 dead-peer, 0 deadline; recovery: 0 re-send(s), 0 give-up(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Error("report contains NaN; zero-denominator rates must print n/a")
	}
}

// TestCommstatZeroDenominatorRates: a two-sided run performs no one-sided
// traffic, so the fence-elision rate has a zero denominator — the line must
// still print, with n/a rather than NaN.
func TestCommstatZeroDenominatorRates(t *testing.T) {
	out := runMain(t, "-n", "2", "-pattern", "ring")
	if !strings.Contains(out, "elision rate n/a") {
		t.Errorf("zero-fence run should print `elision rate n/a`:\n%s", out)
	}
	for _, want := range []string{"payload pool:", "parks per generation", "pack/unpack:", "handle cache:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Error("report contains NaN; zero-denominator rates must print n/a")
	}
}

// TestCommstatRuntimeDecisionsOff: the "runtime decisions" section prints
// on every run — with the managed runtime off it shows the off config, all
// zeros with n/a-safe rates, and an empty decision trace.
func TestCommstatRuntimeDecisionsOff(t *testing.T) {
	out := runMain(t, "-n", "2", "-pattern", "ring")
	for _, want := range []string{
		"== runtime decisions ==",
		"managed runtime: off",
		"coalesce: 0 small message(s) packed into 0 batch(es), 0 wire message(s) saved (save rate n/a)",
		"decision trace: empty",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "retune") {
		t.Error("the collective tuner is gone; the report must not mention retuning")
	}
}

// TestCommstatRuntimeDecisionsOn: -managed on coalesces the ring pattern's
// small sends and renders the nonzero counters, the batch-size quantiles,
// and each rank's coalesce decisions with the evidence behind them.
func TestCommstatRuntimeDecisionsOn(t *testing.T) {
	out := runMain(t, "-n", "4", "-pattern", "ring", "-iters", "2", "-managed", "on")
	for _, want := range []string{
		"managed runtime: coalesce",
		"batch sizes (parts per batch, per rank):",
		"decision trace:",
		"coalesce",
		"-> 1 batch (",
		"B header)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "decision trace: empty") {
		t.Error("managed run should record coalesce decisions")
	}
	if strings.Contains(out, "NaN") {
		t.Error("report contains NaN; zero-denominator rates must print n/a")
	}
}

// TestCommstatFaultInjection: with -drop the run completes through the
// retry path and the report shows nonzero fault and re-send counters.
func TestCommstatFaultInjection(t *testing.T) {
	out := runMain(t, "-n", "4", "-pattern", "ring", "-iters", "4", "-drop", "0.2", "-fault-seed", "7")
	if !strings.Contains(out, "faults: 24 message(s) lost, 0 dead-peer, 0 deadline; recovery: 24 re-send(s), 0 give-up(s)") {
		t.Errorf("seeded 20%% drop run should report its exact (deterministic) fault counts:\n%s", out)
	}
}

func TestCommstatJSONSnapshot(t *testing.T) {
	out := runMain(t, "-n", "2", "-pattern", "ring", "-json")
	if !strings.Contains(out, `"core_directives_total{rank=\"0\"}"`) &&
		!strings.Contains(out, `core_directives_total{rank="0"}`) {
		t.Errorf("JSON snapshot missing directive counter:\n%s", out)
	}
	if !strings.Contains(out, "critical path:") {
		t.Error("JSON mode dropped the critical-path report")
	}
}

// TestCommstatTopologySection: on a torus profile the report names the
// active topology and buckets the observed traffic by hop distance; on the
// default flat profile every topology line degrades to n/a rather than
// disappearing or printing garbage.
func TestCommstatTopologySection(t *testing.T) {
	out := runMain(t, "-n", "8", "-pattern", "ring", "-profile", "torus")
	for _, want := range []string{
		"== topology ==",
		"topology: torus-2x2x2",
		"diameter 3",
		"hop-distance histogram (observed wire traffic):",
		" 0 hop(s):",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("torus output missing %q:\n%s", want, out)
		}
	}

	flat := runMain(t, "-n", "4", "-pattern", "ring")
	for _, want := range []string{
		"topology: flat (single crossbar); hop histogram: n/a",
	} {
		if !strings.Contains(flat, want) {
			t.Errorf("flat output missing %q:\n%s", want, flat)
		}
	}
}
