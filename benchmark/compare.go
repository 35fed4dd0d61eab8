package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// noisyRatio is the pooled p50/p10 of batch means above which a run was
// taken in a slow host phase: quiet runs sit near 1.1, slow phases at
// 1.6-1.7, so a wall-time difference involving such a run decides nothing.
const noisyRatio = 2.0

func loadReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// modelledTime is gated by -compare beside the manifest's end-to-end
// metrics, with the bound the issue that defined this benchmark gave it. It
// cannot be an end-to-end entry of the manifest (the wall-clock workloads
// have none, and it reads the same on every run), and per-layer entries
// carry no bound, so the bound lives here.
var modelledTime = metricDef{Name: "model.vtime_us_per_op", Unit: "us_virtual", Better: "lower", Bound: 0.001}

// compare prints, per workload and gated metric, how far report b is from
// report a relative to the metric's bound, and returns the exit code: 1 when
// b is worse than a by more than the bound or has failed ops, 0 otherwise. A
// gain beyond the bound is flagged but does not fail: between two sets of
// one commit it says the runs do not repeat, between two commits it may be
// the point. Compare both ways round to check repeatability.
func compare(mf *manifest, pathA, pathB string, out io.Writer) int {
	a, err := loadReport(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := loadReport(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var names []string
	for name := range a.Results {
		if _, ok := b.Results[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: the two reports share no workload")
		return 2
	}

	code := 0
	fmt.Fprintf(out, "%-24s %-24s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "diff", "bound", "verdict")
	for _, name := range names {
		ra, rb := a.Results[name], b.Results[name]
		noisy := ra.Metrics["host.noise_ratio"].Value > noisyRatio || rb.Metrics["host.noise_ratio"].Value > noisyRatio
		for _, d := range slices.Concat(mf.EndToEnd, []metricDef{modelledTime}) {
			va, okA := ra.Metrics[d.Name]
			vb, okB := rb.Metrics[d.Name]
			if !okA || !okB {
				continue // not measured on this workload, or not in this trace mode
			}
			rel := ratio(vb.Value-va.Value, va.Value)
			if d.Better == "higher" {
				rel = -rel
			}
			// A noisy host excuses host time alone: allocation counts and
			// modelled time do not depend on it.
			hostTime := d.Unit == "us" || d.Unit == "s"
			verdict := "within"
			switch {
			case va.Value == vb.Value:
				verdict = "identical"
			case math.Abs(rel) <= d.Bound:
			case noisy && hostTime:
				verdict = "unresolved (noisy host)"
			case rel > 0:
				verdict, code = "WORSE", 1
			default:
				verdict = "better beyond bound"
			}
			fmt.Fprintf(out, "%-24s %-24s %14.4f %14.4f %+8.2f%% %6.1f%%  %s\n",
				name, d.Name, va.Value, vb.Value, 100*rel, 100*d.Bound, verdict)
		}
		if ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(out, "%-24s failed ops: a %d of %d, b %d of %d\n", name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			code = 1
		}
	}
	return code
}
