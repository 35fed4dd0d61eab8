// Command benchmark is the repository's benchmark: five fixed workloads,
// each measured end to end at its top layer and, in a traced run, entered at
// every layer boundary so that what each layer adds is a number. See
// README.md in this directory for the metrics and how to read them.
//
//	go run ./benchmark -workload halo1s_r256 -seed 1 -seconds 20 -trace 0
//	go run ./benchmark -json a.json            # every workload, both runs
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	rt "commintent/internal/runtime"
	"commintent/internal/transport"
)

// manifest is BENCHMARK.json: the one place metric names, units, directions
// and bounds are written down. The program emits exactly these names.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func (mf *manifest) all() []metricDef {
	return mf.defsFor(traceBoth)
}

// defsFor returns the metrics a run in the given trace mode reports.
func (mf *manifest) defsFor(trace int) []metricDef {
	var defs []metricDef
	if trace != traceOn {
		defs = append(defs, mf.EndToEnd...)
	}
	if trace != traceOff {
		defs = append(defs, mf.PerLayer...)
	}
	return defs
}

// manifestPath is relative to the root of the checkout, which is where
// run.sh and `go run ./benchmark` start the program.
const manifestPath = "BENCHMARK.json"

func loadManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &mf, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the driver reads from the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is what -json writes and -compare reads: every workload's result
// with the context it was measured in.
type report struct {
	Context map[string]any            `json:"context"`
	Info    map[string]map[string]any `json:"info"`
	Results map[string]*result        `json:"results"`
}

// Trace modes. The driver uses 0 and 1; 2 is both, for a full report.
const (
	traceOff  = 0
	traceOn   = 1
	traceBoth = 2
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "all", "workload name, or all")
		seed         = flag.Int64("seed", 1, "seed for payloads, spin proposals and the interleaving of trials and rungs")
		seconds      = flag.Float64("seconds", 0, "measuring time per workload per run (default: run_seconds of the manifest)")
		trace        = flag.Int("trace", traceBoth, "0: end-to-end metrics, 1: per-layer metrics (ladder and traced run), 2: both")
		jsonOut      = flag.String("json", "", "also write the full report to this file")
		compareA     = flag.String("compare", "", "compare two reports: -compare a.json b.json")
	)
	flag.Parse()

	mf, err := loadManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *compareA != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compare(mf, *compareA, flag.Arg(0), os.Stdout)
	}
	if *seconds <= 0 {
		*seconds = float64(mf.RunSeconds)
	}
	if *trace < traceOff || *trace > traceBoth {
		fmt.Fprintln(os.Stderr, "benchmark: -trace must be 0, 1 or 2")
		return 2
	}

	// The transport and the managed runtime are chosen by the workload, not
	// by whatever the caller has exported.
	os.Unsetenv(transport.EnvVar)
	os.Unsetenv(rt.EnvVar)

	var selected []*workload
	if *workloadName == "all" {
		selected = workloads
	} else {
		w, err := findWorkload(*workloadName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		selected = []*workload{w}
	}
	// A workload that wants more Ps than the host has CPUs would measure
	// oversubscription, not parallelism: it is absent, not wrong.
	var present []*workload
	for _, w := range selected {
		if w.procs > runtime.NumCPU() {
			fmt.Fprintf(os.Stderr, "benchmark: %s needs GOMAXPROCS=%d but the host has %d CPU(s): absent\n",
				w.name, w.procs, runtime.NumCPU())
			continue
		}
		present = append(present, w)
	}
	if len(present) == 0 {
		return 3
	}

	rep, err := measure(mf, present, *seed, *seconds, *trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	rep.Context["seed"] = *seed
	rep.Context["seconds"] = *seconds
	rep.Context["trace"] = *trace

	if err := emit(rep, present, mf.defsFor(*trace), *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	for _, w := range present {
		if !rep.Results[w.name].Correct {
			return 1
		}
	}
	return 0
}

// measureAll runs the selected workloads: the end-to-end trials of all of
// them interleaved, then each one's traced run.
func measureAll(ws []*workload, seed int64, seconds float64, trace int) (map[string]*measurement, error) {
	in := newInputs(seed)
	ms := map[string]*measurement{}
	for _, w := range ws {
		ms[w.name] = newMeasurement()
	}
	if trace != traceOn {
		var runs []*e2eRun
		for _, w := range ws {
			runs = append(runs, &e2eRun{w: w, in: in, budget: time.Duration(seconds * float64(time.Second))})
		}
		if err := interleave(runs, seed); err != nil {
			return nil, err
		}
		for _, r := range runs {
			if err := r.finish(ms[r.w.name]); err != nil {
				return nil, err
			}
		}
	}
	if trace != traceOff {
		for _, w := range ws {
			if err := measureLayers(w, in, seconds, ms[w.name]); err != nil {
				return nil, err
			}
		}
	}
	return ms, nil
}

// measure runs the selected workloads and shapes their measurements into
// the names the manifest declares.
func measure(mf *manifest, ws []*workload, seed int64, seconds float64, trace int) (*report, error) {
	ms, err := measureAll(ws, seed, seconds, trace)
	if err != nil {
		return nil, err
	}
	defs := mf.defsFor(trace)
	known := map[string]bool{}
	for _, d := range mf.all() {
		known[d.Name] = true
	}
	rep := &report{Context: hostContext(), Info: map[string]map[string]any{}, Results: map[string]*result{}}
	for _, w := range ws {
		m := ms[w.name]
		for name := range m.metrics {
			if !known[name] {
				return nil, fmt.Errorf("measured metric %q is not declared in the manifest", name)
			}
		}
		res := &result{
			Correct:   m.failed == 0 && len(m.problems) == 0,
			Attempted: m.attempted,
			Failed:    m.failed,
			Metrics:   map[string]metricValue{},
		}
		for _, p := range m.problems {
			fmt.Fprintln(os.Stderr, "benchmark:", p)
		}
		// Only what this workload measured: a layer that is not on its
		// path has no number, which is not the same as the number 0.
		absent := []string{}
		for _, d := range defs {
			if v, ok := m.metrics[d.Name]; ok {
				res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
			} else {
				absent = append(absent, d.Name)
			}
		}
		m.info["not_measured"] = absent
		m.info["gomaxprocs"] = w.procs
		m.info["ranks"] = w.ranks
		m.info["transport"] = w.transport
		rep.Results[w.name] = res
		rep.Info[w.name] = m.info
	}
	return rep, nil
}

// hostContext stamps where and with what the numbers were taken.
func hostContext() map[string]any {
	ctx := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"git_commit": "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				ctx["git_commit"] = s.Value
			case "vcs.modified":
				ctx["git_modified"] = s.Value == "true"
			}
		}
	}
	return ctx
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// emit prints the context, every measured metric by name with its unit, and
// last the line a driver parses: the one result for a single workload, the
// whole report for several.
func emit(rep *report, ws []*workload, defs []metricDef, jsonPath string) error {
	ctx, err := json.Marshal(map[string]any{"context": rep.Context, "info": rep.Info})
	if err != nil {
		return err
	}
	fmt.Println(string(ctx))
	for _, w := range ws {
		res := rep.Results[w.name]
		names := make([]string, 0, len(res.Metrics))
		for name := range res.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := res.Metrics[name]
			fmt.Printf("%-24s %-36s %14.4f %s\n", w.name, name, v.Value, v.Unit)
		}
	}
	full, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if jsonPath != "" {
		if err := os.WriteFile(jsonPath, append(full, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(ws) == 1 {
		// The driver wants every declared name on every workload. A name
		// this workload does not measure is 0 on this line and on this line
		// only; the context line lists those names under not_measured.
		res := *rep.Results[ws[0].name]
		res.Metrics = map[string]metricValue{}
		for _, d := range defs {
			res.Metrics[d.Name] = metricValue{Value: rep.Results[ws[0].name].Metrics[d.Name].Value, Unit: d.Unit}
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}
	fmt.Println(string(full))
	return nil
}
