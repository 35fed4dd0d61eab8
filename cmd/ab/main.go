// Command ab compares the benchmark of BENCHMARK.json at a git revision
// (REF) with the working tree: interleaved pairs of `bash benchmark/run.sh
// --trace 0`, the order swapped every pair so host drift hits both sides.
// REF is exported with `git archive` into the gitignored .ab/<commit>
// (nothing is fetched or registered in .git); every run goes into one
// stamped JSON under .ab/. Per workload and end-to-end metric it prints
// each side's median [q1–q3], Δ of the medians, the bound, the pairs the
// working tree was lower in, and a verdict:
//
//	better      better in >= 9 of 10 pairs, medians apart by more than REF's IQR
//	worse       median worse than REF's by more than the bound
//	higher      worse in >= 9 of 10 pairs, by more than REF's IQR, within the bound
//	unresolved  none of these, and REF's IQR / median exceeds the bound
//	equal       none of these
//
// Count metrics (unit "count") compare medians exactly: equal, better,
// worse beyond the bound, or higher within it. Every run is run.sh's own:
// the manifest's run_seconds and seed 1, the same on both sides.
//
//	make ab REF=<commit> [WORKLOADS=a,b] [PAIRS=10]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

type manifest struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// result is the last line run.sh prints.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

type run struct {
	Side     string `json:"side"` // "ref" or "head"
	Pair     int    `json:"pair"`
	Workload string `json:"workload"`
	Result   result `json:"result"`
}

func main() {
	var (
		ref       = flag.String("ref", "", "git revision to compare the working tree with (required)")
		workloads = flag.String("workloads", "", "comma-separated workloads (default: every workload of BENCHMARK.json)")
		pairs     = flag.Int("pairs", 10, "pairs of runs per workload")
	)
	flag.Parse()
	if err := ab(*ref, *workloads, *pairs); err != nil {
		fmt.Fprintln(os.Stderr, "ab:", err)
		os.Exit(1)
	}
}

func ab(ref, workloads string, pairs int) error {
	if ref == "" || pairs < 1 {
		return fmt.Errorf("usage: ab -ref <revision> [-workloads a,b] [-pairs n]")
	}
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	var m manifest
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &m); err != nil {
		return err
	}
	names := strings.FieldsFunc(workloads, func(r rune) bool { return r == ',' || r == ' ' })
	if len(names) == 0 {
		for _, w := range m.Workloads {
			names = append(names, w.Name)
		}
	}
	commit, err := git(root, "rev-parse", ref+"^{commit}")
	if err != nil {
		return err
	}
	head, _ := git(root, "rev-parse", "HEAD")
	refDir := filepath.Join(root, ".ab", commit)
	if _, err := os.Stat(refDir); err != nil {
		cmd := exec.Command("bash", "-c", `set -o pipefail; mkdir -p "$2" && git archive "$1" | tar -x -C "$2"`, "ab", commit, refDir)
		cmd.Dir, cmd.Stderr = root, os.Stderr
		if err := cmd.Run(); err != nil {
			os.RemoveAll(refDir) // no half-filled export left behind
			return fmt.Errorf("exporting %s: %w", ref, err)
		}
	}
	dirs := map[string]string{"ref": refDir, "head": root}
	var runs []run
	for p := 0; p < pairs; p++ {
		order := []string{"ref", "head"}
		if p%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, w := range names {
			for _, side := range order {
				r, err := bench(dirs[side], w)
				if err != nil {
					return fmt.Errorf("%s, %s, pair %d: %w", w, side, p, err)
				}
				runs = append(runs, run{Side: side, Pair: p, Workload: w, Result: r})
				fmt.Fprintf(os.Stderr, "pair %d/%d %-22s %-4s wall_us_per_op %.1f\n", p+1, pairs, w, side, r.Metrics["wall_us_per_op"].Value)
			}
		}
	}
	stamp := time.Now().UTC().Format("20060102T150405Z")
	out := filepath.Join(root, ".ab", "ab-"+stamp+".json")
	report := map[string]any{
		"stamp": stamp, "ref": ref, "ref_commit": commit, "head_commit": head,
		"go_version": runtime.Version(), "nproc": runtime.NumCPU(),
		"pairs": pairs, "seconds": m.RunSeconds, "seed": 1, "runs": runs,
	}
	b, err := json.MarshalIndent(report, "", " ")
	if err == nil {
		err = os.WriteFile(out, b, 0o644)
	}
	if err != nil {
		return err
	}
	fmt.Printf("ref %s (%s) vs working tree at %s: %d pairs of %gs runs, seed 1; every run in %s\n\n",
		ref, commit[:12], head[:min(12, len(head))], pairs, m.RunSeconds, out)
	printTable(m, names, runs)
	return nil
}

func readJSON(file string, v any) error {
	b, err := os.ReadFile(file)
	if err == nil {
		err = json.Unmarshal(b, v)
	}
	return err
}

func printTable(m manifest, names []string, runs []run) {
	fmt.Printf("%-22s %-16s %-28s %-28s %8s %6s %7s  %s\n", "workload", "metric", "ref median [q1–q3]", "head median [q1–q3]", "Δ", "bound", "lower", "verdict")
	for _, w := range names {
		for _, e := range m.EndToEnd {
			var a, b []float64
			for _, r := range runs {
				if r.Workload != w {
					continue
				}
				v := r.Result.Metrics[e.Name].Value
				if r.Side == "ref" {
					a = append(a, v)
				} else {
					b = append(b, v)
				}
			}
			lower := 0
			for i := range min(len(a), len(b)) {
				if b[i] < a[i] {
					lower++
				}
			}
			qa, qb := quartiles(a), quartiles(b)
			fmt.Printf("%-22s %-16s %-28s %-28s %+7.1f%% %5.0f%% %4d/%-2d  %s\n", w, e.Name,
				fmtQ(qa), fmtQ(qb), 100*(qb[1]/qa[1]-1), 100*e.Bound, lower, len(a),
				verdict(a, b, qa, qb, e.Unit == "count", e.Bound))
		}
		for _, r := range runs {
			if r.Workload == w && (!r.Result.Correct || r.Result.Failed != 0) {
				fmt.Printf("%-22s %s pair %d: correct %v, %d of %d ops failed\n", w, r.Side, r.Pair, r.Result.Correct, r.Result.Failed, r.Result.Attempted)
			}
		}
	}
}

// verdict applies the rules in the package comment to REF's runs a and the
// working tree's b, paired by index. Every end-to-end metric is lower-is-better.
func verdict(a, b []float64, qa, qb [3]float64, count bool, bound float64) string {
	rel, iqr := (qb[1]-qa[1])/qa[1], qa[2]-qa[0]
	wins, losses := 0, 0
	for i := range min(len(a), len(b)) {
		if b[i] < a[i] {
			wins++
		} else if b[i] > a[i] {
			losses++
		}
	}
	switch {
	case rel > bound:
		return "worse"
	case count && rel == 0:
		return "equal"
	case count && rel < 0, !count && 10*wins >= 9*len(a) && qa[1]-qb[1] > iqr:
		return "better"
	case count, 10*losses >= 9*len(a) && qb[1]-qa[1] > iqr:
		return "higher"
	case iqr/qa[1] > bound:
		return "unresolved"
	}
	return "equal"
}

// quartiles returns the lower quartile, median and upper quartile of v by
// the "exclusive" method of Python's statistics.quantiles(v, n=4).
func quartiles(v []float64) [3]float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func fmtQ(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g–%.4g]", q[1], q[0], q[2])
}

// bench runs one workload in dir and returns run.sh's last line.
func bench(dir, workload string) (result, error) {
	cmd := exec.Command("bash", "benchmark/run.sh", "--workload", workload, "--trace", "0")
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("reading the result line: %w", err)
	}
	return r, nil
}

func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	return strings.TrimSpace(string(out)), err
}
