package main

import (
	"regexp"
	"runtime"
	"testing"

	"commintent/internal/model"
	"commintent/internal/spmd"
)

// small returns every workload at smoke size: 8 ranks (9 for Fig. 4's
// 1+2xN layout), 20 ops per batch, 2 batches per trial.
func small(t *testing.T) []*workload {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	var out []*workload
	for _, w := range workloads {
		ranks := 8
		if w.selfTimed {
			ranks = 9
		}
		out = append(out, w.scaled(ranks, 20, 2))
	}
	return out
}

func loadTestManifest(t *testing.T) *manifest {
	t.Helper()
	mf, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return mf
}

// Workload names, short, for the table below.
const (
	h1 = "halo1s_r256"
	h2 = "halo2s_r256_shm_p2"
	a1 = "allreduce_r256"
	a2 = "allreduce_r256_shm_p2"
	f4 = "fig4_shmem_r33"
)

// measuredOn pins which workload measures which metric: a layer that is on
// a workload's path has a number there, and one that is not has none. A
// metric lost to a mistyped key or an early return shows as a difference
// from this table, where a 0 in its place would not.
var measuredOn = []struct {
	on    []string
	names []string
}{
	{[]string{h1, h2, a1, a2, f4}, []string{
		"wall_us_per_op", "allocs_per_op", "alloc_kb_per_op", "setup_s",
		"host.wall_us_per_op_p50", "host.wall_us_per_op_tail", "host.cpu_us_per_op",
		"host.peak_rss_mb", "host.gc_cycles_per_kop", "host.noise_ratio",
		"spmd.world_new_us", "spmd.spawn_us", "telemetry.overhead_pct",
		"transport.unexpected_hwm", "mpi.us_per_op", "mpi.allocs_per_op",
	}},
	// Modelled time exists on the simulated fabric only.
	{[]string{h1, a1, f4}, []string{"model.vtime_us_per_op", "mpi.vtime_us_per_op"}},
	// Fig. 4 has no raw-port or bare-barrier rung.
	{[]string{h1, h2, a1, a2}, []string{
		"transport.us_per_op", "transport.allocs_per_op", "simnet.barrier_us_per_op", "mpi.added_us_per_op",
	}},
	{[]string{h1, h2}, []string{
		"pragma.added_us_per_op", "pragma.allocs_added_per_op", "pragma.parse_us",
		"plan.added_us_per_op", "plan.allocs_added_per_op", "plan.compile_us",
		"core.newenv_us",
		"typemap.encode_ns_per_op", "typemap.decode_ns_per_op", "typemap.fast_path_share",
	}},
	// The directive layer is bypassed by the allreduces.
	{[]string{h1, h2, f4}, []string{
		"core.added_us_per_op", "core.overhead_x", "core.allocs_added_per_op",
		"core.directives_per_op", "core.handle_cache_hit_share",
		"simnet.events_per_op", "simnet.bytes_per_op",
	}},
	{[]string{h1, f4}, []string{
		"core.vtime_added_us", "core.retarget_shmem_us_per_op",
		"core.vself_us_per_op", "core.sync_vself_us_per_op",
	}},
	{[]string{h1}, []string{"plan.vtime_added_us", "mpi.wincreate_us", "mpi.rma_fence_elided_share"}},
	{[]string{h2}, []string{"core.syncs_consolidated_per_op"}},
	{[]string{h2, f4}, []string{"simnet.pool_hit_share"}},
	{[]string{a1, a2}, []string{"mpi.coll_added_us_per_op", "mpi.coll_calls_per_op"}},
	{[]string{f4}, []string{
		"shmem.put_bytes_per_op", "shmem.quiets_per_op", "shmem.vself_us_per_op",
		"wllsms.handwritten_us_per_op", "wllsms.handwritten_vtime_us", "wllsms.vtime_vs_handwritten_x",
		"wllsms.original_vtime_us", "wllsms.mpi2side_us_per_op", "wllsms.mpi2side_vtime_us",
		"wllsms.stage_us_per_op", "runtime.coalesce_vtime_us_per_op", "runtime.coalesce_us_per_op",
		"mpi.idle_vtime_us_per_op", "mpi.vself_us_per_op",
	}},
}

// TestEveryMetricIsEmitted runs both the end-to-end and the traced run of
// every workload and holds the manifest, the table above and the program to
// each other: each workload measures exactly the names the table gives it,
// every declared name is measured by some workload, nothing undeclared is
// measured, and names and units are well formed.
func TestEveryMetricIsEmitted(t *testing.T) {
	mf := loadTestManifest(t)
	ws := small(t)
	ms, err := measureAll(ws, 7, 0.2, traceBoth)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	declared := map[string]bool{}
	for _, d := range mf.all() {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("manifest metric %q (unit %q) is malformed", d.Name, d.Unit)
		}
		if declared[d.Name] {
			t.Errorf("manifest declares %q twice", d.Name)
		}
		declared[d.Name] = true
	}
	expected := map[string]map[string]bool{}
	pinned := map[string]bool{}
	for _, g := range measuredOn {
		for _, n := range g.names {
			pinned[n] = true
			if !declared[n] {
				t.Errorf("the table pins %q, which the manifest does not declare", n)
			}
			for _, w := range g.on {
				if expected[w] == nil {
					expected[w] = map[string]bool{}
				}
				expected[w][n] = true
			}
		}
	}
	for k := range declared {
		if !pinned[k] {
			t.Errorf("manifest declares %q but the table gives it to no workload", k)
		}
	}
	for _, w := range ws {
		m := ms[w.name]
		if m.failed != 0 || len(m.problems) != 0 || m.attempted == 0 {
			t.Errorf("%s: %d of %d ops failed, problems %v", w.name, m.failed, m.attempted, m.problems)
		}
		for k := range m.metrics {
			if !expected[w.name][k] {
				t.Errorf("%s measures %q, which the table does not expect of it", w.name, k)
			}
		}
		for k := range expected[w.name] {
			if _, ok := m.metrics[k]; !ok {
				t.Errorf("%s does not measure %q", w.name, k)
			}
		}
		for _, d := range mf.EndToEnd {
			if m.metrics[d.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, m.metrics[d.Name])
			}
		}
	}
	if len(mf.Workloads) != len(workloads) {
		t.Errorf("manifest lists %d workloads, the program has %d", len(mf.Workloads), len(workloads))
	}
	for i, w := range mf.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("manifest workload %d is %q, the program's is %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestEveryRungLandsTheGeneratedBytes enters each workload at every rung.
// Each rung's landed-bytes check compares against the one edge (sum, spin
// set) the seed generates, so rungs that all pass landed identical bytes —
// Block.Exec, Plan.Execute and the hand-written calls among them.
func TestEveryRungLandsTheGeneratedBytes(t *testing.T) {
	in := newInputs(11)
	for _, w := range small(t) {
		tr, err := runTrial(trialCfg{
			w: w, in: in, rungs: w.ladder,
			batch: w.batch, rounds: 2, orderSeed: 3,
		})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		want := (warmup + 2*w.batch) * len(w.ladder)
		if tr.issued != want || tr.failed != 0 {
			t.Errorf("%s: issued %d ops (want %d), %d failed", w.name, tr.issued, want, tr.failed)
		}
		for _, name := range w.ladder {
			if n := len(tr.of(name)); n != 2 {
				t.Errorf("%s: rung %s ran %d batches, want 2", w.name, name, n)
			}
		}
	}
}

// TestLandedCheckCatchesWrongBytes gives one rank inputs from another seed:
// what it sends is not what its neighbours expect, nor what it expects of
// them, so the check must fail ops rather than pass vacuously.
func TestLandedCheckCatchesWrongBytes(t *testing.T) {
	for _, w := range small(t) {
		setup := w.setup
		w.setup = func(rk *spmd.Rank, sh *shared, in *inputs, sync func() model.Time, want func(string) bool) (*program, error) {
			if rk.ID == 1 {
				in = newInputs(int64(in.seed) + 1)
			}
			return setup(rk, sh, in, sync, want)
		}
		tr, err := runTrial(trialCfg{w: w, in: newInputs(5), rungs: []string{w.top}, batch: w.batch, rounds: 1})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if tr.failed != tr.issued {
			t.Errorf("%s: %d of %d ops failed the check, want all", w.name, tr.failed, tr.issued)
		}
	}
}

// TestVirtualTimeRepeats: modelled time is a function of the program and
// the cost model alone, so two fresh worlds must agree to the nanosecond.
func TestVirtualTimeRepeats(t *testing.T) {
	in := newInputs(3)
	for _, w := range small(t) {
		if w.transport != "simnet" {
			continue
		}
		var v [2]float64
		for i := range v {
			tr, err := runTrial(trialCfg{w: w, in: in, rungs: []string{w.top}, batch: w.batch, rounds: w.batches})
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			v[i] = virtualPerOp(tr.batches, w.batch)
		}
		if v[0] != v[1] || v[0] <= 0 {
			t.Errorf("%s: virtual time per op %v then %v", w.name, v[0], v[1])
		}
	}
}

func TestEstimators(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v", got)
	}
	// Six of ten batches ran at 100, but they are 600 of the run's 2000
	// units of time: the run's typical cost is that of the other four. A
	// slow tail does not move it either.
	bimodal := []float64{100, 100, 100, 100, 100, 100, 350, 350, 350, 350}
	if got := typical(bimodal); got != 350 {
		t.Errorf("typical of a run with short fast episodes = %v, want 350", got)
	}
	if got := typical([]float64{10, 10, 10, 10, 10, 30, 10, 25}); got != 10 {
		t.Errorf("typical of a floor with a slow tail = %v, want 10", got)
	}
	if got := typical([]float64{7}); got != 7 {
		t.Errorf("typical of one batch = %v", got)
	}
	if got := percentile(sorted(xs), 0.10); got != 1 {
		t.Errorf("p10 = %v", got)
	}
	asc := make([]float64, 30)
	for i := range asc {
		asc[i] = float64(i)
	}
	if got := tail(asc); got != 19 {
		t.Errorf("tail = %v, want the highest value with ten beyond it", got)
	}
}
