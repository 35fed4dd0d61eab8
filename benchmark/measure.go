package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"commintent/internal/model"
	"commintent/internal/simnet"
	"commintent/internal/telemetry"
	"commintent/internal/typemap"
)

// metrics holds measured values by BENCHMARK.json name.
type metrics map[string]float64

// rungStat is one rung's steady-state cost in the ladder run.
type rungStat struct {
	us     float64 // typical batch mean, host wall µs per op
	allocs float64 // median mallocs per op
	vus    float64 // virtual µs per op (NaN on the wall-clock transport, which has none)
}

type ladderStats map[string]rungStat

// measurement is one workload's outcome: the metrics plus the op counts the
// driver wants beside them.
type measurement struct {
	metrics   metrics
	attempted int
	failed    int
	problems  []string // why the run is not correct, if it is not
	info      map[string]any
}

func newMeasurement() *measurement {
	return &measurement{metrics: metrics{}, info: map[string]any{}}
}

func (m *measurement) count(t *trial) {
	m.attempted += t.issued
	m.failed += t.failed
}

func batchMeans(bs []batchRec) []float64 {
	us := make([]float64, len(bs))
	for i, b := range bs {
		us[i] = b.us
	}
	return us
}

// virtualPerOp is the virtual time per op over a set of batches, in µs.
func virtualPerOp(bs []batchRec, batch int) float64 {
	var v model.Time
	for _, b := range bs {
		v += b.v
	}
	return ratio(v.Micros(), float64(len(bs)*batch))
}

// e2eRun accumulates top-rung trials of one workload until its time budget
// is spent; trials of several workloads can be interleaved.
type e2eRun struct {
	w      *workload
	in     *inputs
	budget time.Duration
	spent  time.Duration
	trials []*trial
}

// minTrials is the fewest fresh worlds a run reports from, however slow the
// host.
const minTrials = 3

func (r *e2eRun) done() bool {
	if len(r.trials) < minTrials {
		return false
	}
	per := r.spent / time.Duration(len(r.trials))
	return r.spent+per > r.budget
}

func (r *e2eRun) step() error {
	t0 := time.Now()
	t, err := runTrial(trialCfg{
		w: r.w, in: r.in,
		rungs: []string{r.w.top}, batch: r.w.batch, rounds: r.w.batches,
	})
	if err != nil {
		return fmt.Errorf("%s trial %d: %w", r.w.name, len(r.trials), err)
	}
	r.trials = append(r.trials, t)
	r.spent += time.Since(t0)
	return nil
}

// setupSamples is how many extra worlds are built, warmed up and torn down
// just to time set-up: it is cheap next to a trial, and the trials alone
// give too few samples for a steady median.
const setupSamples = 20

// finish samples set-up some more, then reduces the trials to the
// end-to-end metrics.
func (r *e2eRun) finish(m *measurement) error {
	w := r.w
	var stat, pooled, allocs, kb, setup []float64
	for i := 0; i < setupSamples; i++ {
		t, err := runTrial(trialCfg{w: w, in: r.in, rungs: []string{w.top}, batch: 1, rounds: 1})
		if err != nil {
			return fmt.Errorf("%s set-up sample %d: %w", w.name, i, err)
		}
		m.count(t)
		setup = append(setup, t.setupS)
	}
	var batchUS [][]float64
	for _, t := range r.trials {
		m.count(t)
		us := batchMeans(t.batches)
		batchUS = append(batchUS, us)
		pooled = append(pooled, us...)
		stat = append(stat, typical(us))
		allocs = append(allocs, float64(t.mallocs)/float64(t.ops))
		kb = append(kb, float64(t.bytes)/1024/float64(t.ops))
		setup = append(setup, t.setupS)
	}
	m.metrics["wall_us_per_op"] = typical(pooled)
	m.metrics["allocs_per_op"] = median(allocs)
	m.metrics["alloc_kb_per_op"] = median(kb)
	m.metrics["setup_s"] = median(setup)
	hostMetrics(m, w, r.trials)
	m.info["trials"] = len(r.trials)
	m.info["batch"] = w.batch
	m.info["ops_per_trial"] = w.batch * w.batches
	m.info["trial_stat_us"] = stat
	m.info["batch_us"] = batchUS
	m.info["setup_s_samples"] = setup
	return nil
}

// hostMetrics reports the model's clock and the host's view of a set of
// top-rung trials: the ungated numbers that let a reader discount a run
// taken in a slow host phase.
func hostMetrics(m *measurement, w *workload, trials []*trial) {
	var pooled []float64
	var ops int
	var cpu float64
	var gc uint32
	var vper []float64
	for _, t := range trials {
		pooled = append(pooled, batchMeans(t.batches)...)
		ops += t.ops
		cpu += t.cpuUS
		gc += t.gcCycles
		vper = append(vper, virtualPerOp(t.batches, w.batch))
	}
	asc := sorted(pooled)
	m.metrics["host.wall_us_per_op_p50"] = percentile(asc, 0.50)
	m.metrics["host.wall_us_per_op_tail"] = tail(asc)
	m.metrics["host.noise_ratio"] = ratio(percentile(asc, 0.50), percentile(asc, 0.10))
	m.metrics["host.cpu_us_per_op"] = ratio(cpu, float64(ops))
	m.metrics["host.gc_cycles_per_kop"] = ratio(1000*float64(gc), float64(ops))
	m.metrics["host.peak_rss_mb"] = peakRSSMB()
	m.info["batches_pooled"] = len(pooled)
	if w.transport != "simnet" || len(vper) == 0 {
		return // the wall-clock transport has no modelled time
	}
	m.metrics["model.vtime_us_per_op"] = vper[0]
	for _, v := range vper[1:] {
		if v != vper[0] {
			m.problems = append(m.problems,
				fmt.Sprintf("virtual time differs between trials of %s: %v", w.name, vper))
			break
		}
	}
}

// measureLayers is the traced run: the ladder, the telemetry pairs, the
// span trial and the micro-timings, sharing seconds between them.
func measureLayers(w *workload, in *inputs, seconds float64, m *measurement) error {
	budget := time.Duration(seconds * float64(time.Second))

	// The ladder: every rung in one world, batches interleaved in seeded
	// order so host noise falls on all rungs alike. A world gives each rung
	// the op count of an end-to-end trial, because cost per op depends on
	// how long a directive environment has lived; worlds repeat while half
	// the time lasts.
	var worlds []*trial
	ladderStart := time.Now()
	for n := time.Duration(0); n == 0 || time.Since(ladderStart)*(n+1)/n < budget/2; n++ {
		lt, err := runTrial(trialCfg{
			w: w, in: in,
			rungs: w.ladder, batch: w.batch, rounds: w.batches,
			orderSeed: int64(mix(in.seed^0x1adde7)) + int64(n),
		})
		if err != nil {
			return fmt.Errorf("%s ladder: %w", w.name, err)
		}
		m.count(lt)
		worlds = append(worlds, lt)
	}
	l := ladderStats{}
	rounds := 0
	for _, name := range w.ladder {
		var bs []batchRec
		for _, lt := range worlds {
			bs = append(bs, lt.of(name)...)
		}
		var mallocs []float64
		for _, b := range bs {
			mallocs = append(mallocs, b.mallocs)
		}
		st := rungStat{us: typical(batchMeans(bs)), allocs: median(mallocs), vus: math.NaN()}
		rec := map[string]float64{"us": st.us, "allocs": st.allocs}
		if w.transport == "simnet" {
			st.vus = virtualPerOp(bs, w.batch)
			rec["us_virtual"] = st.vus
		}
		l[name] = st
		m.info["ladder."+name] = rec
		rounds = len(bs)
	}
	m.info["ladder_worlds"] = len(worlds)
	m.info["ladder_rounds"] = rounds
	w.derive(l, m.metrics)
	// What derives from a rung's modelled time is not a number on the
	// wall-clock transport, and is not reported there.
	for name, v := range m.metrics {
		if math.IsNaN(v) {
			delete(m.metrics, name)
		}
	}
	lt := worlds[0]
	for _, t := range worlds {
		lt.hwm = max(lt.hwm, t.hwm)
	}
	m.metrics["transport.unexpected_hwm"] = float64(lt.hwm)
	m.metrics["spmd.world_new_us"] = lt.worldNewUS
	m.metrics["spmd.spawn_us"] = lt.spawnUS
	for key, name := range map[string]string{
		"parse_us": "pragma.parse_us", "compile_us": "plan.compile_us",
		"newenv_us": "core.newenv_us", "wincreate_us": "mpi.wincreate_us",
	} {
		if v, ok := lt.times[key]; ok {
			m.metrics[name] = v
		}
	}

	// Telemetry pairs: the top rung untraced and traced, alternating, in
	// worlds a third the length of an end-to-end trial.
	rounds = (w.batches + 2) / 3
	var plain, traced []*trial
	pairStart := time.Now()
	for pairs := 0; ; pairs++ {
		// Stop when another pair would overrun this phase's share.
		if pairs >= 2 && time.Since(pairStart)*time.Duration(pairs+1)/time.Duration(pairs) > budget*35/100 {
			break
		}
		for _, on := range []bool{false, true} {
			cfg := trialCfg{w: w, in: in, rungs: []string{w.top}, batch: w.batch, rounds: rounds}
			if on {
				// A small ring, as a flight recorder runs: it wraps.
				cfg.tele = telemetry.New(w.ranks, 256)
			}
			t, err := runTrial(cfg)
			if err != nil {
				return fmt.Errorf("%s telemetry pair: %w", w.name, err)
			}
			m.count(t)
			if on {
				traced = append(traced, t)
			} else {
				plain = append(plain, t)
			}
		}
	}
	stat := func(ts []*trial) float64 {
		var pooled []float64
		for _, t := range ts {
			pooled = append(pooled, batchMeans(t.batches)...)
		}
		return typical(pooled)
	}
	m.metrics["telemetry.overhead_pct"] = 100 * (ratio(stat(traced), stat(plain)) - 1)
	m.info["telemetry_pairs"] = len(plain)
	if _, have := m.metrics["wall_us_per_op"]; !have {
		// Without an end-to-end run beside it, the untraced half of the
		// pairs is the host's view of the top rung.
		hostMetrics(m, w, plain)
	}
	counterMetrics(m, w, traced)

	// The span trial: few ops, a ring large enough to keep every span.
	tele := telemetry.New(w.ranks, 1<<16)
	st, err := runTrial(trialCfg{w: w, in: in, rungs: []string{w.top}, batch: 30, rounds: 1, tele: tele})
	if err != nil {
		return fmt.Errorf("%s span trial: %w", w.name, err)
	}
	m.count(st)
	spanMetrics(m, w, tele.Tracer(), st)

	if w.halo {
		if err := typemapMetrics(m, in); err != nil {
			return fmt.Errorf("%s typemap: %w", w.name, err)
		}
	}
	return nil
}

// counterNames are the per-rank telemetry counters differenced over a
// traced trial's steady-state window.
var counterNames = []string{
	"mpi_idle_virtual_ns_total", "mpi_coll_calls_total",
	"mpi_rma_fence_total", "mpi_rma_fence_elided_total",
	"core_directives_total", "core_syncs_consolidated_total",
	"core_handle_cache_hits_total", "core_handle_cache_misses_total",
	"shmem_put_bytes_total", "shmem_quiet_total",
}

// readCounters sums the telemetry counters over the world, plus the
// process-wide payload pool counters, which have no registry series a
// counter read can reach.
func readCounters(t *telemetry.Telemetry, n int) map[string]int64 {
	out := map[string]int64{}
	if t == nil {
		return out
	}
	reg := t.Registry()
	for _, name := range counterNames {
		for r := 0; r < n; r++ {
			out[name] += reg.CounterValue(name, telemetry.Rank(r))
		}
	}
	for k := simnet.EvSend; k <= simnet.EvFault; k++ {
		kind := telemetry.L("kind", k.String())
		out["simnet_bytes_total"] += reg.CounterValue("simnet_bytes_total", kind)
		for r := 0; r < n; r++ {
			out["simnet_events_total"] += reg.CounterValue("simnet_events_total", kind, telemetry.Rank(r))
		}
	}
	out["pool_hits"], out["pool_misses"] = simnet.PoolStats()
	return out
}

// counterMetrics turns the traced trials' counter deltas into per-op
// counts: world totals for counts and bytes, the mean over ranks for time. A
// counter that did not move has no per-op number, and a share of nothing is
// not a share: the layer was not on this workload's path, and the metric is
// left out rather than reported as 0.
func counterMetrics(m *measurement, w *workload, traced []*trial) {
	c := map[string]float64{}
	ops := 0
	for _, t := range traced {
		ops += t.ops
		for k, v := range t.counters {
			c[k] += float64(v)
		}
	}
	per := func(metric, counter string, scale float64) {
		if c[counter] != 0 && ops != 0 {
			m.metrics[metric] = scale * c[counter] / float64(ops)
		}
	}
	share := func(metric string, part, whole float64) {
		if whole != 0 {
			m.metrics[metric] = part / whole
		}
	}
	per("simnet.events_per_op", "simnet_events_total", 1)
	per("simnet.bytes_per_op", "simnet_bytes_total", 1)
	share("simnet.pool_hit_share", c["pool_hits"], c["pool_hits"]+c["pool_misses"])
	if w.transport == "simnet" { // the counter holds wall readings otherwise
		per("mpi.idle_vtime_us_per_op", "mpi_idle_virtual_ns_total", 1/(1000*float64(w.ranks)))
	}
	per("mpi.coll_calls_per_op", "mpi_coll_calls_total", 1)
	share("mpi.rma_fence_elided_share", c["mpi_rma_fence_elided_total"], c["mpi_rma_fence_total"])
	per("core.directives_per_op", "core_directives_total", 1)
	per("core.syncs_consolidated_per_op", "core_syncs_consolidated_total", 1)
	hits := c["core_handle_cache_hits_total"]
	share("core.handle_cache_hit_share", hits, hits+c["core_handle_cache_misses_total"])
	per("shmem.put_bytes_per_op", "shmem_put_bytes_total", 1)
	per("shmem.quiets_per_op", "shmem_quiet_total", 1)
}

// spanMetrics computes virtual self time by span category over the span
// trial's steady-state window: a span's duration minus its children's, summed
// per rank, reported for the busiest rank, per op.
func spanMetrics(m *measurement, w *workload, tr *telemetry.Tracer, t *trial) {
	if w.transport != "simnet" {
		return // spans carry wall readings there, not modelled time
	}
	busiest := map[string]model.Time{} // has a key for every category seen in the window
	for r := 0; r < tr.Ranks(); r++ {
		spans := tr.RankSpans(r)
		children := map[int64]model.Time{}
		for _, s := range spans {
			children[s.Parent] += s.Dur()
		}
		self := map[string]model.Time{}
		for _, s := range spans {
			if s.Start < t.windowV {
				continue
			}
			self[s.Cat] += max(0, s.Dur()-children[s.ID])
		}
		for cat, v := range self {
			busiest[cat] = max(busiest[cat], v)
		}
	}
	// A category the program recorded no span of has no self time to
	// report: the one-sided and collective calls record none today.
	for cat, metric := range map[string]string{
		"directive": "core.vself_us_per_op", "sync": "core.sync_vself_us_per_op",
		"mpi": "mpi.vself_us_per_op", "shmem": "shmem.vself_us_per_op",
	} {
		if v, ok := busiest[cat]; ok {
			m.metrics[metric] = ratio(v.Micros(), float64(t.ops))
		}
	}
}

// typemapMetrics times the pack and unpack of one halo edge and reports
// which path served them.
func typemapMetrics(m *measurement, in *inputs) error {
	const reps = 200000
	wire := make([]byte, 8*haloCount)
	var src any = append([]float64(nil), in.payload...)
	var dst any = make([]float64, haloCount)
	fe0, fd0, re0, rd0 := typemap.PathStats()
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := typemap.EncodeSlice(wire, src, haloCount); err != nil {
			return err
		}
	}
	enc := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := typemap.DecodeSlice(wire, dst, haloCount); err != nil {
			return err
		}
	}
	dec := time.Since(t0)
	fe1, fd1, re1, rd1 := typemap.PathStats()
	fast := float64(fe1 - fe0 + fd1 - fd0)
	m.metrics["typemap.encode_ns_per_op"] = float64(enc.Nanoseconds()) / reps
	m.metrics["typemap.decode_ns_per_op"] = float64(dec.Nanoseconds()) / reps
	m.metrics["typemap.fast_path_share"] = ratio(fast, fast+float64(re1-re0+rd1-rd0))
	return nil
}

// interleave runs the end-to-end trials of several workloads round-robin,
// each round in an order drawn from the seed, until every budget is spent.
func interleave(runs []*e2eRun, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for {
		live := 0
		for _, i := range rng.Perm(len(runs)) {
			if runs[i].done() {
				continue
			}
			live++
			if err := runs[i].step(); err != nil {
				return err
			}
		}
		if live == 0 {
			return nil
		}
	}
}
