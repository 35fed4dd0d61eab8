// Command commstat runs a directive-expressed communication pattern with
// full telemetry enabled and prints the performance picture: the metrics
// registry in Prometheus text exposition format (directive counts,
// datatype-cache hit rate, rendezvous stalls, per-rank idle time) and the
// virtual-time critical path through the run — the longest chain of
// message dependencies across ranks, with per-rank idle time and the load
// imbalance ratio.
//
// With -drop the fabric injects that probability of message loss on user
// point-to-point traffic (seeded by -fault-seed, so a run is replayable);
// the "faults" summary line then shows the typed-fault and retry counters.
//
// Every run records the fabric's events. On a terminal fault (watchdog
// cancellation, dead peer, exhausted retry budget) the post-mortem dumps —
// the failing op, its directive region, both ranks' recent event tails and
// unmatched send/recv frontiers — are rendered human-readable on stderr, and
// with -postmortem also written as JSON to the given file.
//
// With -serve the live introspection plane is exposed over HTTP
// (/metrics, /snapshot.json, /ranks, /postmortem) and the process keeps
// serving after the run so the final state can be scraped.
//
// Usage:
//
//	commstat [-n 8] [-pattern ring|evenodd|halo] [-target mpi2side|mpi1side|shmem|auto] [-count 4] [-iters 4] [-drop 0.05] [-fault-seed 1] [-json] [-emit-trace out.json] [-postmortem dump.json] [-serve :8080]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"commintent/internal/core"
	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/patterns"
	rt "commintent/internal/runtime"
	"commintent/internal/shmem"
	"commintent/internal/simnet"
	"commintent/internal/spmd"
	"commintent/internal/telemetry"
	"commintent/internal/transport"
	"commintent/internal/typemap"
)

func main() {
	n := flag.Int("n", 8, "number of ranks")
	pattern := flag.String("pattern", "ring", "pattern to run: ring, evenodd or halo")
	target := flag.String("target", "mpi2side", "directive target")
	count := flag.Int("count", 4, "elements per message")
	iters := flag.Int("iters", 4, "pattern iterations (steady-state metrics)")
	asJSON := flag.Bool("json", false, "print the metrics snapshot as JSON instead of text exposition")
	emitTrace := flag.String("emit-trace", "", "also write the span trace in Chrome trace_event JSON")
	drop := flag.Float64("drop", 0, "inject this message-loss probability on user point-to-point traffic (0 disables)")
	faultSeed := flag.Uint64("fault-seed", 1, "fault-injector seed; same seed replays the same faults (with -drop)")
	postmortem := flag.String("postmortem", "", "on a terminal fault write the post-mortem dumps as JSON to this file (\"-\" for stdout)")
	serveAddr := flag.String("serve", "", "serve the live introspection plane (/metrics /snapshot.json /ranks /postmortem) on this address and keep serving after the run")
	managed := flag.String("managed", "", "managed-runtime config for this run: off, on, full, or a comma list of coalesce,autosync (overrides $"+rt.EnvVar+")")
	profile := flag.String("profile", "gemini", "machine profile: gemini, ethernet, torus or dragonfly")
	profileFile := flag.String("profile-file", "", "load a custom machine profile from a JSON file (overrides -profile)")
	transportSel := flag.String("transport", "", "two-sided transport: simnet (virtual time) or shm (parallel, wall time); overrides the profile's transport field ($"+transport.EnvVar+" still wins)")
	flag.Parse()

	if *managed != "" {
		defer rt.Override(rt.Parse(*managed))()
	}

	tgt, err := patterns.ParseTarget(*target)
	if err != nil {
		fatal(err)
	}

	var prof *model.Profile
	if *profileFile != "" {
		f, err := os.Open(*profileFile)
		if err != nil {
			fatal(err)
		}
		prof, err = model.ReadProfile(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		switch *profile {
		case "gemini":
			prof = model.GeminiLike()
		case "ethernet":
			prof = model.EthernetLike()
		case "torus":
			prof = model.GeminiLike().WithTorus(2, 2, 2, 4, 300*model.Nanosecond, 200*model.Nanosecond)
		case "dragonfly":
			prof = model.GeminiLike().WithDragonfly(
				model.Dragonfly{Groups: 2, RoutersPerGroup: 2, NodesPerRouter: 2, RanksPerNode: 2, GlobalHopWeight: 3},
				350*model.Nanosecond, 220*model.Nanosecond)
		default:
			fatal(fmt.Errorf("unknown profile %q", *profile))
		}
	}

	if *transportSel != "" {
		prof.Transport = *transportSel
	}

	w, err := spmd.NewWorld(*n, prof)
	if err != nil {
		fatal(err)
	}
	tele := telemetry.New(*n, telemetry.DefaultSpanCap)
	w.SetTelemetry(tele)
	// One unbounded recorder keeps the whole run: the critical path and the
	// hop histogram read it after the run, /ranks reads its per-rank counts
	// live, and post-mortem dumps take a bounded tail of it.
	rec := w.Fabric().EnableRecorder(0)
	if *drop > 0 {
		cfg := simnet.FaultConfig{Seed: *faultSeed, Drop: *drop}
		cfg.TagSpan, cfg.UserSpan = mpi.P2PFaultScope()
		w.Fabric().SetFaults(cfg)
	}
	var srv *telemetry.Server
	if *serveAddr != "" {
		srv, err = telemetry.Serve(*serveAddr, tele, w.Fabric())
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "commstat: serving introspection plane on http://%s\n", srv.Addr())
	}

	decisions := make([][]core.Decision, *n)
	err = w.Run(func(rk *spmd.Rank) error {
		comm := mpi.World(rk)
		shm := shmem.New(rk)
		env, err := core.NewEnv(comm, shm)
		if err != nil {
			return err
		}
		// Deferred first so it runs last, after Close has logged its flush.
		defer func() { decisions[rk.ID] = env.Decisions() }()
		defer env.Close()
		return patterns.Run(*pattern, rk, env, shm, tgt, *count, *iters)
	})
	if err != nil {
		renderPostmortems(w.Fabric(), *postmortem)
		fatal(err)
	}
	renderPostmortems(w.Fabric(), *postmortem)

	fmt.Printf("pattern=%s target=%s ranks=%d count=%d iters=%d profile=%s\n\n", *pattern, tgt, *n, *count, *iters, prof.Name)

	reg := tele.Registry()
	fmt.Println("== metrics ==")
	if *asJSON {
		b, err := reg.SnapshotJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		fmt.Println()
	} else if err := reg.WriteProm(os.Stdout); err != nil {
		fatal(err)
	}

	hits := sumCounter(reg, "core_datatype_cache_hits_total", *n)
	misses := sumCounter(reg, "core_datatype_cache_misses_total", *n)
	if hits+misses > 0 {
		fmt.Printf("\ndatatype cache: %d hits / %d misses (hit rate %.1f%%)\n",
			hits, misses, 100*float64(hits)/float64(hits+misses))
	} else {
		fmt.Printf("\ndatatype cache: no lookups\n")
	}

	ph, pm := transport.PoolStats()
	fmt.Printf("payload pool: %d hits / %d misses (hit rate %s)\n", ph, pm, rate(ph, ph+pm))
	bg, bp := simnet.BarrierStats()
	perGen := "n/a"
	if bg > 0 {
		perGen = fmt.Sprintf("%.2f", float64(bp)/float64(bg))
	}
	fmt.Printf("barrier: %d generation(s), %d parked wait(s) (parks per generation %s)\n", bg, bp, perGen)
	fmt.Printf("transport: %d parked wait(s)\n", transport.GateParks())
	fe, fd, re, rd := typemap.PathStats()
	fast, slow := fe+fd, re+rd
	fmt.Printf("pack/unpack: %d zero-copy / %d reflection (fast-path share %s)\n",
		fast, slow, rate(fast, fast+slow))

	// One-sided data plane: window traffic, fence elision, symmetric-heap
	// traffic and the directive layer's handle cache.
	rmaPut := sumCounter(reg, "mpi_rma_put_bytes_total", *n)
	rmaGet := sumCounter(reg, "mpi_rma_get_bytes_total", *n)
	fences := sumCounter(reg, "mpi_rma_fence_total", *n)
	elided := sumCounter(reg, "mpi_rma_fence_elided_total", *n)
	fmt.Printf("one-sided: %d bytes put, %d bytes got, %d fences (%d elided, elision rate %s)\n",
		rmaPut, rmaGet, fences, elided, rate(elided, fences))
	shPut := sumCounter(reg, "shmem_put_bytes_total", *n)
	shGet := sumCounter(reg, "shmem_get_bytes_total", *n)
	if shPut+shGet > 0 {
		fmt.Printf("symmetric heap: %d bytes put, %d bytes got, %d atomics; %d quiets (%d elided)\n",
			shPut, shGet, sumCounter(reg, "shmem_amo_total", *n),
			sumCounter(reg, "shmem_quiet_total", *n), sumCounter(reg, "shmem_quiet_elided_total", *n))
	}
	rh, rm := sumCounter(reg, "core_handle_cache_hits_total", *n), sumCounter(reg, "core_handle_cache_misses_total", *n)
	fmt.Printf("handle cache: %d hits / %d misses (hit rate %s)\n", rh, rm, rate(rh, rh+rm))

	// Robustness picture: typed faults observed by the MPI layer and the
	// directive layer's recovery actions. All zeros on a healthy fabric.
	fmt.Printf("faults: %d message(s) lost, %d dead-peer, %d deadline; recovery: %d re-send(s), %d give-up(s)\n",
		sumCounter(reg, "mpi_fault_message_lost_total", *n),
		sumCounter(reg, "mpi_fault_peer_dead_total", *n),
		sumCounter(reg, "mpi_fault_deadline_total", *n),
		sumCounter(reg, "core_p2p_retries_total", *n),
		sumCounter(reg, "core_p2p_giveups_total", *n))

	if calls := sumCounter(reg, "mpi_coll_calls_total", *n); calls > 0 {
		fmt.Printf("collectives: %d calls\n", calls)
	}
	events := rec.Events()
	printTopology(prof, events, *n)
	printTransport(w, *n)
	printRuntimeDecisions(reg, decisions, *n)

	if bc := sumCounter(reg, "mpi_barrier_calls_total", *n); bc > 0 {
		fmt.Printf("barriers: %d calls, %v total blocked virtual time\n",
			bc, time.Duration(sumCounter(reg, "mpi_barrier_idle_virtual_ns_total", *n)))
	}
	hw := 0
	for r := 0; r < *n; r++ {
		if h := w.Fabric().Endpoint(r).UnexpectedHighWatermark(); h > hw {
			hw = h
		}
	}
	fmt.Printf("unexpected-message queue high watermark: %d\n", hw)

	// Wait-latency quantiles, interpolated from the histograms' log2
	// buckets — the long-tail view the mean in the registry hides.
	printed := false
	for r := 0; r < *n; r++ {
		h := reg.FindHistogram("mpi_wait_virtual_ns", telemetry.Rank(r))
		if h == nil || h.Count() == 0 {
			continue
		}
		if !printed {
			fmt.Println("\n== wait quantiles (virtual, per rank) ==")
			printed = true
		}
		fmt.Printf("rank %3d: n=%-6d p50=%-12v p95=%-12v p99=%v\n", r, h.Count(),
			time.Duration(h.Quantile(0.50)), time.Duration(h.Quantile(0.95)), time.Duration(h.Quantile(0.99)))
	}

	fmt.Println("\n== critical path ==")
	fmt.Print(telemetry.CriticalPath(events, *n).StringWithLabels(w.Fabric().RegionLabel))

	if *emitTrace != "" {
		f, err := os.Create(*emitTrace)
		if err != nil {
			fatal(err)
		}
		if err := tele.Tracer().WriteChromeTrace(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote Chrome trace to %s (open in Perfetto or chrome://tracing)\n", *emitTrace)
		warnDropped(tele, *n)
	}

	if srv != nil {
		fmt.Fprintf(os.Stderr, "commstat: run complete; still serving on http://%s (Ctrl-C to exit)\n", srv.Addr())
		select {}
	}
}

// printTopology renders the placement picture: the active topology and the
// hop-distance histogram of the traffic the run actually put on the wire —
// every send, put and get bucketed by the hop distance between its two
// endpoints under the profile's topology. Every line is n/a-safe on a flat
// profile.
func printTopology(prof *model.Profile, events []simnet.Event, n int) {
	fmt.Printf("\n== topology ==\n")
	if prof.Topo == nil {
		fmt.Println("topology: flat (single crossbar); hop histogram: n/a")
		return
	}
	size := 2
	if h, ok := prof.Topo.(model.Hierarchical); ok {
		nodes := make(map[int]struct{})
		for r := 0; r < n; r++ {
			nodes[h.NodeOf(r)] = struct{}{}
		}
		fmt.Printf("topology: %s (%d node(s) occupied, diameter %d)\n",
			prof.Topo.Name(), len(nodes), h.Diameter())
		size = h.Diameter() + 1
	} else {
		fmt.Printf("topology: %s\n", prof.Topo.Name())
	}
	msgs, bytes := make([]int64, size), make([]int64, size)
	for _, e := range events {
		switch e.Kind {
		case simnet.EvSend, simnet.EvPut, simnet.EvGet:
		default:
			continue
		}
		if e.Peer < 0 || e.Peer >= n {
			continue
		}
		d := prof.Topo.Hops(e.Rank, e.Peer)
		if d < 0 {
			continue
		}
		d = min(d, size-1)
		msgs[d]++
		bytes[d] += int64(e.Bytes)
	}
	fmt.Println("hop-distance histogram (observed wire traffic):")
	seen := false
	for d, m := range msgs {
		if m == 0 {
			continue
		}
		seen = true
		fmt.Printf("  %2d hop(s): %8d message(s) %12d byte(s)\n", d, m, bytes[d])
	}
	if !seen {
		fmt.Println("  (no traffic observed)")
	}
}

// printTransport renders the data-plane picture: which two-sided transport
// carried the run, whether the duration-valued histograms hold modelled
// virtual time or measured wall time, and — on the shared-memory transport —
// the mailbox and unexpected-queue occupancy high-watermarks per port.
// Every line is n/a-safe on simnet, where the mailboxes do not exist.
func printTransport(w *spmd.World, n int) {
	fmt.Printf("\n== transport ==\n")
	kind := w.Transport()
	fmt.Printf("transport: %s", kind)
	if kind == transport.SharedMem {
		fmt.Printf(" (ranks parallel across %d P(s), wall clock)\n", runtime.GOMAXPROCS(0))
	} else {
		fmt.Println(" (deterministic virtual time, cooperative schedule)")
	}
	src := "virtual (canonical cost-model replay)"
	if kind == transport.SharedMem {
		src = "measured (monotonic wall clock)"
	}
	for _, h := range []string{"mpi_wait_virtual_ns", "mpi_wait_virtual_ns_by_region", "core_region_virtual_ns", "mpi_barrier_idle_virtual_ns_total"} {
		fmt.Printf("duration source %-34s %s\n", h+":", src)
	}
	net := w.ShmNet()
	if net == nil {
		fmt.Println("mailbox high-watermarks: n/a (simnet matches inside the fabric)")
		return
	}
	var maxMail, maxUnexp, sumMail int
	for r := 0; r < n; r++ {
		p := net.Port(r)
		if hw := p.MailboxHighWatermark(); hw > maxMail {
			maxMail = hw
		}
		sumMail += p.MailboxHighWatermark()
		if hw := p.UnexpectedHighWatermark(); hw > maxUnexp {
			maxUnexp = hw
		}
	}
	avg := "n/a"
	if n > 0 {
		avg = fmt.Sprintf("%.1f", float64(sumMail)/float64(n))
	}
	fmt.Printf("mailbox drain high-watermark: max %d message(s)/drain, mean %s across %d port(s)\n", maxMail, avg, n)
	fmt.Printf("unexpected-queue high-watermark (transport view): %d message(s)\n", maxUnexp)
}

// printRuntimeDecisions renders the managed runtime's adaptive picture:
// what the active config is, what coalescing batched and saved, and the
// runtime's decisions themselves — each rank's coalesce and autosync entries
// from its decision log, in the order the rank made them, with the evidence
// they rest on. All rates are n/a-safe — with the runtime off every line
// prints zeros rather than NaN.
func printRuntimeDecisions(reg *telemetry.Registry, decisions [][]core.Decision, n int) {
	fmt.Printf("\n== runtime decisions ==\n")
	fmt.Printf("managed runtime: %s\n", rt.Active())

	batches := sumCounter(reg, "runtime_coalesce_batches_total", n)
	parts := sumCounter(reg, "runtime_coalesce_parts_total", n)
	saved := sumCounter(reg, "runtime_coalesce_msgs_saved_total", n)
	fmt.Printf("coalesce: %d small message(s) packed into %d batch(es), %d wire message(s) saved (save rate %s)\n",
		parts, batches, saved, rate(saved, parts))
	fmt.Printf("coalesce bytes: %d payload + %d header on the wire; %d part(s) delivered from stash\n",
		sumCounter(reg, "runtime_coalesce_payload_bytes_total", n),
		sumCounter(reg, "runtime_coalesce_header_bytes_total", n),
		sumCounter(reg, "runtime_coalesce_stash_parts_total", n))

	// Parts-per-batch distribution: the histogram buckets are log2, so the
	// quantiles are the interpolated batch sizes the run actually shipped.
	printed := false
	for r := 0; r < n; r++ {
		h := reg.FindHistogram("runtime_coalesce_batch_parts", telemetry.Rank(r))
		if h == nil || h.Count() == 0 {
			continue
		}
		if !printed {
			fmt.Println("batch sizes (parts per batch, per rank):")
			printed = true
		}
		fmt.Printf("  rank %3d: n=%-6d p50=%-4d p95=%-4d max~%d\n", r, h.Count(),
			int64(h.Quantile(0.50)), int64(h.Quantile(0.95)), int64(h.Quantile(1)))
	}

	var managed []string
	for rank, ds := range decisions {
		for _, d := range ds {
			if d.Kind == "coalesce" || d.Kind == "autosync" {
				managed = append(managed, fmt.Sprintf("rank %d %s", rank, d))
			}
		}
	}
	if len(managed) == 0 {
		fmt.Println("decision trace: empty")
		return
	}
	fmt.Printf("decision trace: %d decision(s)\n", len(managed))
	const maxShown = 20
	for i, d := range managed {
		if i == maxShown {
			fmt.Printf("  ... %d more\n", len(managed)-maxShown)
			break
		}
		fmt.Printf("  %s\n", d)
	}
}

// renderPostmortems writes any post-mortem dumps as JSON to path ("-" for
// stdout) and renders them human-readable on stderr. No-op when nothing
// failed.
func renderPostmortems(f *simnet.Fabric, path string) {
	pms := f.Postmortems()
	if len(pms) == 0 {
		return
	}
	for _, pm := range pms {
		fmt.Fprint(os.Stderr, pm.String())
	}
	if path == "" {
		return
	}
	b, err := json.MarshalIndent(pms, "", "  ")
	if err != nil {
		fatal(err)
	}
	b = append(b, '\n')
	if path == "-" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "commstat: wrote %d post-mortem dump(s) to %s\n", len(pms), path)
}

// warnDropped flags a truncated Chrome trace: spans past the per-rank ring
// capacity were overwritten, so the export is missing the run's beginning.
func warnDropped(tele *telemetry.Telemetry, n int) {
	var dropped int64
	for r := 0; r < n; r++ {
		dropped += tele.Tracer().Dropped(r)
	}
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "commstat: warning: trace truncated, %d span(s) dropped (oldest overwritten; raise the span cap)\n", dropped)
	}
}

// rate formats num out of den as a percentage; a zero denominator prints
// "n/a" instead of NaN.
func rate(num, den int64) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(num)/float64(den))
}

// sumCounter totals a per-rank counter series across all ranks.
func sumCounter(reg *telemetry.Registry, name string, n int) int64 {
	var total int64
	for r := 0; r < n; r++ {
		total += reg.CounterValue(name, telemetry.Rank(r))
	}
	return total
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "commstat:", err)
	os.Exit(1)
}
