// Command commtrace runs a directive-expressed communication pattern on a
// small simulated machine and dumps what the lowering generated: the
// recorded lowering decisions (the runtime analogue of reading the
// compiler's output), the event timeline, the communication matrix and the
// detected pattern. With -emit-trace it also writes the span trace in
// Chrome trace_event format (loadable in Perfetto / chrome://tracing), and
// with -metrics it prints the telemetry registry in Prometheus text
// exposition format.
//
// Usage:
//
//	commtrace [-n 8] [-pattern ring|evenodd|halo] [-target mpi2side|mpi1side|shmem|auto] [-count 4] [-emit-trace out.json] [-metrics]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"

	"commintent/internal/core"
	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/patterns"
	"commintent/internal/pragma"
	"commintent/internal/shmem"
	"commintent/internal/spmd"
	"commintent/internal/telemetry"
	"commintent/internal/trace"
	"commintent/internal/verify"
)

func main() {
	n := flag.Int("n", 8, "number of ranks")
	pattern := flag.String("pattern", "ring", "pattern to run: ring, evenodd or halo")
	target := flag.String("target", "mpi2side", "directive target")
	count := flag.Int("count", 4, "elements per message")
	pragmaText := flag.String("pragma", "", "run a literal directive line instead of a named pattern (buffers buf1/buf2 of <count> float64 are provided; variables rank, nprocs, prev, next are defined)")
	emitTrace := flag.String("emit-trace", "", "write the span trace to this file in Chrome trace_event JSON")
	metrics := flag.Bool("metrics", false, "print telemetry metrics in Prometheus text exposition format")
	flag.Parse()

	tgt, err := patterns.ParseTarget(*target)
	if err != nil {
		fatal(err)
	}

	w, err := spmd.NewWorld(*n, model.GeminiLike())
	if err != nil {
		fatal(err)
	}
	var tele *telemetry.Telemetry
	if *emitTrace != "" || *metrics {
		tele = telemetry.New(*n, telemetry.DefaultSpanCap)
		w.SetTelemetry(tele)
	}
	rec := w.Fabric().EnableRecorder(0)

	var mu sync.Mutex
	decisions := map[int][]core.Decision{}
	err = w.Run(func(rk *spmd.Rank) error {
		comm := mpi.World(rk)
		shm := shmem.New(rk)
		env, err := core.NewEnv(comm, shm)
		if err != nil {
			return err
		}
		defer env.Close()
		if *pragmaText != "" {
			if err := runPragma(*pragmaText, rk, env, shm, *count); err != nil {
				return err
			}
		} else if err := patterns.Run(*pattern, rk, env, shm, tgt, *count, 1); err != nil {
			return err
		}
		mu.Lock()
		decisions[rk.ID] = env.Decisions()
		mu.Unlock()
		return nil
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("pattern=%s target=%s ranks=%d count=%d\n\n", *pattern, tgt, *n, *count)

	fmt.Println("== lowering decisions ==")
	ranks := make([]int, 0, len(decisions))
	for r := range decisions {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		if len(decisions[r]) == 0 {
			continue
		}
		fmt.Printf("rank %d:\n", r)
		for _, d := range decisions[r] {
			fmt.Printf("  %s\n", d)
		}
	}

	events := rec.Events()
	fmt.Println("\n== event timeline (first 40 events) ==")
	fmt.Print(trace.Timeline(events, 40))

	m := trace.CommMatrix(events, *n)
	fmt.Println("\n== communication matrix (bytes) ==")
	fmt.Print(trace.FormatMatrix(m))
	fmt.Printf("\ndetected pattern: %s\n", trace.DetectPattern(m))

	st := trace.StatsOf(events)
	fmt.Printf("totals: %d messages, %d payload bytes, %d sync ops\n", st.Messages, st.DataBytes, st.Syncs)

	fmt.Println("\n== invariants ==")
	fmt.Println(verify.Check(events, *n, false))

	if *metrics {
		fmt.Println("\n== metrics ==")
		if err := tele.Registry().WriteProm(os.Stdout); err != nil {
			fatal(err)
		}
	}
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
		var dropped int64
		for r := 0; r < *n; r++ {
			dropped += tele.Tracer().Dropped(r)
		}
		if dropped > 0 {
			fmt.Fprintf(os.Stderr, "commtrace: warning: trace truncated, %d span(s) dropped (oldest overwritten; raise the span cap)\n", dropped)
		}
	}
}

// runPragma parses and executes a literal directive line with standard
// ring-flavoured variables and two symmetric buffers.
func runPragma(line string, rk *spmd.Rank, env *core.Env, shm *shmem.Ctx, count int) error {
	buf1 := shmem.MustAlloc[float64](shm, count)
	buf2 := shmem.MustAlloc[float64](shm, count)
	local := buf1.Local(shm)
	for i := range local {
		local[i] = float64(rk.ID*100 + i)
	}
	n := rk.N
	return pragma.ExecP2P(env, line, pragma.Env{
		Vars: map[string]int{
			"rank":   rk.ID,
			"nprocs": n,
			"prev":   (rk.ID - 1 + n) % n,
			"next":   (rk.ID + 1) % n,
		},
		Bufs: map[string]any{"buf1": buf1, "buf2": buf2},
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "commtrace:", err)
	os.Exit(1)
}
