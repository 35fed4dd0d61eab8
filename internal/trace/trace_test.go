package trace_test

import (
	"strings"
	"sync"
	"testing"

	"commintent/internal/core"
	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/shmem"
	"commintent/internal/simnet"
	"commintent/internal/spmd"
	"commintent/internal/trace"
)

// runTraced executes an SPMD body over a fresh world with an unbounded
// recorder and returns every event it recorded.
func runTraced(t *testing.T, n int, body func(*spmd.Rank) error) []simnet.Event {
	t.Helper()
	w, err := spmd.NewWorld(n, model.Uniform(10))
	if err != nil {
		t.Fatal(err)
	}
	rec := w.Fabric().EnableRecorder(0)
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	return rec.Events()
}

func TestStatsAndMatrix(t *testing.T) {
	const n = 4
	evs := runTraced(t, n, func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		next := (rk.ID + 1) % n
		prev := (rk.ID - 1 + n) % n
		in := make([]float64, 2)
		_, err := c.Sendrecv([]float64{1, 2}, 2, mpi.Float64, next, 0, in, 2, mpi.Float64, prev, 0)
		return err
	})
	st := trace.StatsOf(evs)
	if st.Messages != n {
		t.Errorf("messages = %d, want %d", st.Messages, n)
	}
	if st.DataBytes != int64(n*16) {
		t.Errorf("bytes = %d, want %d", st.DataBytes, n*16)
	}
	m := trace.CommMatrix(evs, n)
	for s := 0; s < n; s++ {
		if m[s][(s+1)%n] != 16 {
			t.Errorf("matrix[%d][%d] = %d", s, (s+1)%n, m[s][(s+1)%n])
		}
	}
	if got := trace.DetectPattern(m); got != trace.PatternRing {
		t.Errorf("pattern = %v, want ring", got)
	}
}

func TestDetectPatterns(t *testing.T) {
	mk := func(n int, edges [][2]int) [][]int64 {
		m := make([][]int64, n)
		for i := range m {
			m[i] = make([]int64, n)
		}
		for _, e := range edges {
			m[e[0]][e[1]] = 8
		}
		return m
	}
	cases := []struct {
		name string
		m    [][]int64
		want trace.Pattern
	}{
		{"empty", mk(4, nil), trace.PatternNone},
		{"ring", mk(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}), trace.PatternRing},
		{"even-odd", mk(6, [][2]int{{0, 1}, {2, 3}, {4, 5}}), trace.PatternEvenOdd},
		{"star", mk(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {3, 0}}), trace.PatternStar},
		{"neighbor", mk(4, [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 3}, {3, 2}}), trace.PatternNeighbor},
		{"irregular", mk(5, [][2]int{{0, 2}, {2, 4}, {1, 3}}), trace.PatternOther},
	}
	for _, tc := range cases {
		if got := trace.DetectPattern(tc.m); got != tc.want {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestWLLSMSSetEvecIsStarPattern(t *testing.T) {
	// Within one LSMS group, the spin transfer is privileged->workers: a
	// star centred on the privileged rank.
	const n = 5
	evs := runTraced(t, n, func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		if rk.ID == 0 {
			reqs := make([]*mpi.Request, 0, n-1)
			for w := 1; w < n; w++ {
				r, err := c.Isend([]float64{1, 2, 3}, 3, mpi.Float64, w, 0)
				if err != nil {
					return err
				}
				reqs = append(reqs, r)
			}
			_, err := c.Waitall(reqs)
			return err
		}
		buf := make([]float64, 3)
		_, err := c.Recv(buf, 3, mpi.Float64, 0, 0)
		return err
	})
	if got := trace.DetectPattern(trace.CommMatrix(evs, n)); got != trace.PatternStar {
		t.Errorf("pattern = %v, want star", got)
	}
}

func TestTimelineAndFormat(t *testing.T) {
	evs := runTraced(t, 2, func(rk *spmd.Rank) error {
		shm := shmem.New(rk)
		env, err := core.NewEnv(mpi.World(rk), shm)
		if err != nil {
			return err
		}
		defer env.Close()
		buf := shmem.MustAlloc[float64](shm, 2)
		return env.P2P(
			core.Sender(0), core.Receiver(1),
			core.SendWhen(rk.ID == 0), core.ReceiveWhen(rk.ID == 1),
			core.SBuf(buf), core.RBuf(buf),
		)
	})
	tl := trace.Timeline(evs, 0)
	if !strings.Contains(tl, "send") || !strings.Contains(tl, "recv-post") {
		t.Errorf("timeline missing ops:\n%s", tl)
	}
	// Rank filter.
	tl0 := trace.Timeline(evs, 0, 0)
	if strings.Contains(tl0, "rank   1") {
		t.Errorf("rank filter leaked rank 1 events:\n%s", tl0)
	}
	fm := trace.FormatMatrix(trace.CommMatrix(evs, 2))
	if !strings.Contains(fm, "->1") {
		t.Errorf("matrix format:\n%s", fm)
	}
	// Limit.
	if lines := strings.Count(trace.Timeline(evs, 2), "\n"); lines > 2 {
		t.Errorf("limit ignored: %d lines", lines)
	}
}

func TestSyncCounting(t *testing.T) {
	evs := runTraced(t, 2, func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		if rk.ID == 0 {
			r, err := c.Isend([]int32{1}, 1, mpi.Int32, 1, 0)
			if err != nil {
				return err
			}
			_, err = c.Wait(r)
			return err
		}
		buf := make([]int32, 1)
		r, err := c.Irecv(buf, 1, mpi.Int32, 0, 0)
		if err != nil {
			return err
		}
		_, err = c.Waitall([]*mpi.Request{r})
		return err
	})
	st := trace.StatsOf(evs)
	if st.PerKind[simnet.EvWait] != 1 {
		t.Errorf("wait events = %d", st.PerKind[simnet.EvWait])
	}
	if st.PerKind[simnet.EvSync] != 1 {
		t.Errorf("sync events = %d", st.PerKind[simnet.EvSync])
	}
	if st.Syncs != 2 {
		t.Errorf("syncs = %d", st.Syncs)
	}
}

// TestCollectorConcurrentAdd: ranks emitting concurrently into one unbounded
// recorder lose nothing, and each rank's events come back in the order that
// rank emitted them.
func TestCollectorConcurrentAdd(t *testing.T) {
	const n, each = 8, 500
	f := simnet.NewFabric(n)
	rec := f.EnableRecorder(0)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				f.Emit(simnet.Event{Rank: r, Kind: simnet.EvSend, Peer: 0, Tag: i, Bytes: 8})
			}
		}(r)
	}
	wg.Wait()
	evs := rec.Events()
	if len(evs) != n*each {
		t.Fatalf("events = %d, want %d", len(evs), n*each)
	}
	for i, e := range evs {
		if e.Rank != i/each || e.Tag != i%each {
			t.Fatalf("event %d is rank %d tag %d, want rank %d tag %d", i, e.Rank, e.Tag, i/each, i%each)
		}
	}
	if st := trace.StatsOf(evs); st.Messages != n*each {
		t.Fatalf("messages = %d", st.Messages)
	}
}

// TestCollectorOutOfRangeRankDoesNotPanic: the analyses skip events naming a
// rank or peer outside the world instead of indexing with it.
func TestCollectorOutOfRangeRankDoesNotPanic(t *testing.T) {
	evs := []simnet.Event{
		{Rank: -1, Kind: simnet.EvSend, Peer: 0, Bytes: 8},
		{Rank: 99, Kind: simnet.EvSend, Peer: 0, Bytes: 8},
		{Rank: 0, Kind: simnet.EvPut, Peer: 99, Bytes: 8},
	}
	if st := trace.StatsOf(evs); st.Messages != 3 {
		t.Fatalf("messages = %d, want 3", st.Messages)
	}
	for s, row := range trace.CommMatrix(evs, 2) {
		for d, b := range row {
			if b != 0 {
				t.Errorf("matrix[%d][%d] = %d from out-of-range events", s, d, b)
			}
		}
	}
}

func TestStatsCountsGetsAndRecvBytes(t *testing.T) {
	st := trace.StatsOf([]simnet.Event{
		{Rank: 0, Kind: simnet.EvSend, Peer: 1, Bytes: 100},
		{Rank: 1, Kind: simnet.EvRecvComplete, Peer: 0, Bytes: 100},
		{Rank: 0, Kind: simnet.EvPut, Peer: 1, Bytes: 30},
		{Rank: 1, Kind: simnet.EvGet, Peer: 0, Bytes: 25},
	})
	if st.Messages != 3 {
		t.Errorf("messages = %d, want 3 (send+put+get)", st.Messages)
	}
	if st.DataBytes != 155 {
		t.Errorf("data bytes = %d, want 155", st.DataBytes)
	}
	if st.RecvBytes != 100 {
		t.Errorf("recv bytes = %d, want 100", st.RecvBytes)
	}
}

func TestStatsGetsFromLiveRun(t *testing.T) {
	// The delivered two-sided payload of a real run shows up in RecvBytes.
	const n = 2
	evs := runTraced(t, n, func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		if rk.ID == 0 {
			r, err := c.Isend([]float64{1, 2}, 2, mpi.Float64, 1, 0)
			if err != nil {
				return err
			}
			_, err = c.Wait(r)
			return err
		}
		buf := make([]float64, 2)
		_, err := c.Recv(buf, 2, mpi.Float64, 0, 0)
		return err
	})
	if st := trace.StatsOf(evs); st.RecvBytes != 16 {
		t.Errorf("recv bytes = %d, want 16", st.RecvBytes)
	}
}

func TestDetectPatternEdgeCases(t *testing.T) {
	mk := func(n int, edges [][2]int) [][]int64 {
		m := make([][]int64, n)
		for i := range m {
			m[i] = make([]int64, n)
		}
		for _, e := range edges {
			m[e[0]][e[1]] = 8
		}
		return m
	}
	cases := []struct {
		name string
		m    [][]int64
		want trace.Pattern
	}{
		// A single rank talking to itself is the degenerate ring.
		{"n1-self", mk(1, [][2]int{{0, 0}}), trace.PatternRing},
		{"n1-empty", mk(1, nil), trace.PatternNone},
		// n=2 bidirectional satisfies both ring and star; ring wins by
		// check order (documented tie-break).
		{"n2-bidirectional", mk(2, [][2]int{{0, 1}, {1, 0}}), trace.PatternRing},
		{"n2-oneway", mk(2, [][2]int{{0, 1}}), trace.PatternEvenOdd},
		// Non-zero n with an all-zero matrix is no pattern at all.
		{"empty-4", mk(4, nil), trace.PatternNone},
		{"empty-0", mk(0, nil), trace.PatternNone},
		// Asymmetric neighbour exchange: adjacent edges but 3->2 missing,
		// so the bidirectional-neighbour rule must NOT fire.
		{"asymmetric-neighbor", mk(4, [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 3}}), trace.PatternOther},
	}
	for _, tc := range cases {
		if got := trace.DetectPattern(tc.m); got != tc.want {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
		}
	}
}
