// Package spmd is the SPMD execution harness: it launches N ranks as
// goroutines over one simulated fabric, gives each a virtual clock and a
// deterministic per-rank PRNG, captures panics, and aggregates errors.
//
// It mirrors the role of the job launcher plus the parts of an MPI runtime
// that exist before MPI_Init returns.
package spmd

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"time"

	"commintent/internal/model"
	"commintent/internal/shmtransport"
	"commintent/internal/simnet"
	"commintent/internal/telemetry"
	"commintent/internal/transport"
)

// World is one simulated machine shared by all ranks of a run: the fabric,
// the cost profile, and a registry for cross-rank shared structures (the
// SHMEM symmetric table, communicator split scratchpads, RMA windows).
type World struct {
	fabric *simnet.Fabric
	prof   *model.Profile
	tele   *telemetry.Telemetry

	// kind selects the two-sided data plane (profile field, overridden by
	// COMMINTENT_TRANSPORT). The fabric exists in both modes — it carries
	// the clocks, barriers, region interning, the event stream and the
	// post-mortem store — but on the shared-memory transport messages move
	// through shmNet and the endpoint clocks run in wall mode.
	kind   transport.Kind
	shmNet *shmtransport.Net

	sharedMu sync.Mutex
	shared   map[string]any
}

// NewWorld creates a world of n ranks governed by prof.
func NewWorld(n int, prof *model.Profile) (*World, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("spmd: world size %d", n)
	}
	kind, err := transport.Select(prof.Transport)
	if err != nil {
		return nil, fmt.Errorf("spmd: %w", err)
	}
	// On a hierarchical topology the world barrier groups check-ins by node
	// so contention scales with node count, not rank count. Virtual time is
	// unchanged either way (the barrier is a max-reduction regardless of
	// combining order), so golden-pinned runs are unaffected.
	var nodeOf func(int) int
	if h, ok := prof.Topo.(model.Hierarchical); ok {
		nodeOf = h.NodeOf
	}
	w := &World{
		fabric: simnet.NewFabricTopo(n, nodeOf),
		prof:   prof,
		kind:   kind,
		shared: make(map[string]any),
	}
	if kind == transport.SharedMem {
		w.shmNet = shmtransport.New(n)
		// One shared epoch: every rank's clock reads the same monotonic
		// timeline, so cross-rank timestamps and barrier max-folds stay
		// comparable. Must happen before any rank goroutine starts.
		epoch := time.Now()
		for i := 0; i < n; i++ {
			w.fabric.Endpoint(i).Clock().SetWall(epoch)
		}
	}
	return w, nil
}

// Transport reports the selected two-sided data plane.
func (w *World) Transport() transport.Kind { return w.kind }

// ShmNet returns the shared-memory interconnect (nil on simnet). Exposed
// for transport introspection (mailbox occupancy watermarks in commstat).
func (w *World) ShmNet() *shmtransport.Net { return w.shmNet }

// Port returns rank r's two-sided transport port.
func (w *World) Port(r int) transport.Port {
	if w.shmNet != nil {
		return w.shmNet.Port(r)
	}
	return w.fabric.Endpoint(r)
}

// Size reports the number of ranks.
func (w *World) Size() int { return w.fabric.Size() }

// Fabric returns the underlying simulated fabric.
func (w *World) Fabric() *simnet.Fabric { return w.fabric }

// Profile returns the cost model in force.
func (w *World) Profile() *model.Profile { return w.prof }

// SetTelemetry attaches a telemetry instance to the world and binds it to
// the fabric's event stream. Call before Run so no events are missed; the
// substrates pick their metric handles up from here. A world without
// telemetry (the default) runs every instrumented path as a near-no-op.
func (w *World) SetTelemetry(t *telemetry.Telemetry) {
	w.tele = t
	t.BindFabric(w.fabric)
}

// Telemetry returns the world's telemetry (nil when disabled).
func (w *World) Telemetry() *telemetry.Telemetry { return w.tele }

// Shared returns the world-shared value stored under key, creating it with
// mk on first use. All ranks asking for the same key observe the same value.
func (w *World) Shared(key string, mk func() any) any {
	w.sharedMu.Lock()
	defer w.sharedMu.Unlock()
	v, ok := w.shared[key]
	if !ok {
		v = mk()
		w.shared[key] = v
	}
	return v
}

// MaxVirtualTime reports the maximum virtual clock over all ranks. Only
// meaningful while no rank goroutine is running (e.g. after Run returns).
func (w *World) MaxVirtualTime() model.Time {
	var mx model.Time
	for i := 0; i < w.Size(); i++ {
		if v := w.fabric.Endpoint(i).Clock().Now(); v > mx {
			mx = v
		}
	}
	return mx
}

// Rank is the per-rank execution context handed to the SPMD body.
type Rank struct {
	ID int
	N  int

	world *World
	ep    *simnet.Endpoint
	rng   *rand.Rand // seeded on first use: few rank bodies draw from it
}

// World returns the world this rank belongs to.
func (r *Rank) World() *World { return r.world }

// Endpoint returns the rank's fabric endpoint.
func (r *Rank) Endpoint() *simnet.Endpoint { return r.ep }

// Port returns the rank's two-sided transport port.
func (r *Rank) Port() transport.Port { return r.world.Port(r.ID) }

// Profile returns the cost model in force.
func (r *Rank) Profile() *model.Profile { return r.world.prof }

// Clock returns the rank's virtual clock.
func (r *Rank) Clock() *model.Clock { return r.ep.Clock() }

// Now reports the rank's current virtual time.
func (r *Rank) Now() model.Time { return r.ep.Clock().Now() }

// Rand returns the rank's deterministic PRNG (seeded from the rank id).
// Only the rank's own goroutine may call it.
func (r *Rank) Rand() *rand.Rand {
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(int64(r.ID)*2654435761 + 12345))
	}
	return r.rng
}

// Compute charges d of local computation to the rank's virtual clock. It is
// how application kernels account for their (synthetic) work.
func (r *Rank) Compute(d model.Time) {
	r.ep.Clock().Advance(d)
}

// PanicError wraps a panic that escaped a rank body.
type PanicError struct {
	Rank  int
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("spmd: rank %d panicked: %v\n%s", e.Rank, e.Value, e.Stack)
}

// Run executes body once per rank, concurrently, over a fresh world of n
// ranks, and returns the joined errors of all ranks (nil if all succeeded).
func Run(n int, prof *model.Profile, body func(*Rank) error) error {
	w, err := NewWorld(n, prof)
	if err != nil {
		return err
	}
	return w.Run(body)
}

// Run executes body once per rank over this world. Virtual clocks continue
// from their previous values, so a world can host several phases and
// measure each.
func (w *World) Run(body func(*Rank) error) error {
	n := w.Size()
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		rk := &Rank{
			ID:    i,
			N:     n,
			world: w,
			ep:    w.fabric.Endpoint(i),
		}
		go func(rk *Rank) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					errs[rk.ID] = &PanicError{Rank: rk.ID, Value: v, Stack: string(debug.Stack())}
				}
			}()
			errs[rk.ID] = body(rk)
		}(rk)
	}
	wg.Wait()
	// The ranks have stopped: publish the pool hits their ports have not.
	for i := 0; i < n; i++ {
		w.Port(i).Headers().FlushPoolStats()
	}
	var joined []error
	for i, e := range errs {
		if e != nil {
			joined = append(joined, fmt.Errorf("rank %d: %w", i, e))
		}
	}
	return errors.Join(joined...)
}
