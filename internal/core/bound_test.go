package core_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"commintent/internal/core"
	"commintent/internal/model"
	"commintent/internal/mpi"
	rt "commintent/internal/runtime"
	"commintent/internal/shmem"
	"commintent/internal/simnet"
	"commintent/internal/spmd"
	"commintent/internal/telemetry"
)

// The replay property's programs. A program is data drawn from a seed — a
// set of comm_parameters regions and comm_p2p directives, and a schedule of
// which directives execute under which region at each step — so that every
// rank of a world, and the bound and the fresh run of one seed, execute the
// same thing. Directives and regions come in families by the kind of buffer
// they move, and any directive may execute under any region of its family:
// that is how a bound comm_p2p comes to run under a region other than the
// one it was first lowered in.

// Buffer table layout, per rank. The symmetric arrays only exist in a world
// with a SHMEM context.
const (
	symSmall = 0  // 2 x *shmem.Slice[float64], 16 elements: 128 B, auto -> SHMEM
	symLarge = 2  // 2 x *shmem.Slice[float64], 40 elements: 320 B, auto -> MPI
	prims    = 4  // 4 x []float64, 16 elements
	ptrs     = 8  // 4 x *cell
	slices   = 12 // 4 x []cell, 4 elements
	numBufs  = 16
)

type family struct {
	src, dst []int         // buffer table indices a transfer may read / write
	targets  []core.Target // what the family's regions may assert
}

func families(haveShm bool) []family {
	twoSided := []core.Target{core.TargetDefault, core.TargetMPI2Side, core.TargetAuto}
	fams := []family{
		{src: []int{prims, prims + 1, prims + 2, prims + 3}, dst: []int{prims, prims + 1, prims + 2, prims + 3},
			targets: append([]core.Target{core.TargetMPI1Side}, twoSided...)},
		{src: []int{ptrs, ptrs + 1, ptrs + 2, ptrs + 3}, dst: []int{ptrs, ptrs + 1, ptrs + 2, ptrs + 3}, targets: twoSided},
		{src: []int{slices, slices + 1, slices + 2, slices + 3}, dst: []int{slices, slices + 1, slices + 2, slices + 3}, targets: twoSided},
	}
	if !haveShm {
		// A fault-injecting world: the injector drops two-sided user
		// traffic, which is what the retry path re-sends.
		fams[0].targets = twoSided
		return fams
	}
	every := []core.Target{core.TargetDefault, core.TargetMPI2Side, core.TargetMPI1Side, core.TargetSHMEM, core.TargetAuto}
	return append(fams,
		family{src: []int{symSmall, symSmall + 1, prims, prims + 1}, dst: []int{symSmall, symSmall + 1}, targets: every},
		family{src: []int{symLarge, symLarge + 1, prims + 2}, dst: []int{symLarge, symLarge + 1}, targets: every},
	)
}

// clauseSpec is one clause list as data. A zero field asserts nothing, so
// the directive inherits it from its region; every region asserts them all.
type clauseSpec struct {
	sbuf, rbuf []int // buffer table indices
	shift      int   // sender rank-shift, receiver rank+shift; 0: no peers
	peersFn    bool  // SenderFn/ReceiverFn over the step's shift variable
	when       int   // 0: no when clauses; 1, 2: senders are ranks of parity when-1
	whenFn     bool  // SendWhenFn/ReceiveWhenFn over the step's phase variable
	onePair    bool  // rank 0 sends, its receiver receives, every other rank has no role
	count      int   // 0: no count clause (inferred, or inherited)
	countFn    bool  // CountFn over the step's count variable

	// comm_parameters only.
	params    bool
	target    core.Target
	placeSync core.SyncPlacement
}

// stepVars are the loop variables the *Fn clauses read: redrawn every step.
type stepVars struct{ shift, phase, count int }

// options builds the clause list for one rank. Called once per form in the
// bound run and once per execution in the fresh one.
func (c *clauseSpec) options(rank, n int, bufs []any, v *stepVars) []core.Option {
	var opts []core.Option
	pick := func(idx []int) []any {
		out := make([]any, len(idx))
		for i, j := range idx {
			out[i] = bufs[j]
		}
		return out
	}
	if len(c.sbuf) > 0 {
		opts = append(opts, core.SBuf(pick(c.sbuf)...), core.RBuf(pick(c.rbuf)...))
	}
	switch {
	case c.peersFn:
		opts = append(opts,
			core.SenderFn(func() int { return (rank - v.shift + n) % n }),
			core.ReceiverFn(func() int { return (rank + v.shift) % n }))
	case c.shift != 0:
		opts = append(opts, core.Sender((rank-c.shift+n)%n), core.Receiver((rank+c.shift)%n))
	}
	switch {
	case c.whenFn:
		opts = append(opts,
			core.SendWhenFn(func() bool { return rank%2 == v.phase }),
			core.ReceiveWhenFn(func() bool { return rank%2 != v.phase }))
	case c.when != 0:
		opts = append(opts, core.SendWhen(rank%2 == c.when-1), core.ReceiveWhen(rank%2 != c.when-1))
	case c.onePair:
		opts = append(opts, core.SendWhen(rank == 0), core.ReceiveWhen(rank == c.shift%n))
	}
	switch {
	case c.countFn:
		opts = append(opts, core.CountFn(func() int { return v.count }))
	case c.count != 0:
		opts = append(opts, core.Count(c.count))
	}
	if c.params {
		opts = append(opts, core.WithTarget(c.target), core.PlaceSync(c.placeSync), core.MaxCommIter(8))
	}
	return opts
}

type replayStep struct {
	vars       stepVars
	fam        int
	region     int   // index into the family's regions
	p2p        []int // indices into the family's directives; executed in order
	standalone bool  // execute p2p[0] with no enclosing region instead
	twice      bool  // execute the region twice: the second absorbs what the first deferred
	coalesce   bool  // flip the managed runtime's coalescing before the step, until flipped again
	fallback   bool  // the region cannot run as a plan at this step

	// then is a region executed next in the same step, before anything
	// deferred is flushed: it receives what this one carries.
	then *replayStep
}

type replayProgram struct {
	fams    []family
	regions [][]clauseSpec // per family
	p2ps    [][]clauseSpec // per family; the last of each asserts every clause
	steps   []replayStep
}

// minRuns is how often the programs execute each region with each of its
// bodies at least: the second execution records a plan, the third runs it.
const minRuns = 3

func newReplayProgram(seed int64, haveShm bool, steps int) *replayProgram {
	rng := rand.New(rand.NewSource(seed))
	oddShift := func() int { return 1 + 2*rng.Intn(2) } // parity roles pair up only across an odd shift
	p := &replayProgram{fams: families(haveShm)}
	for _, f := range p.fams {
		transfer := func(c *clauseSpec) {
			k := 1
			if rng.Intn(4) == 0 {
				k = 2 // a buffer list
			}
			for _, i := range rng.Perm(len(f.dst))[:k] {
				c.rbuf = append(c.rbuf, f.dst[i])
			}
			for len(c.sbuf) < k {
				if s := f.src[rng.Intn(len(f.src))]; !contains(c.rbuf, s) {
					c.sbuf = append(c.sbuf, s)
				}
			}
		}
		var regions, p2ps []clauseSpec
		for i := 0; i < 3; i++ {
			c := clauseSpec{params: true, shift: oddShift(), target: f.targets[rng.Intn(len(f.targets))]}
			transfer(&c)
			c.peersFn, c.whenFn, c.countFn = rng.Intn(3) == 0, rng.Intn(3) == 0, rng.Intn(4) == 0
			if !c.whenFn {
				c.when = rng.Intn(3)
			}
			if !c.countFn && rng.Intn(2) == 0 {
				c.count = 1 + rng.Intn(4)
			}
			if (c.target == core.TargetDefault || c.target == core.TargetMPI2Side) && rng.Intn(2) == 0 {
				c.placeSync = core.EndAdjParamRegions
			}
			if i == 0 {
				// Constant clauses and its synchronisation at its end: the
				// first region can run as a plan, with a target the seed
				// picks so that the seeds between them cover every target.
				c.peersFn, c.whenFn, c.countFn = false, false, false
				c.target, c.placeSync = f.targets[int(seed)%len(f.targets)], core.EndParamRegion
			}
			regions = append(regions, c)
		}
		for i := 0; i < 5; i++ {
			var c clauseSpec
			last := i == 4
			if last || rng.Intn(3) != 0 {
				transfer(&c)
			}
			if last || rng.Intn(2) == 0 {
				c.shift, c.peersFn = oddShift(), rng.Intn(3) == 0
			}
			if last || rng.Intn(3) == 0 {
				c.when, c.whenFn = 1+rng.Intn(2), rng.Intn(2) == 0
			}
			if last || rng.Intn(2) == 0 {
				c.count, c.countFn = 1+rng.Intn(4), rng.Intn(3) == 0
			}
			if i == 0 {
				c.peersFn, c.whenFn, c.countFn = false, false, false
			}
			p2ps = append(p2ps, c)
		}
		p.regions, p.p2ps = append(p.regions, regions), append(p.p2ps, p2ps)
	}
	// Every region has two bodies, each a list of its family's directives
	// executed in order, so that a region recurs with the same body and can
	// run as a plan.
	bodies := make([][][2][]int, len(p.fams))
	for f := range p.fams {
		bodies[f] = make([][2][]int, len(p.regions[f]))
		for r := range bodies[f] {
			for b := range bodies[f][r] {
				k := 1 + rng.Intn(3)
				if t := p.regions[f][r].target; t != core.TargetDefault && t != core.TargetMPI2Side {
					// A directive that depends on an earlier one of its
					// region forces a synchronisation before it, but only on
					// the ranks whose roles touch the shared buffer.
					// Two-sided, that is a Waitall over the rank's own
					// requests; on the one-sided targets it is a fence or a
					// flag exchange the other ranks never take part in. One
					// directive per region has no such dependence.
					k = 1
				}
				if r == 0 && b == 0 {
					bodies[f][r][b] = []int{0} // the first region's plan
					continue
				}
				for ; k > 0; k-- {
					bodies[f][r][b] = append(bodies[f][r][b], rng.Intn(5))
				}
			}
		}
	}
	runs := make(map[[3]int]int)
	step := func(fam, region, body int) replayStep {
		s := replayStep{
			vars:     stepVars{shift: oddShift(), phase: rng.Intn(2), count: 1 + rng.Intn(4)},
			fam:      fam,
			region:   region,
			p2p:      bodies[fam][region][body],
			coalesce: rng.Intn(12) == 0,
		}
		s.twice = p.regions[fam][region].placeSync == core.EndAdjParamRegions && rng.Intn(2) == 0
		runs[[3]int{fam, region, body}]++
		return s
	}
	for i := 0; i < steps; i++ {
		fam := rng.Intn(len(p.fams))
		if rng.Intn(6) == 0 {
			s := replayStep{
				vars:       stepVars{shift: oddShift(), phase: rng.Intn(2), count: 1 + rng.Intn(4)},
				fam:        fam,
				standalone: true, p2p: []int{4},
				coalesce: rng.Intn(12) == 0,
			}
			p.steps = append(p.steps, s)
			continue
		}
		p.steps = append(p.steps, step(fam, rng.Intn(3), rng.Intn(2)))
	}
	for f := range bodies {
		for r := range bodies[f] {
			for b := range bodies[f][r] {
				for runs[[3]int{f, r, b}] < minRuns {
					p.steps = append(p.steps, step(f, r, b))
				}
			}
		}
	}
	return p
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// replayResult is what one rank has to show for a program.
type replayResult struct {
	Landed    uint64 // hash of every buffer after every step
	V         model.Time
	Decisions []core.Decision
	Counters  map[string]int64
	Events    []simnet.Event // in the rank's program order

	// Plans counts the regions that ran as their recorded plan, by the
	// target their clause list asserts (the default counted as two-sided).
	Plans map[core.Target]int64
}

// planReplays counts a bound region executed as its plan: a bound run and a
// fresh one differ in it by design, so the comparison skips it.
const planReplays = "core_region_plan_replays_total"

var replayCounters = []string{
	"core_handle_cache_hits_total", "core_handle_cache_misses_total", "core_counts_inferred_total",
	"core_syncs_consolidated_total", "core_directives_total", "core_regions_total",
	"core_datatype_cache_hits_total", "core_p2p_retries_total", planReplays,
}

// runReplayProgram executes p on a fresh n-rank world. Bound: every clause
// list is frozen once per rank, a region and the list of directives it
// executes are bound together and executed through RunRegion, and a
// standalone directive through P2PBound. Fresh: every execution builds its
// clause lists anew and goes through Parameters and P2P, the path that
// keeps nothing. The world's telemetry has no tracer, under which a bound
// region would never run as a plan.
func runReplayProgram(t *testing.T, p *replayProgram, n int, faults *simnet.FaultConfig, bound bool) []replayResult {
	t.Helper()
	w, err := spmd.NewWorld(n, model.GeminiLike())
	if err != nil {
		t.Fatal(err)
	}
	if faults != nil {
		cfg := *faults
		cfg.TagSpan, cfg.UserSpan = mpi.P2PFaultScope()
		w.Fabric().SetFaults(cfg)
	}
	tele := telemetry.NewMetrics()
	w.SetTelemetry(tele)
	rec := w.Fabric().EnableRecorder(0)
	out := make([]replayResult, n)
	restore := func() {}
	defer func() { restore() }()
	err = w.Run(func(rk *spmd.Rank) error {
		comm := mpi.World(rk)
		var shm *shmem.Ctx
		if faults == nil {
			shm = shmem.New(rk)
		} else {
			comm.SetWatchdog(5 * time.Second)
		}
		e, err := core.NewEnv(comm, shm)
		if err != nil {
			return err
		}
		defer e.Close()

		bufs := make([]any, numBufs)
		var floats [][]float64
		var cells [][]cell
		var ptrCells []*cell
		for i := 0; i < 4; i++ {
			if shm != nil {
				s := shmem.MustAlloc[float64](shm, []int{16, 16, 40, 40}[i])
				bufs[symSmall+i] = s
				floats = append(floats, s.Local(shm))
			}
			f, c, cs := make([]float64, 16), new(cell), make([]cell, 4)
			bufs[prims+i], bufs[ptrs+i], bufs[slices+i] = f, c, cs
			floats = append(floats, f)
			cells, ptrCells = append(cells, cs), append(ptrCells, c)
		}

		vars := new(stepVars)
		regionForms := make([][]*core.Bound, len(p.fams))
		p2pForms := make([][]*core.Bound, len(p.fams))
		for f := range p.fams {
			regionForms[f] = make([]*core.Bound, len(p.regions[f]))
			p2pForms[f] = make([]*core.Bound, len(p.p2ps[f]))
		}
		form := func(forms []*core.Bound, specs []clauseSpec, i int) *core.Bound {
			if forms[i] == nil {
				forms[i] = core.Bind(specs[i].options(rk.ID, n, bufs, vars)...)
			}
			return forms[i]
		}
		// A region bound with a body shares its forms with every other body
		// they occur in, so that a form still runs under regions other than
		// the one it was lowered in.
		boundRegions := make(map[string]*core.BoundRegion)
		boundRegion := func(s *replayStep) *core.BoundRegion {
			key := fmt.Sprint(s.fam, s.region, s.p2p)
			br := boundRegions[key]
			if br == nil {
				d := make([]*core.Bound, len(s.p2p))
				for i, j := range s.p2p {
					d[i] = form(p2pForms[s.fam], p.p2ps[s.fam], j)
				}
				br = core.BindRegion(form(regionForms[s.fam], p.regions[s.fam], s.region), d...)
				boundRegions[key] = br
			}
			return br
		}
		reg := tele.Registry()
		plans := make(map[core.Target]int64)
		replays := func() int64 { return reg.CounterValue(planReplays, telemetry.Rank(rk.ID)) }

		landed := fnv.New64a()
		var word [8]byte
		hash := func(x uint64) {
			binary.LittleEndian.PutUint64(word[:], x)
			landed.Write(word[:])
		}
		hashCell := func(c cell) {
			hash(uint64(c.ID))
			hash(math.Float64bits(c.Val))
			hash(math.Float64bits(c.Vec[0]))
			hash(math.Float64bits(c.Vec[1]))
		}
		for si, s := range p.steps {
			// Every source holds values that name the rank, the step and
			// the element; the barrier below keeps a neighbour's transfer
			// of the previous step out of the refill.
			for b, f := range floats {
				for i := range f {
					f[i] = float64(rk.ID*1_000_000 + si*1000 + b*50 + i)
				}
			}
			for b, cs := range cells {
				for i := range cs {
					cs[i] = cell{ID: int32(rk.ID*1000 + si), Val: float64(b*10 + i), Vec: [2]float64{float64(si), float64(i)}}
				}
			}
			for b, c := range ptrCells {
				*c = cell{ID: int32(rk.ID*1000 + si), Val: float64(b), Vec: [2]float64{float64(si), -1}}
			}
			comm.Barrier()
			if s.coalesce && rk.ID == 0 {
				cfg := rt.Active()
				cfg.Coalesce = !cfg.Coalesce
				restore()
				restore = rt.Override(cfg)
			}
			comm.Barrier()
			*vars = s.vars

			exec := func(s *replayStep) error {
				regions, p2ps := p.regions[s.fam], p.p2ps[s.fam]
				switch {
				case s.standalone && bound:
					return e.P2PBound(form(p2pForms[s.fam], p2ps, s.p2p[0]), nil)
				case s.standalone:
					// The complete directive asserts no target: it is the
					// paper's default either way.
					return e.P2P(p2ps[s.p2p[0]].options(rk.ID, n, bufs, vars)...)
				case bound:
					before := replays()
					if _, err := e.RunRegion(boundRegion(s)); err != nil {
						return err
					}
					ran := replays() - before
					if ran > 0 && (s.fallback || faults != nil || rt.Active().Enabled() || regions[s.region].placeSync != core.EndParamRegion) {
						return fmt.Errorf("region ran as a plan where it cannot")
					}
					target := regions[s.region].target
					if target == core.TargetDefault {
						target = core.TargetMPI2Side
					}
					plans[target] += ran
					return nil
				default:
					return e.Parameters(func(r *core.Region) error {
						for _, j := range s.p2p {
							if err := r.P2P(p2ps[j].options(rk.ID, n, bufs, vars)...); err != nil {
								return err
							}
						}
						return nil
					}, regions[s.region].options(rk.ID, n, bufs, vars)...)
				}
			}
			err := exec(&s)
			if err == nil && s.twice {
				err = exec(&s)
			}
			if err == nil && s.then != nil {
				err = exec(s.then)
			}
			if err != nil {
				return fmt.Errorf("step %d (%+v): %w", si, s, err)
			}
			// A region may defer its synchronisation to the next one; what
			// has landed is only defined once it is complete.
			if err := e.FlushDeferred(); err != nil {
				return fmt.Errorf("step %d: %w", si, err)
			}
			// Consumption sync: the SHMEM target completes a region at the
			// sender, and the next step refills and reuses every buffer.
			comm.Barrier()
			for _, f := range floats {
				for _, x := range f {
					hash(math.Float64bits(x))
				}
			}
			for _, cs := range cells {
				for _, c := range cs {
					hashCell(c)
				}
			}
			for _, c := range ptrCells {
				hashCell(*c)
			}
		}
		res := replayResult{Landed: landed.Sum64(), V: rk.Now(), Decisions: e.Decisions(), Counters: map[string]int64{}, Plans: plans}
		for _, name := range replayCounters {
			res.Counters[name] = reg.CounterValue(name, telemetry.Rank(rk.ID))
		}
		for _, choice := range []string{"shmem", "mpi-2side"} {
			res.Counters["auto:"+choice] = reg.CounterValue("core_auto_target_total", telemetry.L("choice", choice), telemetry.Rank(rk.ID))
		}
		out[rk.ID] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range out {
		out[r].Events = rec.RankEvents(r)
	}
	return out
}

// TestBoundReplayMatchesFreshLowering: executing directives through their
// bound forms must be indistinguishable from freezing and lowering every
// clause list afresh at every execution — the same bytes landed, the same
// virtual time on every rank, the same fabric events, lowering decisions and
// telemetry counts — over all targets and buffer kinds, constant and *Fn
// clauses, clauses inherited from the region, directives replayed under a
// region other than the one they were lowered in, regions run as their
// recorded plans, the managed runtime's coalescing switched on and off
// between two replays of one form, and a fabric that drops messages. make
// verify runs it under -race at GOMAXPROCS=4.
func TestBoundReplayMatchesFreshLowering(t *testing.T) {
	const n, steps = 4, 150
	for _, tc := range []struct {
		name   string
		faults *simnet.FaultConfig
	}{
		{"clean", nil},
		{"faults", &simnet.FaultConfig{Seed: 7, Drop: 0.05}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plans := make(map[core.Target]int64)
			for seed := int64(1); seed <= 4; seed++ {
				p := newReplayProgram(seed, tc.faults == nil, steps)
				bound := runReplayProgram(t, p, n, tc.faults, true)
				fresh := runReplayProgram(t, p, n, tc.faults, false)
				if tc.faults != nil {
					var retries int64
					for _, b := range bound {
						retries += b.Counters["core_p2p_retries_total"]
					}
					if retries == 0 {
						t.Errorf("seed %d: no transfer was re-sent: the faults case no longer exercises the retry path", seed)
					}
				}
				compareReplay(t, fmt.Sprintf("seed %d", seed), bound, fresh)
				for _, b := range bound {
					for target, k := range b.Plans {
						plans[target] += k
					}
				}
			}
			if tc.faults == nil {
				for _, target := range []core.Target{core.TargetMPI2Side, core.TargetMPI1Side, core.TargetSHMEM, core.TargetAuto} {
					if plans[target] == 0 {
						t.Errorf("no %v region ran as its plan", target)
					}
				}
			}
			t.Logf("regions run as plans: %v", plans)
		})
	}
}

// compareReplay requires a bound and a fresh run of one program to agree on
// every rank, in all but the count of plan replays.
func compareReplay(t *testing.T, label string, bound, fresh []replayResult) {
	t.Helper()
	for rank := range bound {
		b, f := bound[rank], fresh[rank]
		if b.Landed != f.Landed || b.V != f.V {
			t.Errorf("%s rank %d: bound landed %x at %v, fresh %x at %v", label, rank, b.Landed, b.V, f.Landed, f.V)
		}
		if !reflect.DeepEqual(b.Decisions, f.Decisions) {
			t.Errorf("%s rank %d: decisions differ\nbound: %v\nfresh: %v", label, rank, b.Decisions, f.Decisions)
		}
		bc, fc := maps.Clone(b.Counters), maps.Clone(f.Counters)
		delete(bc, planReplays)
		delete(fc, planReplays)
		if !reflect.DeepEqual(bc, fc) {
			t.Errorf("%s rank %d: counters differ\nbound: %v\nfresh: %v", label, rank, bc, fc)
		}
		if !reflect.DeepEqual(b.Events, f.Events) {
			t.Errorf("%s rank %d: fabric events differ (%d bound, %d fresh)", label, rank, len(b.Events), len(f.Events))
		}
		if len(b.Events) == 0 || b.Counters["core_directives_total"] == 0 {
			t.Errorf("%s rank %d: nothing executed", label, rank)
		}
	}
}

// TestRegionPlanCases: a bound region runs its recorded plan where the plan
// describes the execution and the per-directive path everywhere else, and
// both agree with the fresh lowering throughout. The fallbacks: a
// synchronisation carried in by BEGIN_NEXT_PARAM_REGION, the managed
// runtime's coalescing switched on between executions, a *Fn clause, and a
// comm_p2p that depends on an earlier one of its region; the harness fails
// a step marked fallback that ran as a plan. And a plan whose last comm_p2p
// has no role on most ranks but moves struct buffers, whose cache-hit
// charges no call of the plan follows there.
func TestRegionPlanCases(t *testing.T) {
	const n = 4
	toRight := clauseSpec{sbuf: []int{prims}, rbuf: []int{prims + 1}, shift: 1, count: 4}
	other := clauseSpec{sbuf: []int{prims + 2}, rbuf: []int{prims + 3}, shift: 1, count: 4}
	counted := toRight
	counted.countFn = true
	dependent := clauseSpec{sbuf: []int{prims + 1}, rbuf: []int{prims + 2}, shift: 1, count: 4}
	region := clauseSpec{params: true, shift: 1, target: core.TargetMPI2Side}
	carrier := region
	carrier.placeSync = core.BeginNextParamRegion
	const (
		pToRight, pOther, pCounted, pDependent = 0, 1, 2, 3
		rRegion, rCarrier                      = 0, 1
	)
	step := func(body []int, fallback bool) replayStep {
		return replayStep{vars: stepVars{shift: 1, count: 2}, region: rRegion, p2p: body, fallback: fallback}
	}
	plain := step([]int{pToRight, pOther}, false)
	carried := step([]int{pOther}, true)
	carried.region, carried.then = rCarrier, &replayStep{vars: plain.vars, region: rRegion, p2p: plain.p2p, fallback: true}
	coalesceOn, coalescing, coalesceOff := step(plain.p2p, true), step(plain.p2p, true), plain
	coalesceOn.coalesce, coalesceOff.coalesce = true, true
	structs := replayProgram{
		fams:    families(true)[1:2],
		regions: [][]clauseSpec{{{params: true, shift: 1, target: core.TargetMPI2Side}}},
		p2ps: [][]clauseSpec{{
			{sbuf: []int{ptrs}, rbuf: []int{ptrs + 1}, shift: 1},
			{sbuf: []int{ptrs + 2}, rbuf: []int{ptrs + 3}, shift: 1, onePair: true},
		}},
	}
	for _, tc := range []struct {
		name  string
		steps []replayStep
		plans bool
		p     *replayProgram
	}{
		{"carried BEGIN_NEXT_PARAM_REGION sync", []replayStep{plain, plain, plain, carried, carried, plain, plain}, true, nil},
		{"coalescing switched on", []replayStep{plain, plain, plain, coalesceOn, coalescing, coalesceOff, plain}, true, nil},
		{"*Fn clause", []replayStep{
			step([]int{pCounted, pOther}, true), step([]int{pCounted, pOther}, true),
			step([]int{pCounted, pOther}, true), step([]int{pCounted, pOther}, true)}, false, nil},
		{"dependent comm_p2p", []replayStep{
			step([]int{pToRight, pDependent}, true), step([]int{pToRight, pDependent}, true),
			step([]int{pToRight, pDependent}, true), step([]int{pToRight, pDependent}, true)}, false, nil},
		{"struct comm_p2p with no role last", []replayStep{
			step([]int{0, 1}, false), step([]int{0, 1}, false), step([]int{0, 1}, false), step([]int{0, 1}, false)}, true, &structs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			if p == nil {
				p = &replayProgram{
					fams:    families(true)[:1],
					regions: [][]clauseSpec{{region, carrier}},
					p2ps:    [][]clauseSpec{{toRight, other, counted, dependent}},
				}
			}
			p.steps = tc.steps
			bound := runReplayProgram(t, p, n, nil, true)
			compareReplay(t, tc.name, bound, runReplayProgram(t, p, n, nil, false))
			var plans int64
			for _, b := range bound {
				plans += b.Plans[core.TargetMPI2Side]
			}
			if (plans > 0) != tc.plans {
				t.Errorf("%d regions ran as their plan; want some: %v", plans, tc.plans)
			}
		})
	}
}
