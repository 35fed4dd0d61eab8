// Package plan provides the static, declarative side of the directive
// layer: a communication pattern is described once as data (symbolic buffer
// slots instead of concrete buffers), compiled with the same analyses the
// compiler in the paper performs — clause validation, count inference
// shape, buffer-independence between adjacent comm_p2p instances, sync
// consolidation points — and then executed any number of times against
// different buffer bindings.
//
// This realises the paper's observation that directives "enable
// opportunities for reusing structured communication patterns on different
// code regions": the Plan is the reusable artefact, and Plan.String is the
// analogue of inspecting the compiler's lowering.
package plan

import (
	"errors"
	"fmt"
	"strings"

	"commintent/internal/core"
)

// Typed errors for the static checks, in errors.Is style.
var (
	// ErrBadMaxCommIter rejects a max_comm_iter assertion smaller than the
	// pattern's own step count: every Execute would trip the runtime's
	// ErrMaxCommIter (or silently truncate the region), so the contradiction
	// is a compile-time fact.
	ErrBadMaxCommIter = errors.New("plan: max_comm_iter is less than the pattern's comm_p2p step count")
	// ErrSameStepReuse rejects a step listing one slot in both sbuf and rbuf
	// while some rank holds the send and receive roles simultaneously: that
	// rank would post a concurrent send and receive over one buffer, which
	// no sync placement can make safe.
	ErrSameStepReuse = errors.New("plan: slot appears in both sbuf and rbuf of one step")
	// ErrAliasedBinding rejects a Binding that maps a step's send and
	// receive slots to overlapping storage on a rank holding both roles —
	// the Execute-time analogue of ErrSameStepReuse.
	ErrAliasedBinding = errors.New("plan: binding maps a step's sbuf and rbuf slots to overlapping storage")
)

// AliasError reports which slots of which step an aliased binding made
// unsafe. It unwraps to ErrAliasedBinding.
type AliasError struct {
	Pattern string
	Step    int
	A, B    Slot
}

func (e *AliasError) Error() string {
	return fmt.Sprintf("plan: %s step %d: %v: %q (sbuf) and %q (rbuf)",
		e.Pattern, e.Step, errors.Unwrap(e), e.A, e.B)
}

func (e *AliasError) Unwrap() error { return ErrAliasedBinding }

// Slot names a buffer symbolically within a pattern.
type Slot string

// Expr computes a clause value from the executing rank's (rank, size).
type Expr func(rank, size int) int

// Cond computes a Boolean clause from (rank, size).
type Cond func(rank, size int) bool

// Step describes one comm_p2p instance of a pattern. Zero values inherit
// the pattern-level clauses, mirroring the comm_parameters inheritance
// rule.
type Step struct {
	Name string

	SBuf []Slot
	RBuf []Slot

	Sender   Expr
	Receiver Expr
	SendWhen Cond
	RecvWhen Cond

	Count int // 0 = infer from the bound buffers
}

// Pattern is a comm_parameters region described as data.
type Pattern struct {
	Name string

	Steps []Step

	// Region-level clauses.
	Sender    Expr
	Receiver  Expr
	SendWhen  Cond
	RecvWhen  Cond
	Target    core.Target
	PlaceSync core.SyncPlacement
	// MaxCommIter caps comm_p2p executions per region instance; 0 derives
	// it from the step count.
	MaxCommIter int

	// SweepSizes optionally declares the communicator sizes the pattern is
	// designed for. The static analyses — Compile's dependence walk and
	// Verify's communication-graph construction — evaluate the clause
	// expressions at exactly these sizes; empty means DefaultSweepSizes.
	// A pattern with a constrained domain (a fixed process grid, an
	// even-size pairing) should declare it here.
	SweepSizes []int
}

// Plan is a compiled pattern.
type Plan struct {
	pattern   Pattern
	slots     []Slot       // every slot referenced, in first-use order
	syncAfter map[int]bool // steps after which a dependence forces a sync
	notes     []string
	site      core.SiteKey // where a core.Env keeps this plan's bound form
}

// Compile validates the pattern and performs the static analyses.
func Compile(p Pattern) (*Plan, error) {
	if len(p.Steps) == 0 {
		return nil, fmt.Errorf("plan: pattern %q has no steps", p.Name)
	}
	pl := &Plan{pattern: p, syncAfter: make(map[int]bool)}
	seen := map[Slot]bool{}
	addSlot := func(s Slot) {
		if !seen[s] {
			seen[s] = true
			pl.slots = append(pl.slots, s)
		}
	}

	// Clause validation, mirroring the runtime rules statically.
	for i, st := range p.Steps {
		if len(st.SBuf) == 0 {
			return nil, fmt.Errorf("plan: %s step %d: %w", p.Name, i, errMissing("sbuf"))
		}
		if len(st.RBuf) == 0 {
			return nil, fmt.Errorf("plan: %s step %d: %w", p.Name, i, errMissing("rbuf"))
		}
		if len(st.SBuf) != len(st.RBuf) {
			return nil, fmt.Errorf("plan: %s step %d: sbuf/rbuf arity %d vs %d", p.Name, i, len(st.SBuf), len(st.RBuf))
		}
		if st.Sender == nil && p.Sender == nil {
			return nil, fmt.Errorf("plan: %s step %d: %w", p.Name, i, errMissing("sender"))
		}
		if st.Receiver == nil && p.Receiver == nil {
			return nil, fmt.Errorf("plan: %s step %d: %w", p.Name, i, errMissing("receiver"))
		}
		sw := st.SendWhen != nil || p.SendWhen != nil
		rw := st.RecvWhen != nil || p.RecvWhen != nil
		if sw != rw {
			return nil, fmt.Errorf("plan: %s step %d: sendwhen and receivewhen must be used together", p.Name, i)
		}
		for _, s := range st.SBuf {
			addSlot(s)
		}
		for _, s := range st.RBuf {
			addSlot(s)
		}
	}

	// A max_comm_iter assertion below the pattern's own step count is a
	// contradiction: Execute would always exceed it at runtime.
	if p.MaxCommIter < 0 || (p.MaxCommIter > 0 && p.MaxCommIter < len(p.Steps)) {
		return nil, fmt.Errorf("plan: %s: %w: max_comm_iter %d with %d step(s)",
			p.Name, ErrBadMaxCommIter, p.MaxCommIter, len(p.Steps))
	}

	// Static buffer-independence analysis at slot granularity, evaluated
	// over the pattern's size sweep: a step that reuses a slot still pending
	// from an earlier *live* step marks a forced synchronisation point
	// before it. Liveness matters both ways — a step whose role conditions
	// are statically false for every rank at a size must not poison the
	// pending set (spurious syncs), and a step live at only one swept size
	// still gets its sync (the final syncAfter is the union over sizes). The
	// same sweep rejects same-step reuse: a slot in both sbuf and rbuf while
	// some rank holds both roles.
	noted := map[string]bool{}
	for _, size := range p.sweep() {
		if size <= 0 {
			continue
		}
		roles := evalRoles(&p, size, true)
		for i := range p.Steps {
			if !roles[i].both {
				continue
			}
			for _, s := range p.Steps[i].SBuf {
				for _, t := range p.Steps[i].RBuf {
					if s == t {
						return nil, fmt.Errorf("plan: %s step %d: %w: slot %q (roles co-fire at size %d)",
							p.Name, i, ErrSameStepReuse, s, size)
					}
				}
			}
		}
		sb := syncBefore(&p, roles, slotsEqual, func(step int, s Slot, since int) {
			n := fmt.Sprintf("step %d depends on slot %q pending since step %d: sync forced", step, s, since)
			if !noted[n] {
				noted[n] = true
				pl.notes = append(pl.notes, n)
			}
		})
		for i, forced := range sb {
			if forced {
				pl.syncAfter[i-1] = true
			}
		}
	}
	return pl, nil
}

func errMissing(clause string) error {
	return fmt.Errorf("%w: %s", core.ErrMissingClause, clause)
}

// MustCompile is Compile that panics on error, for package-level pattern
// variables.
func MustCompile(p Pattern) *Plan {
	pl, err := Compile(p)
	if err != nil {
		panic(err)
	}
	return pl
}

// Slots lists every slot the pattern references, in first-use order; a
// binding must provide each of them.
func (pl *Plan) Slots() []Slot {
	out := make([]Slot, len(pl.slots))
	copy(out, pl.slots)
	return out
}

// SyncPoints reports the step indices after which the compiled analysis
// inserts a forced synchronisation (dependent buffers).
func (pl *Plan) SyncPoints() []int {
	var out []int
	for i := range pl.pattern.Steps {
		if pl.syncAfter[i] {
			out = append(out, i)
		}
	}
	return out
}

// String renders the compiled plan: the lowering a compiler would emit.
func (pl *Plan) String() string {
	var b strings.Builder
	p := pl.pattern
	fmt.Fprintf(&b, "plan %q: %d comm_p2p step(s), target=%v, place_sync=%v\n",
		p.Name, len(p.Steps), p.Target, p.PlaceSync)
	for i, st := range p.Steps {
		name := st.Name
		if name == "" {
			name = fmt.Sprintf("step-%d", i)
		}
		fmt.Fprintf(&b, "  p2p %-12s sbuf=%v rbuf=%v", name, st.SBuf, st.RBuf)
		if st.Count > 0 {
			fmt.Fprintf(&b, " count=%d", st.Count)
		} else {
			fmt.Fprintf(&b, " count=<inferred>")
		}
		b.WriteByte('\n')
		if pl.syncAfter[i] {
			fmt.Fprintf(&b, "  -- consolidated sync (dependent buffers follow)\n")
		}
	}
	fmt.Fprintf(&b, "  -- region-end consolidated sync\n")
	for _, n := range pl.notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Binding maps slots to concrete buffers for one execution.
type Binding map[Slot]any

// bindingRanges resolves each bound slot's concrete storage range (where
// the buffer type allows it) and reports whether any two distinct slots
// alias — the Execute-time hole in the compile-time independence analysis,
// which reasons at slot granularity and presumes distinct slots are
// distinct storage.
func (pl *Plan) bindingRanges(binding Binding) (map[Slot]core.BufRange, bool) {
	ranges := make(map[Slot]core.BufRange, len(pl.slots))
	for _, s := range pl.slots {
		if r, ok := core.RangeOf(binding[s]); ok {
			ranges[s] = r
		}
	}
	for i := 0; i < len(pl.slots); i++ {
		a, ok := ranges[pl.slots[i]]
		if !ok {
			continue
		}
		for j := i + 1; j < len(pl.slots); j++ {
			if b, ok := ranges[pl.slots[j]]; ok && a.Overlaps(b) {
				return ranges, true
			}
		}
	}
	return ranges, false
}

// bound is a plan lowered on one core.Env for one set of buffers: the
// frozen clause lists Execute hands the directive layer, and the identity of
// the buffer each slot was bound to. A plan's clause expressions read only
// (rank, size), which an Env fixes, so the buffers are the one input that
// can differ between two executions on the same Env.
type bound struct {
	ids    []core.BufID  // per pl.slots entry
	region *core.Bound   // comm_parameters clauses
	steps  []*core.Bound // comm_p2p clauses, per step
	run    *core.BoundRegion
	alias  func(*core.Region) error // the steps with the syncs an aliased binding forces
}

// current reports whether binding still binds every slot to the buffer the
// plan was lowered for. The identities cannot have gone stale: the clause
// lists hold the buffers, so their storage is alive and not reused.
func (b *bound) current(pl *Plan, binding Binding) bool {
	for i, s := range pl.slots {
		if id, ok := core.BufIDOf(binding[s]); !ok || id != b.ids[i] {
			return false
		}
	}
	return true
}

// Execute runs the compiled pattern once against env with the given
// binding. The dynamic layer re-checks everything the static pass proved,
// so Execute is exactly as safe as hand-written directives — just reusable.
//
// A binding may map distinct slots to overlapping storage (a halo whose
// edge and ghost cells share an array, say). Execute detects this and
// repairs the analysis the aliasing invalidated: a same-step send/receive
// over one buffer is rejected with an AliasError, and a cross-step reuse
// the slot-granularity walk could not see gets an explicit forced
// synchronisation (Region.Sync) before the dependent step.
//
// All of that is decided when a binding first executes on env and kept in
// env's site table; executing the same buffers again only revalidates
// their identities.
func (pl *Plan) Execute(env *core.Env, binding Binding) error {
	b, _ := env.Site(&pl.site).(*bound)
	if b == nil || !b.current(pl, binding) {
		var err error
		if b, err = pl.bind(env, binding); err != nil {
			return err
		}
	}
	if b.alias != nil {
		return env.ParametersBound(b.region, b.alias)
	}
	if i, err := env.RunRegion(b.run); err != nil {
		if i < 0 {
			return err
		}
		return fmt.Errorf("plan: %s step %q: %w", pl.pattern.Name, pl.pattern.Steps[i].Name, err)
	}
	return nil
}

// bind lowers the plan for env's rank and the binding's buffers.
func (pl *Plan) bind(env *core.Env, binding Binding) (*bound, error) {
	b := &bound{ids: make([]core.BufID, len(pl.slots))}
	cacheable := true
	for i, s := range pl.slots {
		v, ok := binding[s]
		if !ok {
			return nil, fmt.Errorf("plan: %s: binding missing slot %q", pl.pattern.Name, s)
		}
		if b.ids[i], ok = core.BufIDOf(v); !ok {
			cacheable = false
		}
	}
	p := pl.pattern
	rank := env.Comm().Rank()
	size := env.Comm().Size()

	ranges, aliased := pl.bindingRanges(binding)
	// Same-step safety on this rank: if both roles fire, no sbuf may share
	// storage with an rbuf (same slot twice included — the compile sweep
	// only proves role disjointness at the swept sizes).
	for i, st := range p.Steps {
		send, sp := evalCond(p.stepSendWhen(i), rank, size)
		recv, rp := evalCond(p.stepRecvWhen(i), rank, size)
		if !(send || sp) || !(recv || rp) {
			continue
		}
		for _, s := range st.SBuf {
			ra, aok := ranges[s]
			for _, t := range st.RBuf {
				rb, bok := ranges[t]
				if s == t || (aok && bok && ra.Overlaps(rb)) {
					return nil, &AliasError{Pattern: p.Name, Step: i, A: s, B: t}
				}
			}
		}
	}
	// Cross-step reuse through the alias: re-run the dependence walk at
	// this concrete size with slot overlap generalised to concrete-range
	// overlap, and force a sync before each step it flags.
	var sync []bool // steps an aliased binding forces a sync before
	if aliased {
		roles := evalRoles(&p, size, true)
		sync = syncBefore(&p, roles, func(a, b Slot) bool {
			ra, aok := ranges[a]
			rb, bok := ranges[b]
			if aok && bok {
				return ra.Overlaps(rb)
			}
			return a == b
		}, nil)
	}

	region := []core.Option{core.PlaceSync(p.PlaceSync)}
	if p.Target != core.TargetDefault {
		region = append(region, core.WithTarget(p.Target))
	}
	maxIter := p.MaxCommIter
	if maxIter == 0 {
		maxIter = len(p.Steps)
	}
	region = append(region, core.MaxCommIter(maxIter))
	b.region = core.Bind(appendRoles(region, rank, size, p.Sender, p.Receiver, p.SendWhen, p.RecvWhen)...)

	b.steps = make([]*core.Bound, len(p.Steps))
	for idx, st := range p.Steps {
		sb := make([]any, len(st.SBuf))
		for i, s := range st.SBuf {
			sb[i] = binding[s]
		}
		rb := make([]any, len(st.RBuf))
		for i, s := range st.RBuf {
			rb[i] = binding[s]
		}
		opts := []core.Option{core.SBuf(sb...), core.RBuf(rb...)}
		opts = appendRoles(opts, rank, size, st.Sender, st.Receiver, st.SendWhen, st.RecvWhen)
		if st.Count > 0 {
			opts = append(opts, core.Count(st.Count))
		}
		b.steps[idx] = core.Bind(opts...)
	}
	if sync == nil {
		b.run = core.BindRegion(b.region, b.steps...)
	} else {
		b.alias = func(r *core.Region) error {
			for idx, step := range b.steps {
				st := &p.Steps[idx]
				if sync[idx] {
					if err := r.Sync(); err != nil {
						return fmt.Errorf("plan: %s: aliased binding sync before step %q: %w", p.Name, st.Name, err)
					}
				}
				if err := r.P2PBound(step, nil); err != nil {
					return fmt.Errorf("plan: %s step %q: %w", p.Name, st.Name, err)
				}
			}
			return nil
		}
	}
	if cacheable {
		env.SetSite(&pl.site, b)
	}
	return b, nil
}

// appendRoles appends the sender/receiver/sendwhen/receivewhen clauses a
// pattern or step asserts, evaluated for this rank.
func appendRoles(opts []core.Option, rank, size int, sender, receiver Expr, sendWhen, recvWhen Cond) []core.Option {
	if sender != nil {
		opts = append(opts, core.Sender(sender(rank, size)))
	}
	if receiver != nil {
		opts = append(opts, core.Receiver(receiver(rank, size)))
	}
	if sendWhen != nil {
		opts = append(opts, core.SendWhen(sendWhen(rank, size)))
	}
	if recvWhen != nil {
		opts = append(opts, core.ReceiveWhen(recvWhen(rank, size)))
	}
	return opts
}
