package simnet

import (
	"sync/atomic"

	"commintent/internal/model"
	"commintent/internal/transport"
)

// Deterministic fault injection. The fabric is normally perfect — every
// message sent is delivered, in per-pair FIFO order, at the virtual time the
// sender computed. A Fabric configured with SetFaults instead passes every
// two-sided message through a seeded injector that may drop, delay,
// duplicate or reorder it, or declare whole ranks slow or dead.
//
// The central design problem is determinism: ranks are free-running
// goroutines, so any decision based on real time or on cross-goroutine
// arrival order would make fault patterns unreproducible. The injector
// therefore decides every fault at *send* time, on the sender's goroutine,
// from a counter the sender owns: each (src,dst) link numbers its eligible
// messages 1,2,3,…, and the fate of message k on a link is a pure hash of
// (seed, src, dst, k). Two runs with the same seed and the same per-rank
// program order make bit-identical decisions, regardless of scheduling.
//
// A dropped message is not silently discarded — that would leave the
// matching receive blocked forever, turning an injected fault into a real
// hang. Instead the payload is freed and the message is delivered as a
// payload-free *ghost* carrying its fault kind: the receiver's matching
// engine completes the receive promptly (in real time) with the fault
// recorded, and the virtual completion time is the ghost's deterministic
// arrival. The sender learns the same fate synchronously via SendResult.Fault.
// Both sides of a faulted transfer therefore observe the same per-attempt
// outcome without any acknowledgement traffic — the property the directive
// layer's lockstep retry protocol is built on.

// FaultNone is kept for the layer ladder only (benchmark/ spells the healthy
// verdict simnet.FaultNone); product code uses transport.FaultNone.
const FaultNone = transport.FaultNone

// FaultConfig configures a Fabric's deterministic fault injector. All rates
// are per-message probabilities in [0,1], decided independently per message
// by the seeded hash.
type FaultConfig struct {
	Seed uint64 // replay key; same seed + same program order = same faults

	Drop    float64 // probability a message is dropped (delivered as a ghost)
	Dup     float64 // probability a payload-free duplicate follows the message
	Delay   float64 // probability a message's arrival is pushed out
	Reorder float64 // probability a message swaps places with the next one on its link

	// DelayMax bounds the extra virtual latency of a delayed message; the
	// actual delay is a deterministic fraction of it.
	DelayMax model.Time

	// SlowRanks adds fixed virtual latency to every message touching the
	// rank (as source or destination). DeadRanks drops all traffic to or
	// from the rank with FaultPeerDead ghosts.
	SlowRanks map[int]model.Time
	DeadRanks map[int]bool

	// Tag scoping: when TagSpan > 0, only messages whose tag satisfies
	// tag % TagSpan < UserSpan are fault-eligible. The mpi package reserves
	// the upper half of each communicator's tag window; P2PFaultScope
	// exposes the (span, user) pair that scopes injection to user
	// point-to-point traffic. Zero means every tag is eligible.
	TagSpan  int
	UserSpan int
}

// FaultStats is a snapshot of the injector's activity counters.
type FaultStats struct {
	Dropped    int64 // messages delivered as drop ghosts
	PeerDead   int64 // messages delivered as peer-dead ghosts
	Delayed    int64 // messages with injected extra latency
	Duplicated int64 // duplicate copies injected
	Reordered  int64 // messages stashed for an adjacent swap
	Deduped    int64 // duplicate copies discarded by the receiver's window
}

// injector is the per-fabric fault engine. Configuration is immutable after
// SetFaults; the activity counters are atomic.
type injector struct {
	cfg  FaultConfig
	dead []bool       // per-rank, indexed lookup of cfg.DeadRanks
	slow []model.Time // per-rank, indexed lookup of cfg.SlowRanks

	dropped    atomic.Int64
	peerDead   atomic.Int64
	delayed    atomic.Int64
	duplicated atomic.Int64
	reordered  atomic.Int64
	deduped    atomic.Int64
}

// Salts separate the independent per-message rolls so one hash stream
// cannot alias another.
const (
	saltDrop    = 0x9E3779B97F4A7C15
	saltDelay   = 0xC2B2AE3D27D4EB4F
	saltDelayAt = 0x165667B19E3779F9
	saltDup     = 0x27D4EB2F165667C5
	saltReorder = 0x85EBCA77C2B2AE63
)

// roll produces a deterministic uniform sample in [0,1) for message seq on
// link (src,dst) under the given salt, via a splitmix64-style finalizer.
func (inj *injector) roll(src, dst int, seq uint64, salt uint64) float64 {
	x := inj.cfg.Seed ^ (uint64(uint32(src)) << 32) ^ uint64(uint32(dst)) ^ (seq * 0x9E3779B97F4A7C15) ^ salt
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(uint64(1)<<53)
}

// eligible reports whether a tag is subject to injection under the config's
// tag scoping.
func (inj *injector) eligible(tag int) bool {
	if inj.cfg.TagSpan <= 0 {
		return true
	}
	return tag >= 0 && tag%inj.cfg.TagSpan < inj.cfg.UserSpan
}

// SetFaults installs a deterministic fault injector on the fabric. It must
// be called before any rank goroutine starts sending — typically right
// after NewFabric — and at most once; the configuration is immutable
// afterwards. A nil-rate config still installs the injector (useful for
// exercising the sequenced-delivery machinery at zero drop rate).
func (f *Fabric) SetFaults(cfg FaultConfig) {
	inj := &injector{
		cfg:  cfg,
		dead: make([]bool, f.n),
		slow: make([]model.Time, f.n),
	}
	for r := range cfg.DeadRanks {
		if r >= 0 && r < f.n && cfg.DeadRanks[r] {
			inj.dead[r] = true
		}
	}
	for r, d := range cfg.SlowRanks {
		if r >= 0 && r < f.n {
			inj.slow[r] = d
		}
	}
	f.inj = inj
}

// FaultsEnabled reports whether a fault injector is installed.
func (f *Fabric) FaultsEnabled() bool { return f.inj != nil }

// FaultStats snapshots the injector's activity counters (zero when no
// injector is installed).
func (f *Fabric) FaultStats() FaultStats {
	inj := f.inj
	if inj == nil {
		return FaultStats{}
	}
	return FaultStats{
		Dropped:    inj.dropped.Load(),
		PeerDead:   inj.peerDead.Load(),
		Delayed:    inj.delayed.Load(),
		Duplicated: inj.duplicated.Load(),
		Reordered:  inj.reordered.Load(),
		Deduped:    inj.deduped.Load(),
	}
}

// linkFault is the sender-side per-destination injection state. It lives on
// the sending endpoint and is only touched by that rank's goroutine, so the
// link sequence numbers advance in program order — the determinism anchor.
type linkFault struct {
	seq  uint64
	held *transport.Msg // reorder stash: delivered after the next send on this link
}

// inject decides and applies this message's fate, then delivers it (and any
// duplicate, and any previously stashed message) to the destination. Runs
// on the sender's goroutine. Returns the fault assigned to m — captured
// before delivery, because an eager pooled message may be recycled the
// moment it is delivered.
func (ep *Endpoint) inject(dst int, m *transport.Msg) transport.FaultKind {
	inj := ep.f.inj
	dep := ep.f.eps[dst]
	if ep.flt == nil {
		ep.flt = make([]linkFault, ep.f.n)
	}
	lf := &ep.flt[dst]
	if !inj.eligible(m.Tag) {
		// Control-plane traffic bypasses injection, but still flushes the
		// stash first so a held user message cannot overtake it arbitrarily.
		if h := lf.held; h != nil {
			lf.held = nil
			dep.deliver(h)
		}
		dep.deliver(m)
		return transport.FaultNone
	}
	lf.seq++
	seq := lf.seq
	m.LinkSeq, m.HasSeq = seq, true

	fault := transport.FaultNone
	switch {
	case inj.dead[ep.rank] || inj.dead[dst]:
		fault = transport.FaultPeerDead
		inj.peerDead.Add(1)
	case inj.cfg.Drop > 0 && inj.roll(ep.rank, dst, seq, saltDrop) < inj.cfg.Drop:
		fault = transport.FaultDropped
		inj.dropped.Add(1)
	}
	if fault != transport.FaultNone {
		m.Ghost(fault)
		// Forensic record of the verdict, stamped with the send time so the
		// timeline shows the loss where it was decided. Purely observational:
		// no virtual-clock state changes, so golden pins are unaffected.
		if ep.f.Observed() {
			ep.f.Emit(Event{
				Rank: ep.rank, Kind: EvFault, Peer: dst, Tag: m.Tag,
				V: ep.clock.Now(), Region: ep.RegionID(), Fault: fault,
			})
		}
	} else {
		extra := inj.slow[ep.rank] + inj.slow[dst]
		if inj.cfg.Delay > 0 && inj.roll(ep.rank, dst, seq, saltDelay) < inj.cfg.Delay {
			d := model.Time(inj.roll(ep.rank, dst, seq, saltDelayAt) * float64(inj.cfg.DelayMax))
			extra += d
			inj.delayed.Add(1)
		}
		m.ArriveV += extra
	}

	// A duplicate is a payload-free copy sharing the original's link
	// sequence number: the receiver's dedupe window discards it before
	// matching, so duplication exercises idempotence without ever aliasing
	// a pooled payload. Only healthy messages are duplicated.
	var dup *transport.Msg
	if fault == transport.FaultNone && inj.cfg.Dup > 0 && inj.roll(ep.rank, dst, seq, saltDup) < inj.cfg.Dup {
		// A header of its own, not a recycled one: the dedupe window drops
		// it before any receive could complete it.
		dup = &transport.Msg{Src: m.Src, Tag: m.Tag, ArriveV: m.ArriveV, LinkSeq: seq, HasSeq: true}
		inj.duplicated.Add(1)
	}

	if h := lf.held; h != nil {
		// The previous message on this link was stashed; delivering the
		// current one first realises the adjacent swap.
		lf.held = nil
		dep.deliver(m)
		if dup != nil {
			dep.deliver(dup)
		}
		dep.deliver(h)
		return fault
	}
	// Only healthy eager pooled messages may be stashed: a ghost must reach
	// its receiver promptly (the hang-proofing invariant), and a rendezvous
	// sender blocks on the match — stashing its own message could deadlock
	// it. A stashed message with no follow-up send on the link stays held
	// until the watchdog path cancels the receive; the chaos gate therefore
	// sweeps drop rates, not reorder rates.
	if fault == transport.FaultNone && dup == nil && !m.Rendezvous() &&
		inj.cfg.Reorder > 0 && inj.roll(ep.rank, dst, seq, saltReorder) < inj.cfg.Reorder {
		lf.held = m
		inj.reordered.Add(1)
		return fault
	}
	dep.deliver(m)
	if dup != nil {
		dep.deliver(dup)
	}
	return fault
}

// seqWindow is the receiver-side per-source dedupe window: a sliding 64-bit
// bitmap over link sequence numbers. Anything below the window base is
// conservatively treated as already seen; link sequences only ever skew by
// the adjacent-swap distance, so the window never mistakes a fresh message
// for a duplicate.
type seqWindow struct {
	base uint64
	bits uint64
}

// seen marks s and reports whether it was already present. Caller holds the
// endpoint lock.
func (w *seqWindow) seen(s uint64) bool {
	if s < w.base {
		return true
	}
	if s >= w.base+64 {
		shift := s - w.base - 63
		if shift >= 64 {
			w.bits = 0
		} else {
			w.bits >>= shift
		}
		w.base += shift
	}
	bit := uint64(1) << (s - w.base)
	if w.bits&bit != 0 {
		return true
	}
	w.bits |= bit
	return false
}
