package runtime

import (
	"fmt"
	"math/bits"

	"commintent/internal/coll"
	"commintent/internal/model"
)

// TunerHysteresis is how many consecutive identical recommendations a
// candidate algorithm must accumulate before the tuner actually switches.
// One noisy observation (a collective that straddled a barrier stall, say)
// must not flap the schedule; three in a row is a trend.
const TunerHysteresis = 3

// ewmaAlpha weights the newest observation in the running ns/byte average.
const ewmaAlpha = 0.25

// CollObs is one virtual-time observation of a completed collective: the
// collective's owner step computes it from the participants' entry and exit
// clocks, so it is bit-identical across same-seed runs.
type CollObs struct {
	// Duration is the collective's virtual span: max exit − min entry.
	Duration model.Time
	// Wire is the profile's pure-bandwidth cost for the payload — the
	// part of Duration no algorithm choice can remove.
	Wire model.Time
	// Bytes is the per-rank payload size.
	Bytes int
	// QueueHighWater is the owner's deterministic outstanding-request
	// high-watermark at observation time.
	QueueHighWater int
	// Rank and V locate the decision for the trace.
	Rank int
	V    model.Time
}

// collKey identifies one tuned decision slot. Bytes are bucketed by log2 so
// minor payload jitter shares a slot instead of fragmenting the cache, and
// the placement's topology class keeps hierarchical and flat schedules from
// polluting each other's EWMAs — the same (kind, comm, size) measures a
// different schedule on a different placement.
type collKey struct {
	kind  coll.Kind
	n     int
	class int
	topo  int
}

type collState struct {
	algo      coll.Algo // current pinned choice
	havePin   bool
	nsPerByte float64 // EWMA of observed virtual ns/byte
	obs       int
	candidate coll.Algo // pending recommendation accumulating streak
	streak    int
	switches  int
}

// CollTuner is the per-communicator online decision cache: each collective
// invocation feeds its observation in and gets the algorithm to use back.
// It is touched only inside the communicator's owner step (exactly one
// goroutine, between a collective's last arrival and its release), so it
// needs no locking, and all of
// its inputs are virtual-time deterministic, so its decision sequence
// replays bit-identically for a given seed.
type CollTuner struct {
	trace *Trace
	comm  string
	slots map[collKey]*collState
}

// NewCollTuner returns a tuner recording its switches into trace (nil ok)
// under the given communicator id.
func NewCollTuner(trace *Trace, comm string) *CollTuner {
	return &CollTuner{trace: trace, comm: comm, slots: make(map[collKey]*collState)}
}

func sizeClass(bytes int) int { return bits.Len(uint(bytes)) }

// Choose records the observation and returns the algorithm for this slot,
// switching only after TunerHysteresis consecutive identical
// recommendations differ from the pinned choice. tp is the communicator's
// placement (zero when the profile has no topology); it both keys the slot
// and steers the candidate tables. switched reports whether this call
// performed a switch.
func (t *CollTuner) Choose(k coll.Kind, n, bytes int, tp coll.Topo, obs CollObs) (algo coll.Algo, switched bool) {
	key := collKey{kind: k, n: n, class: sizeClass(bytes), topo: tp.Class()}
	st := t.slots[key]
	if st == nil {
		st = &collState{}
		t.slots[key] = st
	}
	if !st.havePin {
		// First sight of this slot: pin the static table's choice so the
		// tuner starts exactly where the untuned system would.
		st.algo = coll.ChooseTopo(k, n, bytes, tp)
		st.havePin = true
	}

	if obs.Duration > 0 {
		nspb := float64(obs.Duration) / float64(max(bytes, 1))
		if st.obs == 0 {
			st.nsPerByte = nspb
		} else {
			st.nsPerByte = ewmaAlpha*nspb + (1-ewmaAlpha)*st.nsPerByte
		}
		st.obs++
	}

	fb := coll.Feedback{
		LatencyShare:   latencyShare(obs.Duration, obs.Wire),
		NSPerByte:      st.nsPerByte,
		QueueHighWater: obs.QueueHighWater,
	}
	cand := coll.ChooseTunedTopo(k, n, bytes, tp, fb)
	if cand == st.algo {
		st.streak = 0
		st.candidate = cand
		return st.algo, false
	}
	if st.candidate != cand {
		st.candidate = cand
		st.streak = 1
	} else {
		st.streak++
	}
	if st.streak < TunerHysteresis {
		return st.algo, false
	}
	from := st.algo
	st.algo = cand
	st.streak = 0
	st.switches++
	t.trace.Record(Decision{
		Rank:   obs.Rank,
		V:      obs.V,
		Domain: "retune",
		Key:    fmt.Sprintf("%s/%s n=%d b=2^%d", t.comm, k, n, key.class),
		From:   from.String(),
		To:     cand.String(),
		Reason: fmt.Sprintf("lat-share=%.2f ns/B=%.1f qhw=%d after %d obs", fb.LatencyShare, st.nsPerByte, obs.QueueHighWater, st.obs),
	})
	return st.algo, true
}

// Switches reports the total algorithm switches performed across slots.
func (t *CollTuner) Switches() int {
	n := 0
	for _, st := range t.slots {
		n += st.switches
	}
	return n
}

// latencyShare is the fraction of the observed duration the pure-bandwidth
// wire cost does not explain — high means latency/overhead-bound (tree
// regime), low means bandwidth-bound (ring/pipeline regime).
func latencyShare(dur, wire model.Time) float64 {
	if dur <= 0 {
		return -1 // no observation yet
	}
	s := 1 - float64(wire)/float64(dur)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}
