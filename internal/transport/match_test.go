package transport

import (
	"math/rand"
	"slices"
	"testing"

	"commintent/internal/model"
)

// TestMsgQueueReusesBacking checks that a drained queue rewinds to the front
// of its backing array: steady-state fill/drain cycles must not grow or
// reallocate it (the deep-queue benchmark regression guard).
func TestMsgQueueReusesBacking(t *testing.T) {
	var mq msgQueue
	const rounds, depth = 64, 32
	var stable int
	for r := 0; r < rounds; r++ {
		pos := make([]int, depth)
		for i := 0; i < depth; i++ {
			pos[i] = mq.push(&Msg{Tag: i})
		}
		// Remove from the back first — the worst case for head trimming.
		for i := depth - 1; i >= 0; i-- {
			if got := mq.first(); got == nil || got.Tag != 0 {
				t.Fatalf("round %d: first = %+v, want tag 0", r, got)
			}
			mq.remove(pos[i])
		}
		if mq.first() != nil {
			t.Fatalf("round %d: queue not empty after drain", r)
		}
		if r == 0 {
			stable = cap(mq.q)
		} else if cap(mq.q) != stable {
			t.Fatalf("round %d: backing array reallocated (cap %d -> %d)", r, stable, cap(mq.q))
		}
	}
}

// oracle is the match table as a specification: two plain lists in arrival
// and posting order, searched linearly. Every indexed path of Table is
// checked against it.
type oracle struct {
	unexpected []*Msg
	posted     []*Recv
	hw         int
}

func (o *oracle) arrive(m *Msg) *Recv {
	for i, r := range o.posted {
		if matches(r.src, r.tag, m.Src, m.Tag) {
			o.posted = append(o.posted[:i:i], o.posted[i+1:]...)
			return r
		}
	}
	o.unexpected = append(o.unexpected, m)
	if len(o.unexpected) > o.hw {
		o.hw = len(o.unexpected)
	}
	return nil
}

func (o *oracle) probe(src, tag int) *Msg {
	for _, m := range o.unexpected {
		if matches(src, tag, m.Src, m.Tag) {
			return m
		}
	}
	return nil
}

func (o *oracle) post(r *Recv) *Msg {
	if m := o.probe(r.src, r.tag); m != nil {
		o.removeMsg(m)
		return m
	}
	o.posted = append(o.posted, r)
	return nil
}

func (o *oracle) removeMsg(m *Msg) bool {
	for i, q := range o.unexpected {
		if q == m {
			o.unexpected = append(o.unexpected[:i:i], o.unexpected[i+1:]...)
			return true
		}
	}
	return false
}

// wild counts the posted receives with a wildcard pattern.
func (o *oracle) wild() int {
	n := 0
	for _, r := range o.posted {
		if r.src == AnySource || r.tag == AnyTag {
			n++
		}
	}
	return n
}

func (o *oracle) removeRecv(r *Recv) bool {
	for i, q := range o.posted {
		if q == r {
			o.posted = append(o.posted[:i:i], o.posted[i+1:]...)
			return true
		}
	}
	return false
}

// TestTableMatchesOracle drives the table and the oracle with the same
// seeded random sequence of arrivals, postings (wildcard ones racing
// concrete ones for the same messages), probes, message withdrawals from
// mid-queue, receive cancellations and lost-cancel reposts, and requires
// identical answers — by identity, not just by count — at every step. The
// narrow (source, tag) space keeps every bucket contended; the phase bias
// makes both queues grow deep and drain empty many times, which is where the
// hole-skipping and backing-array rewinds live. Every third phase posts no
// wildcard, so the posted wildcards drain (matched or cancelled) and
// arrivals take the one-probe path; the table's wildcard count must equal
// the oracle's after every step.
func TestTableMatchesOracle(t *testing.T) {
	const nsrc, ntag = 3, 3
	// Paths the seeds must have exercised between them.
	var oneProbe, wildRemoved, wildReposted int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab Table
		var ref oracle
		var msgs []*Msg   // every message ever made, taken or not
		var recvs []*Recv // every receive ever made
		var wildOK bool
		pattern := func() (int, int) {
			src, tag := rng.Intn(nsrc), rng.Intn(ntag)
			if wildOK && rng.Intn(3) == 0 {
				src = AnySource
			}
			if wildOK && rng.Intn(3) == 0 {
				tag = AnyTag
			}
			return src, tag
		}
		var fifoCap int
		for step := 0; step < 4000; step++ {
			wildOK = (step/400)%3 != 2
			// Alternate phases that favour arrivals and postings, so the
			// queues swing between deep and empty.
			arriveBias := 2 + 5*((step/250)%2)
			switch op := rng.Intn(12); {
			case op < arriveBias:
				m := &Msg{Src: rng.Intn(nsrc), Tag: rng.Intn(ntag)}
				msgs = append(msgs, m)
				before := append([]*Recv(nil), ref.posted...)
				if tab.wild == 0 && tab.Posted() > 0 {
					oneProbe++
				}
				got, want := tab.Arrive(m), ref.arrive(m)
				if got != want {
					t.Fatalf("seed %d step %d: Arrive(%d,%d) took receive %p, oracle %p", seed, step, m.Src, m.Tag, got, want)
				}
				if got != nil && rng.Intn(4) == 0 {
					if got.wildcard() {
						wildReposted++
					}
					// The message turned out to be withdrawn: the receive
					// goes back to the head of its pattern, and must still
					// be the earliest-posted candidate afterwards.
					tab.Repost(got)
					ref.posted = before
				}
			case op < 9:
				src, tag := pattern()
				r := &Recv{src: src, tag: tag}
				recvs = append(recvs, r)
				got, want := tab.Post(r), ref.post(r)
				if got != want {
					t.Fatalf("seed %d step %d: Post(%d,%d) took message %p, oracle %p", seed, step, src, tag, got, want)
				}
			case op == 9:
				src, tag := pattern()
				if got, want := tab.findUnexpected(src, tag), ref.probe(src, tag); got != want {
					t.Fatalf("seed %d step %d: Probe(%d,%d) = %p, oracle %p", seed, step, src, tag, got, want)
				}
			case op == 10 && rng.Intn(8) == 0:
				// A sweep: everything of one tag dies wherever it is queued.
				dead := func(m *Msg) bool { return m.Tag == step%ntag }
				tab.RemoveMsgs(dead)
				ref.unexpected = slices.DeleteFunc(ref.unexpected, dead)
			case op == 10 && len(msgs) > 0:
				// Any message: queued (mid-queue removal), long since
				// taken, or removed before.
				m := msgs[rng.Intn(len(msgs))]
				if got, want := tab.RemoveMsg(m), ref.removeMsg(m); got != want {
					t.Fatalf("seed %d step %d: RemoveMsg = %v, oracle %v", seed, step, got, want)
				}
			case op == 11 && len(recvs) > 0:
				r := recvs[rng.Intn(len(recvs))]
				got, want := tab.RemoveRecv(r), ref.removeRecv(r)
				if got != want {
					t.Fatalf("seed %d step %d: RemoveRecv = %v, oracle %v", seed, step, got, want)
				}
				if got && r.wildcard() {
					wildRemoved++
				}
			}
			if tab.wild != ref.wild() {
				t.Fatalf("seed %d step %d: %d wildcard receives counted, oracle %d posted", seed, step, tab.wild, ref.wild())
			}
			if tab.Unexpected() != len(ref.unexpected) || tab.Posted() != len(ref.posted) {
				t.Fatalf("seed %d step %d: counts %d/%d, oracle %d/%d", seed, step,
					tab.Unexpected(), tab.Posted(), len(ref.unexpected), len(ref.posted))
			}
			if tab.UnexpectedHighWatermark() != ref.hw {
				t.Fatalf("seed %d step %d: high-watermark %d, oracle %d", seed, step, tab.UnexpectedHighWatermark(), ref.hw)
			}
			if tab.Unexpected() == 0 {
				// Drained: the FIFO must have rewound onto the backing
				// array it already had, so its capacity is bounded by the
				// deepest the queue has been, not by the traffic so far.
				if c := cap(tab.unexFifo.q); c > fifoCap {
					fifoCap = c
				}
				if len(tab.unexFifo.q) != 0 || tab.unexFifo.head != 0 {
					t.Fatalf("seed %d step %d: drained FIFO not rewound (len %d head %d)", seed, step, len(tab.unexFifo.q), tab.unexFifo.head)
				}
			}
		}
		if fifoCap > 4*ref.hw+8 {
			t.Errorf("seed %d: FIFO backing array grew to %d for a high-watermark of %d", seed, fifoCap, ref.hw)
		}
		// The frontier walks see exactly the oracle's contents.
		var envs []Envelope
		tab.EachUnexpected(func(e Envelope) { envs = append(envs, e) })
		if len(envs) != len(ref.unexpected) {
			t.Fatalf("seed %d: EachUnexpected yielded %d, oracle %d", seed, len(envs), len(ref.unexpected))
		}
		for i, m := range ref.unexpected {
			if envs[i].Src != m.Src || envs[i].Tag != m.Tag {
				t.Fatalf("seed %d: EachUnexpected[%d] = (%d,%d), oracle (%d,%d)", seed, i, envs[i].Src, envs[i].Tag, m.Src, m.Tag)
			}
		}
		n := 0
		tab.EachPosted(func(int, int, model.Time) { n++ })
		if n != len(ref.posted) {
			t.Fatalf("seed %d: EachPosted yielded %d, oracle %d", seed, n, len(ref.posted))
		}
	}
	if oneProbe == 0 || wildRemoved == 0 || wildReposted == 0 {
		t.Errorf("paths not exercised: %d one-probe arrivals, %d wildcard cancellations, %d wildcard reposts",
			oneProbe, wildRemoved, wildReposted)
	}
}
