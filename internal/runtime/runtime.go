// Package runtime is the managed adaptive layer: the paper's thesis is that
// declared communication intent lets the *system*, not the programmer, pick
// the best realization, and MDMP takes this furthest by letting a managed
// runtime schedule communication from observed behavior. This package closes
// that loop over the pieces the repo already holds — telemetry observes
// per-pattern bytes, latencies and queue depths; internal/coll picks
// collective schedules from static size tables; internal/core lowers
// directives — by providing:
//
//   - the opt-in configuration (env knob + per-region managed_runtime
//     clause) that gates every adaptive behavior, so all pinned goldens are
//     bit-identical with it off;
//   - the deterministic decision trace: every adaptive choice (a collective
//     algorithm switch, a coalesced batch close, an automatic sync
//     deferral) is recorded with its virtual timestamp, and same-seed runs
//     produce identical traces because every input the decisions consume is
//     itself virtual-time deterministic;
//   - the online collective tuner (tuner.go) and the small-message
//     coalescing policy (coalesce.go).
package runtime

import (
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"commintent/internal/model"
)

// EnvVar is the environment knob that enables the managed runtime.
//
//	""/"0"/"off"            disabled (the default; all goldens bit-identical)
//	"1"/"on"/"true"         online retuning + small-message coalescing
//	"full"                  retuning + coalescing + automatic sync placement
//	"retune,coalesce,..."   a comma list selecting individual behaviors
//
// Automatic sync placement is deliberately excluded from "1": deferring a
// region's completion past its end changes the directive contract exactly
// the way an explicit place_sync clause does, so it needs the stronger
// opt-in ("full" or the autosync token), while retuning and coalescing are
// semantically transparent — data is fully delivered at region end.
const EnvVar = "COMMINTENT_MANAGED_RUNTIME"

// Config selects which adaptive behaviors run.
type Config struct {
	// Retune re-invokes the collective algorithm selection mid-run from
	// live virtual-time observations (internal/mpi's owner step).
	Retune bool
	// Coalesce batches adjacent small comm_p2p transfers to the same
	// destination inside a comm_parameters region into one wire message.
	Coalesce bool
	// AutoSync defers a region's consolidated synchronisation the way an
	// explicit place_sync(END_ADJ_PARAM_REGIONS) does, whenever the region
	// carries no explicit placement; the dependency ledger still forces
	// completion before any dependent directive.
	AutoSync bool
}

// Enabled reports whether any adaptive behavior is selected.
func (c Config) Enabled() bool { return c.Retune || c.Coalesce || c.AutoSync }

func (c Config) String() string {
	if !c.Enabled() {
		return "off"
	}
	var parts []string
	if c.Retune {
		parts = append(parts, "retune")
	}
	if c.Coalesce {
		parts = append(parts, "coalesce")
	}
	if c.AutoSync {
		parts = append(parts, "autosync")
	}
	return strings.Join(parts, ",")
}

// Parse maps an EnvVar-style value ("off", "1", "full", or a comma list of
// retune,coalesce,autosync) to a Config, for tools that take the same knob
// as a flag.
func Parse(v string) Config { return parseConfig(v) }

// parseConfig maps one EnvVar value to a Config. Unknown tokens are
// ignored rather than fatal: an experiment knob must never brick a run.
func parseConfig(v string) Config {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "", "0", "off", "false", "no":
		return Config{}
	case "1", "on", "true", "yes":
		return Config{Retune: true, Coalesce: true}
	case "full", "all":
		return Config{Retune: true, Coalesce: true, AutoSync: true}
	}
	var c Config
	for _, tok := range strings.Split(v, ",") {
		switch strings.ToLower(strings.TrimSpace(tok)) {
		case "retune":
			c.Retune = true
		case "coalesce":
			c.Coalesce = true
		case "autosync", "sync":
			c.AutoSync = true
		}
	}
	return c
}

var (
	envOnce sync.Once
	envCfg  Config

	// override holds a test/tool-installed config taking precedence over
	// the environment; nil means no override. The pointer swap keeps
	// Active() a single atomic load on the hot path and lets parallel
	// tests pin the runtime without racing on os.Setenv.
	override atomic.Pointer[Config]
)

// FromEnv returns the configuration selected by EnvVar, read once.
func FromEnv() Config {
	envOnce.Do(func() { envCfg = parseConfig(os.Getenv(EnvVar)) })
	return envCfg
}

// Override pins the active configuration, returning a restore func; the
// usual form is defer Override(cfg)(). It exists so tests can exercise the
// managed runtime without mutating the process environment (the coll.Force
// pattern). Overrides do not nest: restore reinstates whatever was active
// when this Override was installed.
func Override(cfg Config) (restore func()) {
	old := override.Swap(&cfg)
	return func() { override.Store(old) }
}

// Active reports the configuration in force: the innermost Override if one
// is installed, else the environment's.
func Active() Config {
	if p := override.Load(); p != nil {
		return *p
	}
	return FromEnv()
}

// Decision is one recorded adaptive choice. Every field that feeds a
// Decision is derived from virtual-time observables, so the multiset of
// decisions a run produces is a pure function of (program, profile, seed).
type Decision struct {
	Rank   int        `json:"rank"`   // world rank that made the choice
	V      model.Time `json:"v"`      // virtual time of the choice
	Domain string     `json:"domain"` // "retune" | "coalesce" | "autosync"
	Key    string     `json:"key"`    // what was decided about (comm/collective/peer/region)
	From   string     `json:"from"`   // previous realization
	To     string     `json:"to"`     // chosen realization
	Reason string     `json:"reason"` // the observation that drove it
}

func (d Decision) String() string {
	return fmt.Sprintf("v=%d rank=%d %s %s: %s -> %s (%s)",
		int64(d.V), d.Rank, d.Domain, d.Key, d.From, d.To, d.Reason)
}

// MaxTraceDecisions caps the trace so adaptive steady-state loops cannot
// grow it without bound; the early decisions are the informative ones.
const MaxTraceDecisions = 8192

// Trace accumulates decisions from all ranks of a world. Individual ranks
// append concurrently (real-time interleaving is scheduler-dependent), so
// Snapshot canonicalises the order by virtual time before anything is
// compared or hashed — that is what makes same-seed traces bit-identical.
type Trace struct {
	mu      sync.Mutex
	ds      []Decision
	dropped int
}

// Record appends one decision (nil-safe; drops past the cap).
func (t *Trace) Record(d Decision) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.ds) < MaxTraceDecisions {
		t.ds = append(t.ds, d)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Len reports the number of recorded decisions.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ds)
}

// Dropped reports decisions lost to the cap.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Snapshot returns the decisions in canonical order: sorted by virtual
// time, then rank, then content. Two same-seed runs produce the same
// multiset of decisions, so their canonical orders — and fingerprints —
// are identical regardless of goroutine scheduling.
func (t *Trace) Snapshot() []Decision {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Decision, len(t.ds))
	copy(out, t.ds)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.V != b.V {
			return a.V < b.V
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Domain != b.Domain {
			return a.Domain < b.Domain
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Reason < b.Reason
	})
	return out
}

// Fingerprint hashes the canonical trace; equal fingerprints across
// same-seed runs are the replay-determinism contract the tests pin.
func (t *Trace) Fingerprint() uint64 {
	h := fnv.New64a()
	for _, d := range t.Snapshot() {
		fmt.Fprintln(h, d.String())
	}
	return h.Sum64()
}

// String renders the canonical trace, one decision per line.
func (t *Trace) String() string {
	var b strings.Builder
	for _, d := range t.Snapshot() {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}
