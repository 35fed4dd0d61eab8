// Package runtime is the managed adaptive layer: the paper's thesis is that
// declared communication intent lets the *system*, not the programmer, pick
// the best realization, and MDMP takes this furthest by letting a managed
// runtime schedule communication from observed behavior. This package holds
// the directive layer's (internal/core) adaptive choices:
//
//   - the opt-in configuration (env knob + per-region managed_runtime
//     clause) that gates every adaptive behavior, so all pinned goldens are
//     bit-identical with it off;
//   - the small-message coalescing policy (coalesce.go).
//
// The choices themselves (a coalesced batch close, an automatic sync
// deferral) are recorded where every other lowering decision is: in the
// deciding rank's core.Env decision log, with the evidence they were made on.
//
// Collectives are not among the choices: they have one data movement, the
// owner step's direct copy in internal/mpi, so there is nothing to retune.
package runtime

import (
	"os"
	"strings"
	"sync"
	"sync/atomic"
)

// EnvVar is the environment knob that enables the managed runtime.
//
//	""/"0"/"off"            disabled (the default; all goldens bit-identical)
//	"1"/"on"/"true"         small-message coalescing
//	"full"/"all"            coalescing + automatic sync placement
//	"coalesce,autosync"     a comma list selecting individual behaviors
//
// Automatic sync placement is deliberately excluded from "1": deferring a
// region's completion past its end changes the directive contract exactly
// the way an explicit place_sync clause does, so it needs the stronger
// opt-in ("full" or the autosync token), while coalescing is semantically
// transparent — data is fully delivered at region end.
const EnvVar = "COMMINTENT_MANAGED_RUNTIME"

// Config selects which adaptive behaviors run.
type Config struct {
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
func (c Config) Enabled() bool { return c.Coalesce || c.AutoSync }

func (c Config) String() string {
	if !c.Enabled() {
		return "off"
	}
	var parts []string
	if c.Coalesce {
		parts = append(parts, "coalesce")
	}
	if c.AutoSync {
		parts = append(parts, "autosync")
	}
	return strings.Join(parts, ",")
}

// Parse maps an EnvVar-style value ("off", "1", "full", or a comma list of
// coalesce,autosync) to a Config, for tools that take the same knob
// as a flag.
func Parse(v string) Config { return parseConfig(v) }

// parseConfig maps one EnvVar value to a Config. Unknown tokens are
// ignored rather than fatal: an experiment knob must never brick a run.
func parseConfig(v string) Config {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "", "0", "off", "false", "no":
		return Config{}
	case "1", "on", "true", "yes":
		return Config{Coalesce: true}
	case "full", "all":
		return Config{Coalesce: true, AutoSync: true}
	}
	var c Config
	for _, tok := range strings.Split(v, ",") {
		switch strings.ToLower(strings.TrimSpace(tok)) {
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
// managed runtime without mutating the process environment. Overrides do
// not nest: restore reinstates whatever was active when this Override was
// installed.
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
