package core

import (
	"fmt"
	"reflect"

	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/shmem"
	"commintent/internal/telemetry"
	"commintent/internal/typemap"
)

// Env is the directive environment of one rank: the analogue of the
// function scope in which the paper's compiler caches committed derived
// datatypes and across which place_sync carries deferred synchronisation.
//
// Creating an Env is collective over the world when a SHMEM context is
// supplied (the notification-flag array is allocated symmetrically).
type Env struct {
	comm *mpi.Comm
	shm  *shmem.Ctx

	layouts *typemap.Cache
	dtypes  map[reflect.Type]*mpi.Datatype

	// Deferred-synchronisation state (place_sync).
	pending     *ledger
	pendingMode SyncPlacement

	// SHMEM notification flags: flags.Local()[src] counts completed sync
	// epochs from PE src.
	flags    *shmem.Slice[int64]
	sentSync []int64 // per destination PE
	expSync  []int64 // per source PE

	// One-sided window cache, keyed by the registered slice's identity.
	wins map[winKey]*mpi.Win

	// Handle cache: classified clause buffers with their resolved
	// window/symmetric/datatype handles, reused across max_comm_iter
	// iterations so steady-state lowering skips the reflection walk.
	resolve map[BufID]*bufInfo

	// freeRegion is the recycled Region (with its ledger storage) handed
	// out by Parameters; nil while a region is open or before first use.
	freeRegion *Region

	// Fault recovery (see retry.go): faults caches whether the world's
	// fabric injects faults, which routes flush through waitWithRetry.
	faults bool
	retry  RetryPolicy

	// Managed-runtime state (see coalesce.go): pending coalesced traffic.
	// The coalescer is only ever populated by regions whose resolved
	// runtime config enables coalescing; with the managed runtime off it
	// stays empty and every flush path is byte-for-byte the pre-managed one.
	co coalescer

	regionSeq int
	closed    bool

	// Decision log (see decisions.go): compact records, plus the side table
	// of the decisions worded when made.
	decisions    []decisionRec
	decisionText [][2]string // kind, detail

	// sites is the bind-once table of the front ends (see site.go).
	sites map[*SiteKey]any

	// regionIDs caches label → fabric-interned region id so a steady-state
	// region loop pays the intern-table mutex once per distinct label.
	regionIDs map[string]int

	tele envTele // metric handles; all nil (no-op) when telemetry is off
}

// envTele caches the directive layer's telemetry handles for one rank.
type envTele struct {
	tr           *telemetry.Tracer
	directives   *telemetry.Counter // comm_p2p instances executed
	regions      *telemetry.Counter // comm_parameters regions opened
	inferred     *telemetry.Counter // counts inferred from array buffers
	consolidated *telemetry.Counter // per-request waits avoided by consolidation
	autoTarget   map[Target]*telemetry.Counter
	dtypeHits    *telemetry.Counter // datatype/layout cache hits
	dtypeMisses  *telemetry.Counter // datatype/layout cache misses (commits)

	resolveHits   *telemetry.Counter // handle-cache hits (buffer re-resolved from cache)
	resolveMisses *telemetry.Counter // handle-cache misses (full classification)

	retries *telemetry.Counter // comm_p2p transfers re-sent after a fault
	giveups *telemetry.Counter // comm_p2p regions abandoned (dead peer / budget)

	// Managed-runtime coalescing metrics (zero unless coalescing is on).
	coBatches      *telemetry.Counter   // batch wire messages posted
	coParts        *telemetry.Counter   // member transfers carried in batches
	coSaved        *telemetry.Counter   // wire messages avoided (parts - batches)
	coHeaderBytes  *telemetry.Counter   // offset-table header bytes on the wire
	coPayloadBytes *telemetry.Counter   // payload bytes carried in batches
	coStash        *telemetry.Counter   // parts completed from the receive stash
	coBatchParts   *telemetry.Histogram // batch size distribution (parts/batch)
	decCoalesce    *telemetry.Counter   // runtime decisions, domain=coalesce
	decAutosync    *telemetry.Counter   // runtime decisions, domain=autosync

	reg      *telemetry.Registry
	regionNS map[int]*telemetry.Histogram // region id → core_region_virtual_ns handle
}

// span opens a directive-layer span at the rank's current virtual time,
// attributed to the directive region the rank is currently inside (0 when
// unlabelled).
func (e *Env) span(name, cat string) telemetry.SpanHandle {
	if e.tele.tr == nil {
		return telemetry.SpanHandle{}
	}
	rk := e.comm.SPMD()
	return e.tele.tr.BeginRegion(rk.ID, name, cat, rk.Now(), rk.Endpoint().RegionID())
}

// beginSpan and endSpan open and close a "directive" span in place. With
// tracing off they neither read the clock nor move the handle, which span
// and SpanHandle.End do: a comm_p2p has three spans, and that was a sixth of
// a small directive's cost.
func (e *Env) beginSpan(h *telemetry.SpanHandle, name string) {
	if e.tele.tr != nil {
		*h = e.span(name, "directive")
	}
}

func (e *Env) endSpan(h *telemetry.SpanHandle) {
	if e.tele.tr != nil {
		h.End(e.comm.SPMD().Now())
	}
}

// regionID interns a comm_parameters label into the fabric's region table,
// caching the result per environment. The empty label is id 0, unattributed.
func (e *Env) regionID(label string) int {
	if label == "" {
		return 0
	}
	if id, ok := e.regionIDs[label]; ok {
		return id
	}
	if e.regionIDs == nil {
		e.regionIDs = make(map[string]int)
	}
	id := e.comm.SPMD().World().Fabric().InternRegion(label)
	e.regionIDs[label] = id
	return id
}

// observeRegionNS records one labelled region's virtual duration. Handles
// are resolved lazily per region id; cardinality is bounded by the program's
// label set, and the map is only touched by the owning rank's goroutine.
func (e *Env) observeRegionNS(rid int, d model.Time) {
	if e.tele.reg == nil || rid == 0 {
		return
	}
	h := e.tele.regionNS[rid]
	if h == nil {
		if e.tele.regionNS == nil {
			e.tele.regionNS = make(map[int]*telemetry.Histogram)
		}
		rk := e.comm.SPMD()
		h = e.tele.reg.Histogram("core_region_virtual_ns",
			telemetry.Rank(rk.ID),
			telemetry.L("region", rk.World().Fabric().RegionLabel(rid)))
		e.tele.regionNS[rid] = h
	}
	h.Observe(d)
}

type winKey struct {
	ptr  uintptr
	size int
}

// NewEnv creates a directive environment over comm, with shm providing the
// SHMEM target (shm may be nil, in which case TargetSHMEM directives fail).
// When shm is non-nil, every rank of the world must call NewEnv in the same
// program order: the sync-flag array is a symmetric allocation.
func NewEnv(comm *mpi.Comm, shm *shmem.Ctx) (*Env, error) {
	if comm == nil {
		return nil, fmt.Errorf("core: NewEnv: nil communicator")
	}
	e := &Env{
		comm:    comm,
		shm:     shm,
		layouts: typemap.NewCache(),
		dtypes:  make(map[reflect.Type]*mpi.Datatype),
		wins:    make(map[winKey]*mpi.Win),
		resolve: make(map[BufID]*bufInfo),
	}
	e.faults = comm.SPMD().World().Fabric().FaultsEnabled()
	e.retry = defaultRetryPolicy(comm.SPMD().Profile())
	if shm != nil {
		flags, err := shmem.Alloc[int64](shm, shm.NPEs())
		if err != nil {
			return nil, fmt.Errorf("core: NewEnv: %w", err)
		}
		e.flags = flags
		e.sentSync = make([]int64, shm.NPEs())
		e.expSync = make([]int64, shm.NPEs())
	}
	if t := comm.SPMD().World().Telemetry(); t != nil {
		reg := t.Registry()
		r := telemetry.Rank(comm.SPMD().ID)
		e.tele = envTele{
			tr:             t.Tracer(),
			reg:            reg,
			directives:     reg.Counter("core_directives_total", r),
			regions:        reg.Counter("core_regions_total", r),
			inferred:       reg.Counter("core_counts_inferred_total", r),
			consolidated:   reg.Counter("core_syncs_consolidated_total", r),
			dtypeHits:      reg.Counter("core_datatype_cache_hits_total", r),
			dtypeMisses:    reg.Counter("core_datatype_cache_misses_total", r),
			resolveHits:    reg.Counter("core_handle_cache_hits_total", r),
			resolveMisses:  reg.Counter("core_handle_cache_misses_total", r),
			retries:        reg.Counter("core_p2p_retries_total", r),
			giveups:        reg.Counter("core_p2p_giveups_total", r),
			coBatches:      reg.Counter("runtime_coalesce_batches_total", r),
			coParts:        reg.Counter("runtime_coalesce_parts_total", r),
			coSaved:        reg.Counter("runtime_coalesce_msgs_saved_total", r),
			coHeaderBytes:  reg.Counter("runtime_coalesce_header_bytes_total", r),
			coPayloadBytes: reg.Counter("runtime_coalesce_payload_bytes_total", r),
			coStash:        reg.Counter("runtime_coalesce_stash_parts_total", r),
			coBatchParts:   reg.Histogram("runtime_coalesce_batch_parts", r),
			decCoalesce: reg.Counter("runtime_decisions_total",
				telemetry.L("domain", "coalesce"), r),
			decAutosync: reg.Counter("runtime_decisions_total",
				telemetry.L("domain", "autosync"), r),
			autoTarget: map[Target]*telemetry.Counter{
				TargetSHMEM:    reg.Counter("core_auto_target_total", telemetry.L("choice", "shmem"), r),
				TargetMPI2Side: reg.Counter("core_auto_target_total", telemetry.L("choice", "mpi-2side"), r),
			},
		}
	}
	return e, nil
}

// Comm returns the communicator the environment lowers to.
func (e *Env) Comm() *mpi.Comm { return e.comm }

// Shmem returns the SHMEM context (nil if none).
func (e *Env) Shmem() *shmem.Ctx { return e.shm }

// Close flushes any synchronisation deferred by place_sync. Every Env must
// be closed; the usual form is defer env.Close().
func (e *Env) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	if e.pending != nil || !e.co.empty() {
		p := e.pending
		e.pending = nil
		if err := e.flush(p, e.regionSeq); err != nil {
			return err
		}
		e.note(e.regionSeq, decSyncScopeClose, 0)
	}
	return nil
}

// FlushDeferred forces any synchronisation deferred by place_sync to
// complete now, outside a region.
func (e *Env) FlushDeferred() error {
	if e.pending == nil && e.co.empty() {
		return nil
	}
	p := e.pending
	e.pending = nil
	return e.flush(p, e.regionSeq)
}

// HasDeferred reports whether synchronisation is currently deferred.
func (e *Env) HasDeferred() bool {
	return (e.pending != nil && !e.pending.empty()) || !e.co.empty()
}

// chargeLayout charges the cost of resolving a struct layout: a full
// derived-type commit on a miss, a cache lookup on a hit.
func (e *Env) chargeLayout(hit bool) {
	p := e.comm.SPMD().Profile()
	if hit {
		e.comm.SPMD().Clock().Advance(p.MPITypeCacheHit)
		e.tele.dtypeHits.Inc()
	} else {
		e.tele.dtypeMisses.Inc()
	}
	// The commit cost itself is charged by structType on a datatype miss.
}

// structType resolves (and caches per scope) the committed MPI struct
// datatype for t.
func (e *Env) structType(t reflect.Type, example any) (*mpi.Datatype, error) {
	if dt, ok := e.dtypes[t]; ok {
		e.comm.SPMD().Clock().Advance(e.comm.SPMD().Profile().MPITypeCacheHit)
		e.tele.dtypeHits.Inc()
		return dt, nil
	}
	e.tele.dtypeMisses.Inc()
	dt, err := e.comm.TypeCreateStruct(example)
	if err != nil {
		return nil, err
	}
	e.dtypes[t] = dt
	e.noteText(e.regionSeq, "datatype", fmt.Sprintf("created and committed %s (%d bytes), cached for scope", dt, dt.Size()))
	return dt, nil
}

// winFor resolves (and caches) the one-sided window registering local as
// this rank's exposed memory. First use is collective: all ranks must
// execute the same directive.
func (e *Env) winFor(local any) (*mpi.Win, error) {
	rv := reflect.ValueOf(local)
	if rv.Kind() != reflect.Slice {
		return nil, fmt.Errorf("core: one-sided target requires a slice destination buffer, got %T", local)
	}
	var key winKey
	if rv.Len() > 0 {
		key = winKey{ptr: rv.Pointer(), size: rv.Len()}
	}
	if w, ok := e.wins[key]; ok {
		return w, nil
	}
	w, err := e.comm.WinCreate(local)
	if err != nil {
		return nil, err
	}
	e.wins[key] = w
	e.noteText(e.regionSeq, "window", fmt.Sprintf("collective MPI_Win_create over %T[%d]", local, rv.Len()))
	return w, nil
}
