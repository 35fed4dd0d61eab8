package core

import "fmt"

// Decision is one recorded lowering decision, the runtime analogue of a
// line of compiler-generated code.
type Decision struct {
	Region int    // region sequence number (0 for standalone p2p wrappers)
	Kind   string // e.g. "target", "datatype", "count-infer", "sync"
	Detail string
}

func (d Decision) String() string {
	return fmt.Sprintf("[region %d] %-12s %s", d.Region, d.Kind, d.Detail)
}

// maxRecordedDecisions caps the log. Its storage is allocated once, at the
// cap, by the first decision: grown by doubling it was reallocated five
// times per rank on the way to a cap four times this one, which at 256 ranks
// was most of a steady-state halo's allocation volume. Nothing reads past
// the first few hundred records, and 16 KiB per rank does not show in a
// world's set-up time.
const maxRecordedDecisions = 1024

// decisionCode selects the wording of a logged decision. The log stores
// the code and the one integer the wording interpolates; Decisions renders
// kind and detail on read, so recording a decision on the directive hot
// path formats nothing, allocates nothing, and leaves the collector nothing
// to scan.
type decisionCode uint8

const (
	decText           decisionCode = iota // a indexes decisionText: worded when made
	decCountInfer                         // a = count
	decAutoSHMEM                          // a = bytes
	decAutoMPI                            // a = bytes
	decSyncDependent                      //
	decWaitall                            // a = requests
	decWaitallRetry                       // a = requests
	decFence                              //
	decQuietFlags                         // a = flags
	decWaitUntil                          // a = flags
	decSyncCarried                        //
	decSyncAbsorbed                       //
	decSyncDeferred                       // a = SyncPlacement
	decSyncAuto                           //
	decSyncExplicit                       //
	decSyncScopeClose                     //
)

// decisionRec is one pointer-free log entry: 16 bytes, against the 40 of a
// rendered Decision and the detail string behind it.
type decisionRec struct {
	region int32
	code   decisionCode
	a      int
}

// note records a lowering decision. The log is capped so long-running
// loops of directives cannot grow it without bound; the earliest decisions
// (datatype commits, first syncs) are the informative ones.
func (e *Env) note(region int, code decisionCode, a int) {
	if len(e.decisions) < maxRecordedDecisions {
		if e.decisions == nil {
			e.decisions = make([]decisionRec, 0, maxRecordedDecisions)
		}
		e.decisions = append(e.decisions, decisionRec{region: int32(region), code: code, a: a})
	}
}

// noteText records a decision in its own words. That is for the decisions
// off the comm_p2p path — a datatype commit or a window creation (once per
// cached handle), a comm_coll lowering — which name things a code and an
// integer cannot; the words go to a side table.
func (e *Env) noteText(region int, kind, detail string) {
	if len(e.decisions) < maxRecordedDecisions {
		e.decisionText = append(e.decisionText, [2]string{kind, detail})
		e.note(region, decText, len(e.decisionText)-1)
	}
}

// Decisions returns the lowering decisions recorded so far, the runtime
// analogue of inspecting the compiler's generated communication code.
func (e *Env) Decisions() []Decision {
	out := make([]Decision, len(e.decisions))
	for i, d := range e.decisions {
		kind, detail := e.render(d)
		out[i] = Decision{Region: int(d.region), Kind: kind, Detail: detail}
	}
	return out
}

func (e *Env) render(d decisionRec) (kind, detail string) {
	switch d.code {
	case decText:
		return e.decisionText[d.a][0], e.decisionText[d.a][1]
	case decCountInfer:
		return "count-infer", fmt.Sprintf("count omitted; inferred %d from smallest array buffer", d.a)
	case decAutoSHMEM:
		return "target", fmt.Sprintf("auto: %d bytes <= %d and symmetric buffers -> SHMEM", d.a, AutoSmallMessageBytes)
	case decAutoMPI:
		return "target", fmt.Sprintf("auto: %d bytes -> MPI 2-sided", d.a)
	case decSyncDependent:
		return "sync", "synchronisation inserted before dependent comm_p2p (overlapping buffers)"
	case decWaitall:
		return "sync", fmt.Sprintf("MPI_Waitall over %d request(s)", d.a)
	case decWaitallRetry:
		return "sync", fmt.Sprintf("retry-guarded MPI_Waitall over %d request(s)", d.a)
	case decFence:
		return "sync", "MPI_Win_fence"
	case decQuietFlags:
		return "sync", fmt.Sprintf("shmem_quiet + %d notification flag(s)", d.a)
	case decWaitUntil:
		return "sync", fmt.Sprintf("shmem_wait_until on %d source flag(s)", d.a)
	case decSyncCarried:
		return "sync", "carried synchronisation completed at region begin (BEGIN_NEXT_PARAM_REGION)"
	case decSyncAbsorbed:
		return "sync", "pending synchronisation absorbed from adjacent region (END_ADJ_PARAM_REGIONS)"
	case decSyncDeferred:
		return "sync", fmt.Sprintf("synchronisation deferred (%s)", SyncPlacement(d.a))
	case decSyncAuto:
		return "sync", "managed runtime deferred synchronisation (auto place_sync)"
	case decSyncExplicit:
		return "sync", "explicit mid-region synchronisation (Region.Sync)"
	case decSyncScopeClose:
		return "sync", "deferred synchronisation flushed at scope close"
	default:
		return "unknown", fmt.Sprintf("decision record %+v", d)
	}
}
