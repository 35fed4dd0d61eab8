// Package core implements the paper's contribution: communication-intent
// directives. The two directives of the paper —
//
//	#pragma comm_parameters <clauses> { ... }
//	#pragma comm_p2p <clauses> { <overlapped computation> }
//
// — become first-class Go values: Env.Parameters opens a parameters region
// whose clause assertions apply to every comm_p2p inside it, and Region.P2P
// (or Env.P2P, standalone) declares one instance of point-to-point
// communication with an optional overlapped computation body.
//
// The ten clauses of the paper are all present: the required sender,
// receiver, sbuf, rbuf; the optional sendwhen, receivewhen, target, count;
// and place_sync and max_comm_iter, which may only be used with
// comm_parameters. The lowering performed by the paper's compiler is
// performed here at directive execution: derived-datatype creation with a
// per-scope type cache, count inference from array buffers (smallest array
// wins), target dispatch to MPI two-sided, MPI one-sided or SHMEM,
// consolidation of the completion synchronisation of adjacent comm_p2p
// instances with independent buffers into one call, and sync placement per
// the place_sync keywords. Every lowering decision is recorded and can be
// inspected (see Env.Decisions), which is the runtime analogue of reading
// the compiler's generated code.
package core

import (
	"errors"
	"fmt"
)

// Target selects the communication library the directive translates to,
// mirroring the paper's target clause keywords.
type Target int

const (
	// TargetDefault applies the paper's default: MPI non-blocking
	// two-sided send/receive.
	TargetDefault Target = iota
	// TargetMPI2Side = TARGET_COMM_MPI_2SIDE: MPI_Isend / MPI_Irecv.
	TargetMPI2Side
	// TargetMPI1Side = TARGET_COMM_MPI_1SIDE: MPI_Put.
	TargetMPI1Side
	// TargetSHMEM = TARGET_COMM_SHMEM: typed shmem_put selected by the
	// buffer's element size.
	TargetSHMEM
	// TargetAuto is this implementation's extension: the lowering picks
	// SHMEM for small messages on symmetric buffers and two-sided MPI
	// otherwise (see AutoSmallMessageBytes).
	TargetAuto
)

func (t Target) String() string {
	switch t {
	case TargetDefault:
		return "default(mpi-2side)"
	case TargetMPI2Side:
		return "TARGET_COMM_MPI_2SIDE"
	case TargetMPI1Side:
		return "TARGET_COMM_MPI_1SIDE"
	case TargetSHMEM:
		return "TARGET_COMM_SHMEM"
	case TargetAuto:
		return "auto"
	default:
		return fmt.Sprintf("target(%d)", int(t))
	}
}

// AutoSmallMessageBytes is the message-size threshold below which
// TargetAuto prefers the one-sided SHMEM path, following the paper's
// observation (after refs [13], [14]) that the latency advantage of SHMEM
// is most prominent for 8-256 byte transfers.
const AutoSmallMessageBytes = 256

// SyncPlacement mirrors the place_sync clause keywords.
type SyncPlacement int

const (
	// EndParamRegion places completion synchronisation at the end of the
	// comm_parameters region (the default).
	EndParamRegion SyncPlacement = iota
	// BeginNextParamRegion delays it to the beginning of the next
	// comm_parameters region.
	BeginNextParamRegion
	// EndAdjParamRegions delays it to the end of the last region in a
	// series of adjacent comm_parameters regions.
	EndAdjParamRegions
)

func (s SyncPlacement) String() string {
	switch s {
	case EndParamRegion:
		return "END_PARAM_REGION"
	case BeginNextParamRegion:
		return "BEGIN_NEXT_PARAM_REGION"
	case EndAdjParamRegions:
		return "END_ADJ_PARAM_REGIONS"
	default:
		return fmt.Sprintf("place_sync(%d)", int(s))
	}
}

// Clause-validation errors.
var (
	// ErrMissingClause reports an absent required clause.
	ErrMissingClause = errors.New("core: missing required clause")
	// ErrWhenPairing reports sendwhen/receivewhen used alone; the paper's
	// implementation requires both present or both absent.
	ErrWhenPairing = errors.New("core: sendwhen and receivewhen must be used together")
	// ErrParamsOnlyClause reports place_sync or max_comm_iter on a
	// comm_p2p directive; they may only be used with comm_parameters.
	ErrParamsOnlyClause = errors.New("core: clause is only valid on comm_parameters")
	// ErrBufferMismatch reports sbuf/rbuf lists of different lengths.
	ErrBufferMismatch = errors.New("core: sbuf and rbuf must list the same number of buffers")
	// ErrCountInference reports that no count clause was given and no
	// buffer is an array to infer it from.
	ErrCountInference = errors.New("core: count omitted and no array buffer to infer it from")
	// ErrNotSymmetric reports a non-symmetric buffer on a SHMEM-targeted
	// directive.
	ErrNotSymmetric = errors.New("core: SHMEM target requires symmetric buffers")
	// ErrMaxCommIter reports more comm_p2p executions in a region than
	// max_comm_iter asserted.
	ErrMaxCommIter = errors.New("core: comm_p2p executed more times than max_comm_iter asserts")
	// ErrClosed reports use of an Env after Close.
	ErrClosed = errors.New("core: environment is closed")
)
