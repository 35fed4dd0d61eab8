package mpi

// SetForceSlowRMA routes every window transfer through the reflection copy
// oracle (true) or restores the normal fast-path selection (false). The
// fast/slow equivalence suite flips it around whole scenarios; tests must
// restore it before returning.
func SetForceSlowRMA(on bool) { forceSlowRMA.Store(on) }

// RaceDetector reports whether the race detector is compiled in; allocation
// guards skip under it.
const RaceDetector = raceDetector
