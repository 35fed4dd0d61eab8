package core

import (
	"math/rand"
	"testing"
)

// TestOverlapsAnyMatchesFullScan: the hull in front of the independence
// check only ever answers "no" early, so with it the check must agree with
// the plain scan of every pinned range, for local and symmetric ranges,
// empty ones included, across resets.
func TestOverlapsAnyMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	draw := func() bufRange {
		lo, n := rng.Intn(400), rng.Intn(12) // n == 0: occupies no storage
		if rng.Intn(2) == 0 {
			return bufRange{start: uintptr(1000 + lo), end: uintptr(1000 + lo + n)}
		}
		return bufRange{sym: true, symID: rng.Intn(3), symStart: lo, symEnd: lo + n}
	}
	l := newLedger()
	for round := 0; round < 200; round++ {
		for i, pins := 0, rng.Intn(6); i < pins; i++ {
			l.pin([]bufRange{draw(), draw()})
		}
		for q := 0; q < 50; q++ {
			ranges := []bufRange{draw(), draw()}
			want := false
			for _, p := range l.pinned {
				for _, r := range ranges {
					want = want || p.overlaps(r)
				}
			}
			if got := l.overlapsAny(ranges); got != want {
				t.Fatalf("round %d: overlapsAny(%+v) = %v, full scan %v; pinned %+v", round, ranges, got, want, l.pinned)
			}
		}
		if rng.Intn(3) == 0 {
			l.reset()
		}
	}
}
