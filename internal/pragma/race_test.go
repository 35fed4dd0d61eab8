//go:build race

package pragma_test

func init() { raceEnabled = true }
