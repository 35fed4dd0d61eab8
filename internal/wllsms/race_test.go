//go:build race

package wllsms_test

func init() { raceEnabled = true }
