//go:build race

package netexec

func init() { raceEnabled = true }
