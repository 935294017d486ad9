//go:build race

package brick

func init() { raceEnabled = true }
