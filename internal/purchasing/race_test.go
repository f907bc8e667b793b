//go:build race

package purchasing

func init() { raceEnabled = true }
