//go:build race

package sweep

func init() { raceEnabled = true }
