//go:build !race

package dm

const raceEnabled = false
