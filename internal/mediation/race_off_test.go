//go:build !race

package mediation

const raceEnabled = false
