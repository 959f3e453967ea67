//go:build !race

package triple

const raceEnabled = false
