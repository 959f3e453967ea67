//go:build race

package mediation

// raceEnabled gates the allocation budget: the race runtime allocates on
// behalf of the code under test, so testing.AllocsPerRun reads high.
const raceEnabled = true
