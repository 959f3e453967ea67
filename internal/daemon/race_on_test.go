//go:build race

package daemon

// raceEnabled gates the allocation budget: the race runtime allocates on
// behalf of the code under test, so testing.AllocsPerRun reads high.
const raceEnabled = true
