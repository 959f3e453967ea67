//go:build race

package codec

// raceEnabled gates the allocation budgets: the race runtime allocates on
// behalf of the code under test, so testing.AllocsPerRun reads high.
const raceEnabled = true
