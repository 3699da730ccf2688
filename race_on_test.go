//go:build race

package bdrmapit

// raceEnabled says the race runtime is in: it changes allocation counts,
// so tests that compare them skip the comparison.
const raceEnabled = true
