//go:build !race

package bdrmapit

// raceEnabled mirrors race_on_test.go for ordinary builds.
const raceEnabled = false
