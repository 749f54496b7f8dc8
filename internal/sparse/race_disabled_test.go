//go:build !race

package sparse

// raceEnabled mirrors the -race build flag.
const raceEnabled = false
