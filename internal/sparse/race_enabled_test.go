//go:build race

package sparse

// raceEnabled mirrors the -race build flag: the detector's allocation
// instrumentation makes object counts unrepresentative, so pinned
// allocation tests skip under it.
const raceEnabled = true
