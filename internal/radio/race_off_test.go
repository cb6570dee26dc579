//go:build !race

package radio

// raceEnabled reports whether the race detector is instrumenting this
// build; its sync-event bookkeeping allocates, so allocation pins skip.
const raceEnabled = false
