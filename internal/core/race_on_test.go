//go:build race

package core

// raceEnabled gates allocation assertions: the race detector's
// instrumentation allocates on its own, so allocation regressions are
// only measurable in non-race runs.
const raceEnabled = true
