//go:build race

package smartssd

// raceEnabled gates allocation-budget assertions: the race detector's
// instrumentation allocates on its own, so a byte budget is only
// measurable in non-race runs.
const raceEnabled = true
