//go:build race

package selection

// raceEnabled trims the tiled-vs-direct grid to one embedding width:
// the race detector slows the direct path's scalar loops about 25×,
// and the tiled path it is compared against runs serially.
const raceEnabled = true
