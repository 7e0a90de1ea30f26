//go:build !race

package selection

const raceEnabled = false
