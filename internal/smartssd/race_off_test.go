//go:build !race

package smartssd

const raceEnabled = false
