// Fixture for the determinism analyzer: wall-clock reads and
// math/rand imports outside the exempt packages are violations.
package fixture

import (
	"math/rand" // want "import of math/rand"
	"time"
)

// Stamp reads the wall clock three ways.
func Stamp() time.Duration {
	start := time.Now()          // want "time.Now"
	time.Sleep(time.Millisecond) // want "time.Sleep"
	return time.Since(start)     // want "time.Since"
}

// Roll uses the unseeded global generator.
func Roll() int { return rand.Intn(6) }

// SimulatedOnly shows the clean pattern: durations on a virtual
// timeline carry no wall-clock dependence and are not flagged.
func SimulatedOnly(d time.Duration) time.Duration { return 2 * d }

// Justified reads the clock with a justifying comment: the analyzer
// has no site-level waiver, so it is still flagged.
func Justified() time.Time {
	// a comment is not an exemption
	return time.Now() // want "call to time.Now reads the wall clock"
}
